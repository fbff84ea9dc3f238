package main

// perLayer names the per-layer metrics in the order BENCHMARK.json lists
// them; the layers are the module's packages. A *_s metric is the layer's
// self seconds per pass, a count is summed over the pass, and both are
// the lower quartile over traced passes. README.md says which end-to-end
// metric each one should move, and on which workload.
var perLayer = []struct{ name, unit string }{
	{"lang.parse_s", "s"},
	{"lang.src_bytes", "B"},
	{"lang.bytes_per_s", "B/s"},

	{"cfg.build_s", "s"},
	{"cfg.nodes", "count"},
	{"cfg.edges", "count"},
	{"cfg.loops_s", "s"},
	{"cfg.loops", "count"},
	{"cfg.loops_scaling_exp", "exponent"},

	{"analysis.controldep_s", "s"},
	{"analysis.switchplace_s", "s"},
	{"analysis.switches_placed", "count"},
	{"analysis.sourcevec_s", "s"},
	{"analysis.alias_s", "s"},

	{"translate.total_s", "s"},
	{"translate.emit_self_s", "s"},
	{"translate.dfg_nodes", "count"},
	{"translate.dfg_arcs", "count"},
	{"translate.switches", "count"},
	{"translate.merges", "count"},
	{"translate.synchs", "count"},
	{"translate.scaling_exp", "exponent"},

	{"opt.run_s", "s"},
	{"opt.rewrites", "count"},
	{"opt.nodes_removed", "count"},
	{"opt.rewrites.sink-switches", "count"},
	{"opt.rewrites.collapse-merges", "count"},
	{"opt.rewrites.fuse-operators", "count"},
	{"opt.rewrites.eliminate-dead", "count"},

	{"vet.run_s", "s"},
	{"vet.passes_ran", "count"},
	{"vet.diagnostics", "count"},
	{"vet.scaling_exp", "exponent"},

	{"dfg.text_roundtrip_s", "s"},
	{"dfg.text_bytes", "B"},

	{"interp.run_s", "s"},
	{"interp.stmts", "count"},
	{"interp.stmts_per_s", "1/s"},

	{"machine.run_s", "s"},
	{"machine.cycles", "count"},
	{"machine.firings", "count"},
	{"machine.mem_ops", "count"},
	{"machine.matches", "count"},
	{"machine.tokens_moved", "count"},
	{"machine.match_ratio", "ratio"},
	{"machine.peak_match_store", "count"},
	{"machine.max_parallelism", "count"},
	{"machine.fires_per_s", "1/s"},
	{"machine.cycles_per_s", "1/s"},
	{"machine.allocs_per_firing", "ratio"},
	{"machine.select_share", "ratio"},
	{"machine.fire_share", "ratio"},
	{"machine.retire_share", "ratio"},
	{"machine.deliver_share", "ratio"},
	{"machine.barrier_share", "ratio"},
	{"machine.fire_imbalance", "ratio"},
	{"machine.remote_token_share", "ratio"},

	{"chanexec.run_s", "s"},
	{"chanexec.firings", "count"},
	{"chanexec.fires_per_s", "1/s"},
	{"chanexec.failed", "count"},

	{"obs.telemetry_overhead_ratio", "ratio"},
	{"obs.collector_overhead_ratio", "ratio"},
	{"obs.journal_overhead_ratio", "ratio"},

	{"ctdf.facade_s", "s"},
	{"ctdf.compile_vet_share", "ratio"},
	{"ctdf.machine_share", "ratio"},
	{"trace_overhead_ratio", "ratio"},
}
