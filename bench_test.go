package ctdf

// The benchmark harness: one benchmark per experiment in EXPERIMENTS.md
// (E1–E12), regenerating the corresponding paper artifact's measurement.
// Dataflow-level results (cycles on the simulated machine, operator
// counts) are reported as custom metrics next to the usual ns/op of the
// simulation itself.

import (
	"fmt"
	"runtime"
	"testing"

	"ctdf/internal/experiments"
	"ctdf/internal/workloads"
)

func compileBench(b *testing.B, src string) *Program {
	b.Helper()
	p, err := Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchRun measures executing workload w under opt on the machine and
// reports the simulated cycle count and average parallelism.
func benchRun(b *testing.B, w workloads.Workload, opt Options, run RunConfig) {
	b.Helper()
	p := compileBench(b, w.Source)
	d, err := p.Translate(opt)
	if err != nil {
		b.Fatal(err)
	}
	var last *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := d.Run(run)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	if last != nil && last.Cycles > 0 {
		b.ReportMetric(float64(last.Cycles), "cycles")
		b.ReportMetric(last.AvgParallelism, "par")
	}
	st := d.Stats()
	b.ReportMetric(float64(st.Nodes), "dfnodes")
	b.ReportMetric(float64(st.Switches), "switches")
}

// --- E1/E2: Schema 1 vs Schema 2 on the running example (Figs 1–8) ---

func BenchmarkE1Schema1RunningExample(b *testing.B) {
	benchRun(b, workloads.RunningExample, Options{Schema: Schema1}, RunConfig{MemLatency: 4})
}

func BenchmarkE2Schema2RunningExample(b *testing.B) {
	benchRun(b, workloads.RunningExample, Options{Schema: Schema2}, RunConfig{MemLatency: 4})
}

func BenchmarkE2Schema2IndependentChains(b *testing.B) {
	benchRun(b, workloads.MustByName("independent-chains"), Options{Schema: Schema2}, RunConfig{MemLatency: 4})
}

// --- E3: translation cost and O(E·V) size scaling (§3) ---

// BenchmarkE3TranslateSizeScaling translates generated programs of 2 to
// 16 statements, and one of 1 000, where any table dense in CFG nodes ×
// tokens dominates the bytes per op (-benchmem).

func BenchmarkE3TranslateSizeScaling(b *testing.B) {
	for _, size := range []int{2, 4, 8, 16, 1000} {
		w := workloads.Random(1234, size, 2)
		b.Run(fmt.Sprintf("stmts=%d", size), func(b *testing.B) {
			p := compileBench(b, w.Source)
			var d *Dataflow
			for i := 0; i < b.N; i++ {
				var err error
				d, err = p.Translate(Options{Schema: Schema2})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Stats().Arcs), "dfarcs")
		})
	}
}

// --- E4: switch elimination on Figure 9 ---

func BenchmarkE4Fig9Schema2(b *testing.B) {
	benchRun(b, workloads.Fig9Example, Options{Schema: Schema2}, RunConfig{MemLatency: 8})
}

func BenchmarkE4Fig9Optimized(b *testing.B) {
	benchRun(b, workloads.Fig9Example, Options{Schema: Schema2Opt}, RunConfig{MemLatency: 8})
}

// --- E5: switch placement (Figure 10) computation cost ---

func BenchmarkE5SwitchPlacement(b *testing.B) {
	w := workloads.Random(999, 10, 3)
	p := compileBench(b, w.Source)
	for i := 0; i < b.N; i++ {
		if _, err := p.Translate(Options{Schema: Schema2Opt}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: direct construction vs iterative elimination (§4.2) ---

func BenchmarkE6DirectConstruction(b *testing.B) {
	p := compileBench(b, workloads.Fig9Example.Source)
	for i := 0; i < b.N; i++ {
		if _, err := p.Translate(Options{Schema: Schema2Opt}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6IterativeElimination(b *testing.B) {
	p := compileBench(b, workloads.Fig9Example.Source)
	d, err := p.Translate(Options{Schema: Schema2})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, n := d.EliminateRedundantSwitches(); n == 0 {
			b.Fatal("nothing eliminated")
		}
	}
}

// --- E7: cover tradeoff (§5, Figures 12–13) ---

func BenchmarkE7Cover(b *testing.B) {
	for _, c := range []struct {
		name string
		kind CoverKind
	}{{"singleton", CoverSingleton}, {"class", CoverClass}, {"monolithic", CoverMonolithic}} {
		b.Run(c.name, func(b *testing.B) {
			benchRun(b, workloads.MustByName("cover-tradeoff"),
				Options{Schema: Schema3, Cover: c.kind}, RunConfig{MemLatency: 6})
		})
	}
}

// --- E8: array store parallelization (Figure 14, §6.3) ---

func BenchmarkE8ArrayStores(b *testing.B) {
	for _, par := range []bool{false, true} {
		name := "sequential"
		if par {
			name = "parallelized"
		}
		b.Run(name, func(b *testing.B) {
			benchRun(b, workloads.Fig14ArrayLoop,
				Options{Schema: Schema2Opt, EliminateMemory: true, ParallelArrayStores: par},
				RunConfig{MemLatency: 20})
		})
	}
}

// --- E9: memory elimination (§6.1) ---

func BenchmarkE9MemElim(b *testing.B) {
	for _, elim := range []bool{false, true} {
		name := "with-memory"
		if elim {
			name = "eliminated"
		}
		b.Run(name, func(b *testing.B) {
			benchRun(b, workloads.MustByName("fib-iterative"),
				Options{Schema: Schema2Opt, EliminateMemory: elim}, RunConfig{MemLatency: 4})
		})
	}
}

// --- E10: read parallelization (§6.2) ---

func BenchmarkE10ReadPar(b *testing.B) {
	for _, par := range []bool{false, true} {
		name := "sequential-reads"
		if par {
			name = "parallel-reads"
		}
		b.Run(name, func(b *testing.B) {
			benchRun(b, workloads.MustByName("read-heavy"),
				Options{Schema: Schema2, ParallelReads: par}, RunConfig{MemLatency: 16})
		})
	}
}

// --- E11: the schema comparison across the suite ---

func BenchmarkE11SchemaComparison(b *testing.B) {
	for _, w := range []workloads.Workload{
		workloads.RunningExample,
		workloads.MustByName("fib-iterative"),
		workloads.MustByName("matmul-2x2-flat"),
		workloads.MustByName("independent-chains"),
	} {
		for _, cfg := range []struct {
			name string
			opt  Options
		}{
			{"schema1", Options{Schema: Schema1}},
			{"schema2", Options{Schema: Schema2}},
			{"schema2-opt", Options{Schema: Schema2Opt}},
			{"mem-elim", Options{Schema: Schema2Opt, EliminateMemory: true}},
		} {
			b.Run(w.Name+"/"+cfg.name, func(b *testing.B) {
				benchRun(b, w, cfg.opt, RunConfig{MemLatency: 4})
			})
		}
	}
}

// --- E12: engine comparison ---

func BenchmarkE12Engines(b *testing.B) {
	w := workloads.MustByName("nested-loops")
	for _, e := range []struct {
		name   string
		engine Engine
	}{{"machine", EngineMachine}, {"channels", EngineChannels}} {
		b.Run(e.name, func(b *testing.B) {
			p := compileBench(b, w.Source)
			d, err := p.Translate(Options{Schema: Schema2Opt})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := d.Run(RunConfig{Engine: e.engine}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E13: I-structure memory (§6.3, write-once arrays) ---

func BenchmarkE13IStructures(b *testing.B) {
	for _, ist := range []bool{false, true} {
		name := "access-tokens"
		if ist {
			name = "i-structures"
		}
		b.Run(name, func(b *testing.B) {
			benchRun(b, workloads.MustByName("producer-consumer"),
				Options{Schema: Schema2Opt, EliminateMemory: true, UseIStructures: ist},
				RunConfig{MemLatency: 16})
		})
	}
}

// --- E14: derived alias structures (§5) ---

func BenchmarkE14DeriveAliases(b *testing.B) {
	p := compileBench(b, workloads.MustByName("proc-fortran").Source)
	for i := 0; i < b.N; i++ {
		pas, err := p.DeriveAliases()
		if err != nil || len(pas) == 0 {
			b.Fatal("derivation failed")
		}
	}
}

// --- E15: separate compilation with activation contexts (§2.2) ---

func BenchmarkE15Linked(b *testing.B) {
	src := workloads.MustByName("proc-fortran").Source
	p := compileBench(b, src)
	for _, linked := range []bool{false, true} {
		name := "inlined"
		if linked {
			name = "linked"
		}
		b.Run(name, func(b *testing.B) {
			var d *Dataflow
			var err error
			if linked {
				d, err = p.TranslateLinked()
			} else {
				d, err = p.Translate(Options{Schema: Schema2Opt})
			}
			if err != nil {
				b.Fatal(err)
			}
			var last *Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last, err = d.Run(RunConfig{MemLatency: 4})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(last.Cycles), "cycles")
			b.ReportMetric(float64(d.Stats().Nodes), "dfnodes")
		})
	}
}

// --- Pipeline stage costs ---

// BenchmarkCompile times source text → (optimized) dataflow graph, what
// benchmark/ reports as compile_s, on the program shapes of its two
// compile workloads (same generators, sizes and options), so a profile
// of the front end, the translator and the optimizer can be taken
// without vet and the machine around them.
func BenchmarkCompile(b *testing.B) {
	structured := Options{Schema: Schema2Opt, Optimize: 1}
	aliased := Options{Schema: Schema3Opt, Cover: CoverClass}
	for _, c := range []struct {
		name string
		w    workloads.Workload
		o    Options
	}{
		{"structured-40", workloads.Random(1990, 40, 3), structured},
		{"structured-56", workloads.Random(1991, 56, 3), structured},
		{"unstructured-48a", workloads.RandomUnstructured(1990, 48), Options{Schema: Schema2Opt}},
		{"unstructured-48b", workloads.RandomUnstructured(1991, 48), Options{Schema: Schema2Opt}},
		{"aliased-32a", workloads.RandomAliased(1990, 32, 3), aliased},
		{"aliased-32b", workloads.RandomAliased(1991, 32, 3), aliased},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var d *Dataflow
			for i := 0; i < b.N; i++ {
				p, err := Compile(c.w.Source)
				if err != nil {
					b.Fatal(err)
				}
				if d, err = p.Translate(c.o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Stats().Nodes), "dfnodes")
		})
	}
}

// compileAllocBudget and compileByteBudget bound the allocations of one
// compile of the budget program, source text to optimized graph. It took
// 444 k allocations when every optimizer sweep copied the graph's
// adjacency and rebuilt the graph, the analyses kept their sets in maps of
// maps and loop control recomputed dominators per loop; 81 k while
// dfg.Graph kept a slice per node and per port, grown arc by arc, in
// translation and again in the optimizer's one materialisation; 39.8 k
// (8.3 MB) while the translator built a graph the optimizer copied into
// its editor and out again; 20.8 k (6.1 MB) while the front end lexed a
// []rune copy of the source into a token slice, allocated every AST node
// and CFG node, edge list and frontier one by one, and copied the CFG to
// compact it; 5.0 k (3.8 MB) while the analyses numbered token names
// through a map and the translator turned the placement and loop needs
// back into name sets; 3.4 k (3.7 MB) while a token's sources were
// swept token by token; 3.3 k (3.5 MB) while they were computed in one
// walk over the order and read back by the builder; and takes 3.3 k
// (3.4 MB) now that the builder wires as it walks. Each gate is that
// figure under -race, which allocates a little more, × 1.25. Allocation
// counts and bytes repeat exactly, so these gates are deterministic where
// wall time is not.
const (
	compileAllocBudget = 4_125
	compileByteBudget  = 4_951_000
)

func TestCompileAllocBudget(t *testing.T) {
	src := workloads.Random(1990, 40, 3).Source
	compile := func() {
		p, err := Compile(src)
		if err == nil {
			_, err = p.Translate(Options{Schema: Schema2Opt, Optimize: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(3, compile)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	compile()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	if got > compileAllocBudget || bytes > compileByteBudget {
		t.Errorf("compile allocates %.0f times and %d bytes per run, budget %d and %d", got, bytes, compileAllocBudget, compileByteBudget)
	}
	t.Logf("compile: %.0f allocs and %d bytes per run (budget %d and %d)", got, bytes, compileAllocBudget, compileByteBudget)
}

func BenchmarkTranslateSchemas(b *testing.B) {
	w := workloads.MustByName("matmul-2x2-flat")
	p := compileBench(b, w.Source)
	for _, s := range []Schema{Schema1, Schema2, Schema2Opt, Schema3, Schema3Opt} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Translate(Options{Schema: s}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingTranslate measures translation time as generated
// programs grow (statement count doubles per step).
func BenchmarkScalingTranslate(b *testing.B) {
	for _, size := range []int{4, 8, 16, 32} {
		w := workloads.Random(4242, size, 3)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			p := compileBench(b, w.Source)
			var d *Dataflow
			for i := 0; i < b.N; i++ {
				var err error
				d, err = p.Translate(Options{Schema: Schema2Opt})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Stats().Nodes), "dfnodes")
		})
	}
}

// BenchmarkScalingSimulate measures simulator throughput (operator
// firings per wall second) on growing programs.
func BenchmarkScalingSimulate(b *testing.B) {
	for _, size := range []int{4, 8, 16} {
		w := workloads.Random(4242, size, 3)
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			p := compileBench(b, w.Source)
			d, err := p.Translate(Options{Schema: Schema2Opt})
			if err != nil {
				b.Fatal(err)
			}
			ops := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := d.Run(RunConfig{})
				if err != nil {
					b.Fatal(err)
				}
				ops += r.Ops
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(ops)/sec, "fires/s")
			}
		})
	}
}

// BenchmarkObsDisabled measures Run with no observability attached —
// the engines carry the instrumentation hooks but pay only a nil check
// per firing. Compare against BenchmarkObsEnabled (and against the
// pre-obs seed, where this benchmark's workload matched the seed Run
// within ~2%).
func BenchmarkObsDisabled(b *testing.B) {
	p := compileBench(b, workloads.MustByName("fib-iterative").Source)
	d, err := p.Translate(Options{Schema: Schema2Opt})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(RunConfig{MemLatency: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsEnabled is the same run with full observability: counters
// and the run's record, which the critical path reads.
func BenchmarkObsEnabled(b *testing.B) {
	p := compileBench(b, workloads.MustByName("fib-iterative").Source)
	d, err := p.Translate(Options{Schema: Schema2Opt})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := d.Run(RunConfig{MemLatency: 4, Obs: &ObsOptions{CriticalPath: true}})
		if err != nil {
			b.Fatal(err)
		}
		if r.Obs == nil || r.Obs.CriticalPathLength() == 0 {
			b.Fatal("observability report missing")
		}
	}
}

// BenchmarkObsJournal is the same run recording the full causal journal:
// every firing carries its complete operand-producer set, plus
// matching-store parks, powering Explain/Impact, replay, and the
// exporters.
func BenchmarkObsJournal(b *testing.B) {
	p := compileBench(b, workloads.MustByName("fib-iterative").Source)
	d, err := p.Translate(Options{Schema: Schema2Opt})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := d.Run(RunConfig{MemLatency: 4, Obs: &ObsOptions{Journal: true}})
		if err != nil {
			b.Fatal(err)
		}
		if r.Journal == nil {
			b.Fatal("journal missing")
		}
	}
}

// TestJournalAllocationsDoNotGrowPerFiring holds a journaled run to one
// record of the run: from Wide(8,100) to Wide(8,200), which doubles the
// firings, the journaled run may allocate at most margin times more than
// the plain run's own growth — a few doublings of the record's tables, and
// nothing per firing. Over 40 runs each, the excess measured
// 11–14 in the plain build and 4–24 under -race, whose pool drops add
// noise but no trend: the margin is 16 and 32.
func TestJournalAllocationsDoNotGrowPerFiring(t *testing.T) {
	margin := 16.0
	if raceBuild {
		margin = 32
	}
	allocs := func(iters int, o *ObsOptions) float64 {
		p, err := Compile(workloads.Wide(8, iters).Source)
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.Translate(Options{Schema: Schema2Opt})
		if err != nil {
			t.Fatal(err)
		}
		// Many runs: under -race, sync.Pool drops make the node labels'
		// fmt calls allocate a varying few per run.
		return testing.AllocsPerRun(25, func() {
			if _, err := d.Run(RunConfig{MemLatency: 4, Obs: o}); err != nil {
				t.Fatal(err)
			}
		})
	}
	journal := &ObsOptions{Journal: true}
	plain := allocs(200, nil) - allocs(100, nil)
	journaled := allocs(200, journal) - allocs(100, journal)
	if journaled > plain+margin {
		t.Errorf("doubling the firings costs the journaled run %.0f allocations, the plain run %.0f", journaled, plain)
	}
	t.Logf("doubling the firings: plain run +%.0f allocations, journaled run +%.0f", plain, journaled)
}

// BenchmarkTelemetryEnabled is BenchmarkObsDisabled's run with a live
// registry recording every phase, counter, and histogram in the catalog;
// with RunConfig.Telemetry nil the engine pays only nil-check branches at
// phase boundaries, never per firing.
func BenchmarkTelemetryEnabled(b *testing.B) {
	p := compileBench(b, workloads.MustByName("fib-iterative").Source)
	d, err := p.Translate(Options{Schema: Schema2Opt})
	if err != nil {
		b.Fatal(err)
	}
	reg := NewTelemetry()
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(RunConfig{MemLatency: 4, Telemetry: reg}); err != nil {
			b.Fatal(err)
		}
	}
	if reg.Snapshot().OpenMetrics() == nil {
		b.Fatal("empty telemetry snapshot")
	}
}

// BenchmarkTelemetryEnabledSharded exercises the instrumented parallel
// phases: per-shard scratch timing plus the sequential fold.
func BenchmarkTelemetryEnabledSharded(b *testing.B) {
	p := compileBench(b, workloads.MustByName("fib-iterative").Source)
	d, err := p.Translate(Options{Schema: Schema2Opt})
	if err != nil {
		b.Fatal(err)
	}
	reg := NewTelemetry()
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(RunConfig{MemLatency: 4, Workers: 4, Telemetry: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynchLegalization measures the two-input legalization pass and
// its runtime effect.
func BenchmarkSynchLegalization(b *testing.B) {
	src := `
var a, c, d, e
alias a ~ e
alias c ~ e
alias d ~ e
e := a + c + d
a := e * 2
`
	p := compileBench(b, src)
	d, err := p.Translate(Options{Schema: Schema3})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, n := d.LegalizeSynchTrees(); n == 0 {
			b.Skip("no wide synchs")
		}
	}
}

// BenchmarkExperimentTables regenerates every EXPERIMENTS.md table.
func BenchmarkExperimentTables(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
