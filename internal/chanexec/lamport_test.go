package chanexec_test

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/chanexec"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/obs/journal"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// TestLamportClocksMatchMachineCausalDepth asserts that the channel
// engine's Lamport logical timestamps — each firing stamped
// max(operand clocks)+1, with no global clock anywhere — agree with the
// causal depths computed from the machine engine's provenance journal
// on every workload and schema. Both quantities are per-firing
// properties of the determinate dataflow graph, so the per-node maxima
// must be identical even though one engine is cycle-driven and the
// other free-running; and the machine's journal must linearize: every
// producer firing finishes no later than its consumer issues, i.e. the
// partial causal order embeds into the machine's total cycle order.
func TestLamportClocksMatchMachineCausalDepth(t *testing.T) {
	schemas := []translate.Options{
		{Schema: translate.Schema1},
		{Schema: translate.Schema2},
		{Schema: translate.Schema2Opt},
	}
	for _, w := range workloads.All() {
		for _, opt := range schemas {
			g := cfg.MustBuild(w.Parse())
			res, err := translate.Translate(g, opt)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}

			counters := obs.NewNodeCounters(res.Graph.NumNodes())
			if _, err := chanexec.Run(res.Graph, chanexec.Config{Counters: counters}); err != nil {
				t.Fatalf("%s/%v chanexec: %v", w.Name, opt.Schema, err)
			}
			clocks := counters.Clocks()

			for _, procs := range []int{0, 2} {
				col := obs.NewCollector(res.Graph, obs.Options{CriticalPath: true})
				out, err := machine.Run(res.Graph, machine.Config{Processors: procs, MemLatency: 2, Collector: col})
				if err != nil {
					t.Fatalf("%s/%v machine: %v", w.Name, opt.Schema, err)
				}
				j := journal.New(res.Graph, col, w.Name, journal.Config{Processors: procs, MemLatency: 2}, out.Stats.Cycles)

				if err := j.CheckLinearization(); err != nil {
					t.Errorf("%s/%v P=%d: %v", w.Name, opt.Schema, procs, err)
				}
				depths := j.NodeMaxDepths()
				if len(depths) != len(clocks) {
					t.Fatalf("%s/%v: node counts differ: %d vs %d", w.Name, opt.Schema, len(depths), len(clocks))
				}
				for id := range depths {
					if depths[id] != clocks[id] {
						t.Errorf("%s/%v P=%d: node %s causal depth %d on machine, Lamport clock %d on chanexec",
							w.Name, opt.Schema, procs, res.Graph.Label(res.Graph.Nodes[id]), depths[id], clocks[id])
					}
				}
			}
		}
	}
}
