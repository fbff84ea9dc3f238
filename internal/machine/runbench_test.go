package machine

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// benchGraph translates (and optionally optimizes) a workload.
func benchGraph(tb testing.TB, w workloads.Workload, o translate.Options, optimize bool) *dfg.Graph {
	tb.Helper()
	res, err := translate.Translate(cfg.MustBuild(w.Parse()), o)
	if err != nil {
		tb.Fatal(err)
	}
	if optimize {
		if _, err := opt.Run(res); err != nil {
			tb.Fatal(err)
		}
	}
	return res.Graph
}

var benchOutcome *Outcome

// BenchmarkMachineRun is the engine's deterministic cost ledger in
// miniature: the two program shapes of the run-* benchmark workloads
// (wide pure lanes with memory eliminated; narrow lanes on split-phase
// memory, sequential and sharded) and a fused structured program. Allocs
// repeat exactly; wall time is benchmark/'s job.
func BenchmarkMachineRun(b *testing.B) {
	wide := translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}
	plain := translate.Options{Schema: translate.Schema2Opt}
	cells := []struct {
		name string
		g    *dfg.Graph
		cfg  Config
	}{
		{"wide-64x400", benchGraph(b, workloads.Wide(64, 400), wide, false), Config{}},
		{"narrow-8x800-lat4", benchGraph(b, workloads.Wide(8, 800), plain, false), Config{MemLatency: 4}},
		{"narrow-8x800-lat4-w2", benchGraph(b, workloads.Wide(8, 800), plain, false), Config{MemLatency: 4, Workers: 2}},
		{"fused-structured-40", benchGraph(b, workloads.Random(1990, 40, 3), plain, true), Config{}},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Run(c.g, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchOutcome = out
			}
		})
	}
}

// TestRunAllocBudget is the count-first gate on the in-flight path: a run
// twice as long may allocate only what its extra iterations intern as
// tags — a constant per loop iteration — and nothing per cycle, on the
// sequential and the sharded engine alike.
func TestRunAllocBudget(t *testing.T) {
	const perIter = 8
	plain := translate.Options{Schema: translate.Schema2Opt}
	g400 := benchGraph(t, workloads.Wide(8, 400), plain, false)
	g800 := benchGraph(t, workloads.Wide(8, 800), plain, false)
	for _, workers := range []int{0, 2} {
		allocs := func(g *dfg.Graph) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Run(g, Config{MemLatency: 4, Workers: workers}); err != nil {
					t.Fatal(err)
				}
			})
		}
		a400, a800 := allocs(g400), allocs(g800)
		if extra := a800 - a400; extra > perIter*400 {
			t.Errorf("workers=%d: 400 more iterations cost %.0f allocations (%.0f → %.0f), want <= %d per iteration",
				workers, extra, a400, a800, perIter)
		}
	}
}
