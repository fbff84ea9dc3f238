package machine

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/obs/telemetry"
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

// runAllocs is the allocation count of one Run of g under c.
func runAllocs(t *testing.T, g *dfg.Graph, c Config) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		if _, err := Run(g, c); err != nil {
			t.Fatal(err)
		}
	})
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
		c := Config{MemLatency: 4, Workers: workers}
		a400, a800 := runAllocs(t, g400, c), runAllocs(t, g800, c)
		if extra := a800 - a400; extra > perIter*400 {
			t.Errorf("workers=%d: 400 more iterations cost %.0f allocations (%.0f → %.0f), want <= %d per iteration",
				workers, extra, a400, a800, perIter)
		}
	}
}

// telemetryAllocSlack is how many more allocations a run may make with a
// telemetry registry attached than without: the probe's per-run set-up
// against an already populated registry (44 when the slack was set) and
// nothing per cycle or per firing, which is what a wall-clock overhead
// floor was once kept to catch.
const telemetryAllocSlack = 64

// TestRunAllocBudgetSmallPrograms bounds the allocations of one Run of
// four short programs, where per-run set-up is most of the count and one
// allocation per cycle or per firing multiplies it. A budget is the count
// measured when it was set × 1.25 + 16, taken from the -race build, which
// allocates more than the plain one and runs this test too. Allocation
// counts repeat to within one, so this gates what wall time on a shared
// host cannot.
func TestRunAllocBudgetSmallPrograms(t *testing.T) {
	plain := translate.Options{Schema: translate.Schema2Opt}
	elim := translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}
	fib := workloads.MustByName("fib-iterative")
	fibPlain := benchGraph(t, fib, plain, false)
	for _, c := range []struct {
		name   string
		g      *dfg.Graph
		cfg    Config
		budget float64
	}{
		// Measured: 101 allocations, 117 under -race; the optimized graph the same.
		{"fib-iterative/mem-elim", benchGraph(t, fib, elim, false), Config{MemLatency: 4}, 162},
		{"fib-iterative/mem-elim+opt", benchGraph(t, fib, elim, true), Config{MemLatency: 4}, 162},
		// 186, 199 under -race.
		{"nested-loops", benchGraph(t, workloads.MustByName("nested-loops"), plain, false), Config{}, 264},
		// 400, 567 under -race.
		{"random-16", benchGraph(t, workloads.Random(4242, 16, 3), plain, false), Config{}, 724},
		// 145 bare + 44, 166 + 44 under -race.
		{"fib-iterative+telemetry", fibPlain, Config{MemLatency: 4, Telemetry: telemetry.NewRegistry()},
			runAllocs(t, fibPlain, Config{MemLatency: 4}) + telemetryAllocSlack},
	} {
		got := runAllocs(t, c.g, c.cfg)
		if got > c.budget {
			t.Errorf("%s: Run allocates %.0f times, budget %.0f", c.name, got, c.budget)
		}
		t.Logf("%s: %.0f allocs per run (budget %.0f)", c.name, got, c.budget)
	}
}
