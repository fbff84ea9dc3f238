package machine

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

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

// runBytes is the number of bytes one Run of g under c allocates.
func runBytes(t *testing.T, g *dfg.Graph, c Config) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(g, c); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
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

// BenchmarkLaneSweep is the machine's width sweep: workloads.Wide at
// constant total work (lanes × iterations = 65 536, about 0.85 M firings)
// from 4 lanes to 256, so the firings stay the same while per-node state
// grows 64-fold, 66 to 4 098 nodes. It reports ns per firing and firings
// per cycle; ROADMAP item 7 records what it read.
func BenchmarkLaneSweep(b *testing.B) {
	wide := translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}
	const work = 1 << 16
	for _, lanes := range []int{4, 16, 64, 256} {
		g := benchGraph(b, workloads.Wide(lanes, work/lanes), wide, false)
		b.Run(fmt.Sprintf("lanes-%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := Run(g, Config{})
				if err != nil {
					b.Fatal(err)
				}
				benchOutcome = out
			}
			st := benchOutcome.Stats
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.Ops), "ns/firing")
			b.ReportMetric(float64(st.Ops)/float64(st.Cycles), "firings/cycle")
			b.ReportMetric(float64(len(g.Nodes)), "nodes")
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

// shardAllocAllowance is how many more allocations a run may make per
// shard past the first: its state, its queue's two bitmaps and its
// free-list table, and the first growth of its arena and free lists (7
// per shard on fib-iterative when it was set).
const shardAllocAllowance = 8

// TestRunAllocBudgetSmallPrograms bounds the allocations of one Run of
// four short programs, where per-run set-up is most of the count and one
// allocation per cycle or per firing multiplies it. A budget is the count
// measured when it was set × 1.25 + 16, taken from the -race build, which
// allocates more than the plain one and runs this test too; with four
// workers a run gets shardAllocAllowance more per extra shard, and may
// not allocate one bucket table's worth of bytes more than with one — the
// shards share the table. Allocation counts repeat to within one, so this
// gates what wall time on a shared host cannot.
func TestRunAllocBudgetSmallPrograms(t *testing.T) {
	plain := translate.Options{Schema: translate.Schema2Opt}
	elim := translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}
	fib := workloads.MustByName("fib-iterative")
	for _, c := range []struct {
		name   string
		g      *dfg.Graph
		cfg    Config
		budget float64
	}{
		// Measured with the operator table built once per graph: 95
		// allocations, 107 under -race; the optimized graph the same.
		{"fib-iterative/mem-elim", benchGraph(t, fib, elim, false), Config{MemLatency: 4}, 150},
		{"fib-iterative/mem-elim+opt", benchGraph(t, fib, elim, true), Config{MemLatency: 4}, 150},
		// 180, 190 under -race.
		{"nested-loops", benchGraph(t, workloads.MustByName("nested-loops"), plain, false), Config{}, 254},
		// 390, 551 under -race.
		{"random-16", benchGraph(t, workloads.Random(4242, 16, 3), plain, false), Config{}, 705},
	} {
		for _, workers := range []int{1, 4} {
			c.cfg.Workers = workers
			budget := c.budget + float64(workers-1)*shardAllocAllowance
			got := runAllocs(t, c.g, c.cfg)
			if got > budget {
				t.Errorf("%s workers=%d: Run allocates %.0f times, budget %.0f", c.name, workers, got, budget)
			}
			t.Logf("%s workers=%d: %.0f allocs per run (budget %.0f)", c.name, workers, got, budget)
		}
	}
	// The shards share one bucket table, the bulk of a run's set-up on a
	// graph this size: four workers may not cost a table's bytes more.
	wide := benchGraph(t, workloads.Wide(64, 4), elim, false)
	one, four := runBytes(t, wide, Config{}), runBytes(t, wide, Config{Workers: 4})
	table := uint64(len(wide.Nodes)) * uint64(unsafe.Sizeof(bucket{}))
	if four >= one+table {
		t.Errorf("wide-64x4: Run allocates %d bytes with four workers, %d with one: a %d-byte bucket table more", four, one, table)
	}
	t.Logf("wide-64x4: %d bytes per run with one worker, %d with four (bucket table %d)", one, four, table)
	// A run with a reused registry may allocate telemetryAllocSlack more
	// than the bare run: 145 bare + 44, 166 + 44 under -race.
	fibPlain := benchGraph(t, fib, plain, false)
	budget := runAllocs(t, fibPlain, Config{MemLatency: 4}) + telemetryAllocSlack
	if got := runAllocs(t, fibPlain, Config{MemLatency: 4, Telemetry: telemetry.NewRegistry()}); got > budget {
		t.Errorf("fib-iterative+telemetry: Run allocates %.0f times, budget %.0f", got, budget)
	}
}
