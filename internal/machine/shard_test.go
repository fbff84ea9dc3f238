package machine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/obs"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// poolGrains are the poolGrain settings the body-equivalence tests run
// at: every cycle with work pooled, the two bodies alternating inside one
// run (the suite's programs are a few firings wide), every cycle on the
// sequential body — the default.
var poolGrains = []int{1, 8, math.MaxInt}

// setPoolGrain overrides poolGrain for the rest of the test; 1 drives
// every cycle with enabled work through the worker pool and the
// cross-shard merges, however narrow.
func setPoolGrain(tb testing.TB, grain int) {
	tb.Helper()
	old := poolGrain
	poolGrain = grain
	tb.Cleanup(func() { poolGrain = old })
}

// withPoolGrain runs f with poolGrain set to grain.
func withPoolGrain(grain int, f func()) {
	defer func(old int) { poolGrain = old }(poolGrain)
	poolGrain = grain
	f()
}

// atEachGrain runs f once per poolGrains entry with poolGrain set to it.
func atEachGrain(f func(grain int)) {
	for _, grain := range poolGrains {
		withPoolGrain(grain, func() { f(grain) })
	}
}

// shardWorkerCounts are the worker counts the byte-exactness tests pin;
// 2 and 3 stress uneven partitions, 8 exceeds the host's cores on CI so
// the pool multiplexes shards onto fewer goroutines.
var shardWorkerCounts = []int{2, 3, 4, 8}

// TestShardedObservablyIdentical pins the partitioned machine's contract:
// any worker count, with its cycles on either body or alternating between
// them (poolGrains), must reproduce the one-worker run byte-for-byte —
// snapshot, cycle count, op counts, matching statistics, and the
// per-node firing vector — across every workload × golden config cell.
// The whole suite runs under -race in CI (scripts/verify.sh), which is
// what holds the parallel phases to the shared-nothing discipline.
func TestShardedObservablyIdentical(t *testing.T) {
	for _, w := range workloads.All() {
		for _, gc := range goldenConfigs() {
			w, gc := w, gc
			t.Run(w.Name+"/"+gc.Name, func(t *testing.T) {
				seq := goldenRun(t, w, gc)
				g := cfg.MustBuild(w.Parse())
				res, err := translate.Translate(g, gc.Opt)
				if err != nil {
					t.Fatalf("translate: %v", err)
				}
				atEachGrain(func(grain int) {
					for _, workers := range shardWorkerCounts {
						col := obs.NewCollector(res.Graph, obs.Options{})
						out, err := Run(res.Graph, Config{
							Processors: gc.Processors,
							MemLatency: gc.MemLatency,
							Collector:  col,
							Workers:    workers,
						})
						if err != nil {
							t.Fatalf("W=%d grain=%d: %v", workers, grain, err)
						}
						rep := col.Report(out.Stats.Cycles, nil)
						got := goldenCell{
							Snapshot:       out.Store.Snapshot(),
							Cycles:         out.Stats.Cycles,
							Ops:            out.Stats.Ops,
							MemOps:         out.Stats.MemOps,
							Matches:        out.Stats.Matches,
							MaxParallelism: out.Stats.MaxParallelism,
							PeakMatchStore: out.Stats.PeakMatchStore,
							Firings:        rep.NodeFirings(),
						}
						if d := diffCell(seq, got); d != "" {
							t.Errorf("W=%d grain=%d diverged from sequential:\n%s", workers, grain, d)
						}
					}
				})
			})
		}
	}
}

// TestShardedCriticalPathIdentical checks the pooled body's firing-DAG id
// precompute: pure firings stamp their tokens with dagBase+gi before Fire
// runs, so the recorded DAG — and therefore the extracted critical path —
// must be identical to the one-worker run's at any worker count, on the
// translated graph and on the optimized one (fused trees retire
// sequentially; nothing else drives them through the pool).
func TestShardedCriticalPathIdentical(t *testing.T) {
	setPoolGrain(t, 1)
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, optimize := range []bool{false, true} {
				g := benchGraph(t, w, translate.Options{Schema: translate.Schema2Opt}, optimize)
				run := func(workers int) *obs.CriticalPath {
					col := obs.NewCollector(g, obs.Options{CriticalPath: true})
					out, err := Run(g, Config{MemLatency: 3, Collector: col, Workers: workers})
					if err != nil {
						t.Fatalf("W=%d: %v", workers, err)
					}
					return col.Report(out.Stats.Cycles, nil).CriticalPath
				}
				seq := run(1)
				for _, workers := range shardWorkerCounts {
					got := run(workers)
					if seq == nil || got == nil {
						t.Fatalf("W=%d: missing critical path (seq=%v got=%v)", workers, seq, got)
					}
					if seq.Length != got.Length || seq.Ops != got.Ops {
						t.Errorf("W=%d optimize=%v critical path diverged: sequential length=%d ops=%d, sharded length=%d ops=%d",
							workers, optimize, seq.Length, seq.Ops, got.Length, got.Ops)
					}
				}
			}
		})
	}
}

// TestShardedErrorsMatchSequential checks that an abnormal end inside a
// pooled cycle surfaces as in the one-worker run — the identical typed
// machine check with the identical partial statistics: a fire-phase
// operator fault (division by zero), first in issue order even though
// shard workers evaluate the batch out of order; and the delivered-token
// budget, which stops the run at the token that crosses it — in the
// middle of the 1,400 start tokens, or, with 40 processors and a budget
// of 1,408, eight tokens into the delivery of the first pooled cycle, or,
// on separately compiled procedures, between the three tokens the third
// of a cycle's four Apply firings emits on its three parameter ports
// (impure, multi-port: the retire pass's sequence keys).
func TestShardedErrorsMatchSequential(t *testing.T) {
	setPoolGrain(t, 1)
	div0 := workloads.Workload{Name: "div0", Source: "var x, y\nx := 1 / y\n"}
	wide := translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}
	var vars []string
	var calls strings.Builder
	for k := 0; k < 350; k++ {
		vars = append(vars, fmt.Sprintf("a%d, b%d, c%d", k, k, k))
		fmt.Fprintf(&calls, "call f(a%d, b%d, c%d)\n", k, k, k)
	}
	src := "var " + strings.Join(vars, ", ") + "\nproc f(x, y, z) {\n  z := x + y\n  x := x * 2\n}\n" + calls.String()
	linked, err := translate.TranslateLinked(workloads.Workload{Name: "calls", Source: src}.Parse())
	if err != nil {
		t.Fatalf("translate linked: %v", err)
	}
	for _, c := range []struct {
		name string
		g    *dfg.Graph
		cfg  Config
	}{
		{"div0", benchGraph(t, div0, translate.Options{Schema: translate.Schema2Opt}, false), Config{}},
		{"token-budget/start", benchGraph(t, workloads.Wide(700, 4), wide, false), Config{MaxOps: 1}},
		{"token-budget/start-late", benchGraph(t, workloads.Wide(700, 4), wide, false), Config{MaxOps: 40}},
		{"token-budget/pooled-cycle", benchGraph(t, workloads.Wide(700, 4), wide, false), Config{MaxOps: 48, Processors: 40}},
		{"token-budget/pooled-cycle-linked", linked.Graph, Config{MaxOps: 4, Processors: 4}},
	} {
		seq, seqErr := Run(c.g, c.cfg)
		if seqErr == nil {
			t.Fatalf("%s: expected the one-worker run to abort", c.name)
		}
		for _, workers := range shardWorkerCounts {
			c.cfg.Workers = workers
			got, gotErr := Run(c.g, c.cfg)
			if gotErr == nil {
				t.Fatalf("%s W=%d: expected abort", c.name, workers)
			}
			if seqErr.Error() != gotErr.Error() {
				t.Errorf("%s W=%d error text diverged:\nseq: %v\ngot: %v", c.name, workers, seqErr, gotErr)
			}
			if (seq == nil) != (got == nil) {
				t.Fatalf("%s W=%d: partial outcome %v, sequential %v", c.name, workers, got != nil, seq != nil)
			}
			if seq != nil && fmt.Sprint(seq.Stats) != fmt.Sprint(got.Stats) {
				t.Errorf("%s W=%d partial stats diverged:\nseq: %+v\ngot: %+v", c.name, workers, seq.Stats, got.Stats)
			}
		}
	}
}

// TestShardedAbortMatchesSequential drives a runaway loop into the
// MaxCycles abort: producers and consumers of the loop's tokens sit on
// different shards, and the abort — cycle number, stuck-token
// diagnostics, partial statistics — must come out of pooled cycles
// exactly as with one worker.
func TestShardedAbortMatchesSequential(t *testing.T) {
	setPoolGrain(t, 1)
	w := workloads.Workload{Name: "runaway", Source: "var x\nwhile x < 1 {\n  x := x - 1\n}\n"}
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	run := func(workers int) (Stats, error) {
		out, err := Run(res.Graph, Config{MaxCycles: 200, Workers: workers})
		if out == nil {
			t.Fatalf("W=%d: aborted runs must still return a partial outcome", workers)
		}
		return out.Stats, err
	}
	seqStats, seqErr := run(1)
	if seqErr == nil || !errors.Is(seqErr, machcheck.CyclesExceeded) {
		t.Fatalf("expected CyclesExceeded, got %v", seqErr)
	}
	for _, workers := range shardWorkerCounts {
		gotStats, gotErr := run(workers)
		if gotErr == nil || gotErr.Error() != seqErr.Error() {
			t.Errorf("W=%d abort diverged:\nseq: %v\ngot: %v", workers, seqErr, gotErr)
		}
		if fmt.Sprint(seqStats) != fmt.Sprint(gotStats) {
			t.Errorf("W=%d partial stats diverged:\nseq: %+v\ngot: %+v", workers, seqStats, gotStats)
		}
	}
}

// TestShardedDeadlineAborts checks the wall-clock deadline fires inside
// pooled cycles too (the abort cycle is wall-clock dependent, so
// only the check type is pinned).
func TestShardedDeadlineAborts(t *testing.T) {
	setPoolGrain(t, 1)
	w := workloads.MustByName("fib-iterative")
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	out, err := Run(res.Graph, Config{Deadline: time.Nanosecond, Workers: 4})
	if err == nil || !errors.Is(err, machcheck.Deadline) {
		t.Fatalf("expected Deadline abort, got %v", err)
	}
	if out == nil {
		t.Fatal("deadline abort must return a partial outcome")
	}
}

// TestShardedSeededRandomDeterminacy is the seeded-random fix's
// regression test: per-shard RNG streams are derived from (seed, shard),
// so W=1 and W=8 explore different schedules from the same seed — but
// dataflow determinacy demands the observables that matter agree: the
// final store and the per-node firing vector. The W=8 schedule itself is
// a function of (seed, W) alone: a repeated run, and a run with its
// cycles on the other body (poolGrains), must reproduce the statistics
// exactly — both bodies draw from the shards' streams alike.
func TestShardedSeededRandomDeterminacy(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			g := cfg.MustBuild(w.Parse())
			res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
			if err != nil {
				t.Fatalf("translate: %v", err)
			}
			run := func(workers int) (string, []int64, Stats) {
				col := obs.NewCollector(res.Graph, obs.Options{})
				out, err := Run(res.Graph, Config{MemLatency: 2, RandomSeed: 42, Collector: col, Workers: workers})
				if err != nil {
					t.Fatalf("W=%d: %v", workers, err)
				}
				return out.Store.Snapshot(), col.Report(out.Stats.Cycles, nil).NodeFirings(), out.Stats
			}
			snap1, fires1, _ := run(1)
			var first Stats
			atEachGrain(func(grain int) {
				snap8, fires8, stats8 := run(8)
				if snap1 != snap8 {
					t.Errorf("grain=%d: snapshot diverged between W=1 and W=8:\nW=1: %s\nW=8: %s", grain, snap1, snap8)
				}
				if fmt.Sprint(fires1) != fmt.Sprint(fires8) {
					t.Errorf("grain=%d: firing vector diverged between W=1 and W=8:\nW=1: %v\nW=8: %v", grain, fires1, fires8)
				}
				snapR, firesR, statsR := run(8)
				if snapR != snap8 || fmt.Sprint(firesR) != fmt.Sprint(fires8) || fmt.Sprint(statsR) != fmt.Sprint(stats8) {
					t.Errorf("grain=%d: repeated W=8 seeded run was not deterministic", grain)
				}
				if grain == poolGrains[0] {
					first = stats8
				} else if fmt.Sprint(first) != fmt.Sprint(stats8) {
					t.Errorf("grain=%d: W=8 seeded schedule differs from grain=%d's:\n%+v\n%+v", grain, poolGrains[0], stats8, first)
				}
			})
		})
	}
}

// TestShardedWorkersValidation pins the Workers knob's edges: negative
// rejected, absurd counts capped rather than honored.
func TestShardedWorkersValidation(t *testing.T) {
	w := workloads.MustByName("fib-iterative")
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if _, err := Run(res.Graph, Config{Workers: -1}); !errors.Is(err, machcheck.InvalidConfig) {
		t.Errorf("Workers=-1: want InvalidConfig, got %v", err)
	}
	if _, err := Run(res.Graph, Config{Workers: 100000}); err != nil {
		t.Errorf("Workers=100000 should cap and run, got %v", err)
	}
}
