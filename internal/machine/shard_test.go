package machine

import (
	"errors"
	"fmt"
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

// shardWorkerCounts are the worker counts the byte-exactness tests pin;
// 2 and 3 stress uneven partitions, 8 leaves most shards of a small
// program with a handful of nodes.
var shardWorkerCounts = []int{2, 3, 4, 8}

// TestShardedObservablyIdentical pins the partitioned machine's contract:
// any worker count must reproduce the one-worker run byte-for-byte —
// snapshot, cycle count, op counts, matching statistics, and the
// per-node firing vector — across every workload × golden config cell.
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
				for _, workers := range shardWorkerCounts {
					col := obs.NewCollector(res.Graph, obs.Options{})
					out, err := Run(res.Graph, Config{
						Processors: gc.Processors,
						MemLatency: gc.MemLatency,
						Collector:  col,
						Workers:    workers,
					})
					if err != nil {
						t.Fatalf("W=%d: %v", workers, err)
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
						t.Errorf("W=%d diverged from sequential:\n%s", workers, d)
					}
				}
			})
		}
	}
}

// TestShardedCriticalPathIdentical checks the firing DAG over the
// partition: producer ids ride on tokens into whichever shard owns their
// destination, so the recorded DAG — and therefore the extracted critical
// path — must be identical to the one-worker run's at any worker count,
// on the translated graph and on the optimized one (fused trees).
func TestShardedCriticalPathIdentical(t *testing.T) {
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

// TestShardedErrorsMatchSequential checks that an abnormal end over the
// partition surfaces as in the one-worker run — the identical typed
// machine check with the identical partial statistics: an operator fault
// (division by zero); and the delivered-token budget, which stops the run
// at the token that crosses it — in the middle of the 1,400 start tokens,
// or, with 40 processors and a budget of 1,408, eight tokens into the
// first cycle's boundary delivery, or, on separately compiled procedures,
// between the three tokens the third of a cycle's four Apply firings
// emits on its three parameter ports.
func TestShardedErrorsMatchSequential(t *testing.T) {
	div0 := workloads.Workload{Name: "div0", Source: "var x, y\nx := 1 / y\n"}
	wide := benchGraph(t, workloads.Wide(700, 4), translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}, false)
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
		{"token-budget/start", wide, Config{MaxOps: 1}},
		{"token-budget/start-late", wide, Config{MaxOps: 40}},
		{"token-budget/first-cycle", wide, Config{MaxOps: 48, Processors: 40}},
		{"token-budget/first-cycle-linked", linked.Graph, Config{MaxOps: 4, Processors: 4}},
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
// diagnostics, partial statistics — must come out exactly as with one
// worker.
func TestShardedAbortMatchesSequential(t *testing.T) {
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

// TestShardedDeadlineAborts checks the wall-clock deadline fires over the
// partition too (the abort cycle is wall-clock dependent, so only the
// check type is pinned).
func TestShardedDeadlineAborts(t *testing.T) {
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
// a function of (seed, W) alone: a repeated run must reproduce the
// statistics exactly.
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
			snap8, fires8, stats8 := run(8)
			if snap1 != snap8 {
				t.Errorf("snapshot diverged between W=1 and W=8:\nW=1: %s\nW=8: %s", snap1, snap8)
			}
			if fmt.Sprint(fires1) != fmt.Sprint(fires8) {
				t.Errorf("firing vector diverged between W=1 and W=8:\nW=1: %v\nW=8: %v", fires1, fires8)
			}
			snapR, firesR, statsR := run(8)
			if snapR != snap8 || fmt.Sprint(firesR) != fmt.Sprint(fires8) || fmt.Sprint(statsR) != fmt.Sprint(stats8) {
				t.Error("repeated W=8 seeded run was not deterministic")
			}
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
