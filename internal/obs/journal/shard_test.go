package journal

import (
	"errors"
	"fmt"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// These tests pin the partitioned machine's contract at the journal level:
// the full causal record — every firing with its complete provenance
// deps, every matching-store park with its producer attribution, tag
// lineage, abort forensics — must be byte-identical between a one-worker
// run and a run at any worker count.

// diffParks compares the two journals' park lists field by field, tags
// rendered. Diff only checks the counts (parks are secondary to the
// firing DAG in the replay gate), so this is the test that holds park
// order and attribution over the partition.
func diffParks(t *testing.T, label string, want, got *Journal) {
	t.Helper()
	if len(want.Parks) != len(got.Parks) {
		t.Errorf("%s: park count diverged: sequential %d, sharded %d", label, len(want.Parks), len(got.Parks))
		return
	}
	for i := range want.Parks {
		a, b := want.Parks[i], got.Parks[i]
		ta, tb := want.Tags[a.Tag], got.Tags[b.Tag]
		a.Tag, b.Tag = 0, 0
		if a != b || ta != tb {
			t.Errorf("%s: park #%d diverged:\nsequential: %+v tag %q\nsharded:    %+v tag %q", label, i, a, ta, b, tb)
			return
		}
	}
}

// TestShardedJournalByteExact records the same workload × schema cell
// with one worker and at several worker counts, then demands the
// journals agree on every firing (node, cycle, cost, tag, full
// provenance deps) and on every park event.
// Producers and consumers land on different shards for essentially
// every arc, so this is the routing forensics test: if delivery to the
// owning shard perturbed match order, park attribution (Dep) or firing
// provenance would shift and Diff would catch it.
func TestShardedJournalByteExact(t *testing.T) {
	schemas := []translate.Options{
		{Schema: translate.Schema2},
		{Schema: translate.Schema2Opt},
	}
	for _, w := range workloads.All() {
		for _, opt := range schemas {
			w, opt := w, opt
			t.Run(fmt.Sprintf("%s/%v", w.Name, opt.Schema), func(t *testing.T) {
				res := translateWorkload(t, w, opt)
				mcfg := machine.Config{Processors: 2, MemLatency: 3}
				seq, _ := record(t, res.Graph, w.Name+"/seq", Config{Processors: 2, MemLatency: 3}, mcfg)
				for _, workers := range []int{2, 4, 8} {
					mcfg.Workers = workers
					jcfg := Config{Processors: 2, MemLatency: 3, Workers: workers}
					sh, _ := record(t, res.Graph, fmt.Sprintf("%s/w%d", w.Name, workers), jcfg, mcfg)
					if ds := Diff(seq, sh); len(ds) > 0 {
						for _, d := range ds {
							t.Errorf("W=%d: %s", workers, d)
						}
						return
					}
					diffParks(t, fmt.Sprintf("W=%d", workers), seq, sh)
				}
			})
		}
	}
}

// TestShardedAbortJournalByteExact aborts a runaway loop via MaxCycles
// with producers and consumers of the loop's tokens scattered across
// shards, and checks the aborted journals are byte-identical too: same
// firing prefix, same parks, same abort check at the same cycle. This is
// the abort-edge-case half of the cross-shard routing forensics.
func TestShardedAbortJournalByteExact(t *testing.T) {
	w := workloads.Workload{Name: "runaway", Source: "var x\nwhile x < 1 {\n  x := x - 1\n}\n"}
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Journal {
		jcfg := Config{MaxCycles: 150, Workers: workers}
		col := obs.NewCollector(res.Graph, obs.Options{CriticalPath: true})
		out, err := machine.Run(res.Graph, machine.Config{MaxCycles: 150, Collector: col, Workers: workers})
		if err == nil || !errors.Is(err, machcheck.CyclesExceeded) {
			t.Fatalf("W=%d: expected CyclesExceeded, got %v", workers, err)
		}
		return New(res.Graph, col, fmt.Sprintf("runaway/w%d", workers), jcfg, out.Stats.Cycles)
	}
	seq := run(1)
	if seq.AbortCheck == "" {
		t.Fatal("sequential abort was not journaled")
	}
	for _, workers := range []int{2, 4, 8} {
		sh := run(workers)
		if ds := Diff(seq, sh); len(ds) > 0 {
			for _, d := range ds {
				t.Errorf("W=%d: %s", workers, d)
			}
			continue
		}
		diffParks(t, fmt.Sprintf("W=%d", workers), seq, sh)
	}
}

// TestShardedReplayRoundTrip records under the sharded engine, then
// replays the journal — Replay re-executes under the journal's own
// recorded configuration, Workers included, so this checks the Workers
// field survives the Config capture and that a sharded re-execution
// reproduces a sharded recording divergence-free.
func TestShardedReplayRoundTrip(t *testing.T) {
	w := workloads.MustByName("fib-iterative")
	res := translateWorkload(t, w, translate.Options{Schema: translate.Schema2Opt})
	jcfg := Config{Processors: 2, MemLatency: 3, Workers: 4}
	j, _ := record(t, res.Graph, "fib/w4", jcfg, machine.Config{Processors: 2, MemLatency: 3, Workers: 4})
	if j.Config.Workers != 4 {
		t.Fatalf("journal lost Workers: %+v", j.Config)
	}
	rr, err := Replay(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Divergences) > 0 {
		t.Errorf("sharded replay diverged:\n%s", rr.Text())
	}
	if rr.Replayed.Config.Workers != 4 {
		t.Errorf("replayed journal lost Workers: %+v", rr.Replayed.Config)
	}
}
