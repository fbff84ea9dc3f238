package machine_test

import (
	"errors"
	"fmt"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/obs/journal"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// The journal half of the body-equivalence matrix: internal/obs/journal's
// own TestSharded* compare a one-worker journal with default runs at
// several worker counts, whose cycles all take the sequential body; here
// the same comparison runs with every cycle with work on the pooled body
// (grain 1) and with the bodies alternating inside a run (grain 8). An
// external test package, because the journal imports the machine.

// recordRun journals one run of g under c, which may abort.
func recordRun(g *dfg.Graph, c machine.Config) (*journal.Journal, error) {
	rec := journal.NewRecorder(g, "run", journal.Config{})
	c.Collector = obs.NewCollector(g, obs.Options{CriticalPath: true, Journal: rec})
	out, err := machine.Run(g, c)
	if out == nil {
		return nil, err
	}
	return rec.Finish(out.Stats.Cycles), err
}

// sameJournal demands got agree with want on every firing (node, cycle,
// cost, tag, full provenance deps), on the abort record and on every
// matching-store park, field by field.
func sameJournal(t *testing.T, label string, want, got *journal.Journal) {
	t.Helper()
	for _, d := range journal.Diff(want, got) {
		t.Errorf("%s: %s", label, d)
	}
	if len(want.Parks) != len(got.Parks) {
		t.Errorf("%s: park count diverged: one worker %d, sharded %d", label, len(want.Parks), len(got.Parks))
		return
	}
	for i := range want.Parks {
		if want.Parks[i] != got.Parks[i] {
			t.Errorf("%s: park #%d diverged:\none worker: %+v\nsharded:    %+v", label, i, want.Parks[i], got.Parks[i])
			return
		}
	}
}

// TestPooledJournalByteExact records every workload × schema cell with one
// worker and at several worker counts. Producers and consumers land on
// different shards for essentially every arc, so a cross-shard delivery
// that perturbed match order would shift park attribution or firing
// provenance.
func TestPooledJournalByteExact(t *testing.T) {
	for _, w := range workloads.All() {
		for _, schema := range []translate.Schema{translate.Schema2, translate.Schema2Opt} {
			t.Run(fmt.Sprintf("%s/%v", w.Name, schema), func(t *testing.T) {
				res, err := translate.Translate(cfg.MustBuild(w.Parse()), translate.Options{Schema: schema})
				if err != nil {
					t.Fatal(err)
				}
				c := machine.Config{Processors: 2, MemLatency: 3}
				seq, err := recordRun(res.Graph, c)
				if err != nil {
					t.Fatal(err)
				}
				for _, grain := range []int{1, 8} {
					t.Cleanup(machine.SetPoolGrain(grain))
					for _, workers := range []int{2, 4, 8} {
						c.Workers = workers
						got, err := recordRun(res.Graph, c)
						if err != nil {
							t.Fatalf("W=%d grain=%d: %v", workers, grain, err)
						}
						sameJournal(t, fmt.Sprintf("W=%d grain=%d", workers, grain), seq, got)
					}
				}
			})
		}
	}
}

// TestPooledAbortJournalByteExact aborts a runaway loop via MaxCycles: the
// aborted journals — firing prefix, parks, abort check and cycle — must
// agree too.
func TestPooledAbortJournalByteExact(t *testing.T) {
	w := workloads.Workload{Name: "runaway", Source: "var x\nwhile x < 1 {\n  x := x - 1\n}\n"}
	res, err := translate.Translate(cfg.MustBuild(w.Parse()), translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *journal.Journal {
		j, err := recordRun(res.Graph, machine.Config{MaxCycles: 150, Workers: workers})
		if !errors.Is(err, machcheck.CyclesExceeded) {
			t.Fatalf("W=%d: expected CyclesExceeded, got %v", workers, err)
		}
		return j
	}
	seq := run(1)
	if seq.AbortCheck == "" {
		t.Fatal("one-worker abort was not journaled")
	}
	for _, grain := range []int{1, 8} {
		t.Cleanup(machine.SetPoolGrain(grain))
		for _, workers := range []int{2, 4, 8} {
			sameJournal(t, fmt.Sprintf("W=%d grain=%d", workers, grain), seq, run(workers))
		}
	}
}
