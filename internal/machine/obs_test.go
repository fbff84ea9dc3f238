package machine

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ctdf/internal/obs"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// TestTraceGoldenByteCompatible pins the `-trace` output to the exact
// bytes the pre-obs inline formatter produced (the golden was captured
// from the seed implementation): rendering the trace from the run's
// record must not change a single byte.
func TestTraceGoldenByteCompatible(t *testing.T) {
	want, err := os.ReadFile("testdata/trace_running_example_l4.golden")
	if err != nil {
		t.Fatal(err)
	}
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	got, _ := traced(t, res.Graph, Config{MemLatency: 4})
	if got != string(want) {
		t.Errorf("trace output diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCollectorCountersMatchStats cross-checks the obs counters against
// the machine's own aggregate statistics on the running example.
func TestCollectorCountersMatchStats(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	col := obs.NewCollector(res.Graph, obs.Options{CriticalPath: true})
	out, err := Run(res.Graph, Config{MemLatency: 4, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	rep := col.Report(out.Stats.Cycles, out.Stats.Profile)
	if rep.Ops != int64(out.Stats.Ops) {
		t.Errorf("report ops %d != stats ops %d", rep.Ops, out.Stats.Ops)
	}
	if rep.MatchWaits != int64(out.Stats.Matches) {
		t.Errorf("report match waits %d != stats matches %d", rep.MatchWaits, out.Stats.Matches)
	}
	if rep.Cycles != out.Stats.Cycles {
		t.Errorf("report cycles %d != stats cycles %d", rep.Cycles, out.Stats.Cycles)
	}
	var consumed, emitted int64
	for _, ns := range rep.Nodes {
		consumed += ns.Consumed
		emitted += ns.Emitted
	}
	if consumed == 0 || emitted == 0 {
		t.Errorf("token counters empty: consumed %d emitted %d", consumed, emitted)
	}
	// Every token consumed was emitted by some node, except the initial
	// start tokens delivered at cycle 0.
	if consumed < emitted {
		t.Errorf("consumed %d < emitted %d: tokens out of thin air", consumed, emitted)
	}
	// The event stream carries one fire event per op and one wait event
	// per matching-store wait.
	var stream strings.Builder
	if err := obs.WriteEvents(&stream, col.Meta(), col.Record(), rep); err != nil {
		t.Fatal(err)
	}
	fires, waits := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(stream.String()), "\n") {
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		switch e.Type {
		case obs.EvFire:
			fires++
		case obs.EvWait:
			waits++
		}
	}
	if fires != out.Stats.Ops {
		t.Errorf("stream has %d fire events, stats ops %d", fires, out.Stats.Ops)
	}
	if waits != out.Stats.Matches {
		t.Errorf("stream has %d wait events, stats matches %d", waits, out.Stats.Matches)
	}
	// Histogram mass equals profiled cycles.
	var histCycles int
	for _, bin := range rep.Histogram {
		histCycles += bin.Cycles
	}
	if histCycles != len(out.Stats.Profile) {
		t.Errorf("histogram covers %d cycles, profile has %d", histCycles, len(out.Stats.Profile))
	}
	if rep.CriticalPath == nil {
		t.Fatal("critical path missing")
	}
}

// TestCriticalPathProperties property-tests the critical path over the
// whole workload suite, several schemas, latencies, and processor
// counts:
//
//  1. critical path length <= total cycles (it is a lower bound);
//  2. with unlimited processors the two are EQUAL (the machine issues
//     every enabled op immediately, so its schedule is the ideal one);
//  3. with P processors, Brent's bound: cycles <= ceil(ops/P) + critpath.
//
// Note the naive converse bound "cycles <= critpath x P" is false (one
// processor and N independent ops has cycles ~ N with a tiny critical
// path), which is why the Brent form is the one asserted here and
// documented in OBSERVABILITY.md.
func TestCriticalPathProperties(t *testing.T) {
	schemas := []translate.Options{
		{Schema: translate.Schema1},
		{Schema: translate.Schema2},
		{Schema: translate.Schema2Opt},
	}
	for _, w := range workloads.All() {
		for _, opt := range schemas {
			res := translateWorkload(t, w, opt)
			for _, lat := range []int{1, 4} {
				for _, procs := range []int{0, 1, 3} {
					col := obs.NewCollector(res.Graph, obs.Options{CriticalPath: true})
					out, err := Run(res.Graph, Config{MemLatency: lat, Processors: procs, Collector: col})
					if err != nil {
						t.Fatalf("%s/%v lat=%d P=%d: %v", w.Name, opt.Schema, lat, procs, err)
					}
					rep := col.Report(out.Stats.Cycles, out.Stats.Profile)
					cp := rep.CriticalPath
					if cp == nil {
						t.Fatalf("%s/%v: no critical path", w.Name, opt.Schema)
					}
					cycles := int64(out.Stats.Cycles)
					if cp.Length > cycles {
						t.Errorf("%s/%v lat=%d P=%d: critpath %d > cycles %d",
							w.Name, opt.Schema, lat, procs, cp.Length, cycles)
					}
					if procs == 0 && cp.Length != cycles {
						t.Errorf("%s/%v lat=%d P=0: critpath %d != cycles %d (should be exact)",
							w.Name, opt.Schema, lat, cp.Length, cycles)
					}
					if procs > 0 {
						ops := int64(out.Stats.Ops)
						brent := (ops+int64(procs)-1)/int64(procs) + cp.Length
						if cycles > brent {
							t.Errorf("%s/%v lat=%d P=%d: cycles %d > ceil(ops/P)+critpath = %d (ops %d, critpath %d)",
								w.Name, opt.Schema, lat, procs, cycles, brent, ops, cp.Length)
						}
					}
					// The chain must end at the end node and be internally
					// consistent: finishes nondecreasing, last = length.
					if n := len(cp.Steps); n > 0 {
						if cp.Steps[n-1].Kind != "end" {
							t.Errorf("%s/%v: critical path ends at %q, want end", w.Name, opt.Schema, cp.Steps[n-1].Kind)
						}
						if cp.Steps[n-1].Finish != cp.Length {
							t.Errorf("%s/%v: last finish %d != length %d", w.Name, opt.Schema, cp.Steps[n-1].Finish, cp.Length)
						}
						for i := 1; i < n; i++ {
							if cp.Steps[i].Finish < cp.Steps[i-1].Finish {
								t.Errorf("%s/%v: finish not monotone at step %d", w.Name, opt.Schema, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestCollectorDisabledIdenticalRun makes sure attaching a collector
// does not perturb execution: cycles, ops, and the final store are
// identical with observability on and off.
func TestCollectorDisabledIdenticalRun(t *testing.T) {
	for _, w := range workloads.All() {
		res := translateWorkload(t, w, translate.Options{Schema: translate.Schema2})
		plain, err := Run(res.Graph, Config{MemLatency: 2})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		col := obs.NewCollector(res.Graph, obs.Options{CriticalPath: true})
		observed, err := Run(res.Graph, Config{MemLatency: 2, Collector: col})
		if err != nil {
			t.Fatalf("%s observed: %v", w.Name, err)
		}
		if plain.Stats.Cycles != observed.Stats.Cycles || plain.Stats.Ops != observed.Stats.Ops {
			t.Errorf("%s: observation changed execution: cycles %d vs %d, ops %d vs %d",
				w.Name, plain.Stats.Cycles, observed.Stats.Cycles, plain.Stats.Ops, observed.Stats.Ops)
		}
		if plain.Store.Snapshot() != observed.Store.Snapshot() {
			t.Errorf("%s: observation changed the final store", w.Name)
		}
	}
}
