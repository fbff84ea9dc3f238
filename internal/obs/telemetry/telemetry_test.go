package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata goldens from the current renderer")

// syntheticRegistry builds a registry exercising every instrument kind
// and rendering rule: an unlabelled counter, a labelled counter, a
// gauge, a seconds histogram with labels, and a unitless depth
// histogram. Values are fixed so the render is byte-stable.
func syntheticRegistry() *Registry {
	r := NewRegistry()
	r.Family(Spec{Name: "ctdf_test_ops", Kind: KindCounter,
		Help: "operations with a \\ backslash in help"}).Series().Add(42)
	traffic := r.Family(Spec{Name: "ctdf_test_traffic", Kind: KindCounter,
		Labels: []string{"src", "dst"}, Sharded: true, Help: "tokens moved"})
	traffic.Series("0", "1").Add(7)
	traffic.Series("1", "0").Add(9)
	traffic.Series("seq", "0").Add(3)
	r.Family(Spec{Name: "ctdf_test_peak", Kind: KindGauge, Help: "high water"}).Series().SetMax(17)
	lat := r.Family(Spec{Name: "ctdf_test_phase_seconds", Kind: KindHistogram,
		Unit: "seconds", Buckets: TimeBuckets, Labels: []string{"phase"},
		Varying: true, Help: "phase wall time"})
	for _, ns := range []int64{500, 1500, 2_000_000, 30_000_000_000} {
		lat.Observe(ns, "fire")
	}
	lat.Observe(999, "select")
	depth := r.Family(Spec{Name: "ctdf_test_depth", Kind: KindHistogram,
		Buckets: []int64{0, 2, 8}, Help: "queue depth"})
	for _, d := range []int64{0, 1, 2, 3, 9} {
		depth.Observe(d)
	}
	return r
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	f := r.Family(SpecMachineCycles)
	if f != nil {
		t.Fatal("nil registry returned a family")
	}
	f.Series().Add(1) // all no-ops
	f.Observe(5)
	var s *Series
	s.Add(1)
	s.Set(2)
	s.SetMax(3)
	s.Observe(4, TimeBuckets)
	snap := r.Snapshot()
	if got := string(snap.OpenMetrics()); got != "# EOF\n" {
		t.Fatalf("empty snapshot render = %q", got)
	}
	if snap.MachineBreakdown().Workers != 0 {
		t.Fatal("empty snapshot reported workers")
	}
}

func TestInstrumentSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Family(SpecMachineFirings).Series()
	c.Add(3)
	c.Add(4)
	// Re-registering the same spec must return the same family so
	// repeated runs accumulate into one registry.
	if r.Family(SpecMachineFirings).Series() != c {
		t.Fatal("re-registration minted a new series")
	}
	g := r.Family(SpecMachineMatchPeak).Series()
	g.SetMax(10)
	g.SetMax(7)
	h := r.Family(SpecMachineMatchDepth)
	h.Observe(0)
	h.Observe(5)
	h.Observe(100000)
	snap := r.Snapshot()
	if got := snap.Family(SpecMachineFirings.Name).Get(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	if got := snap.Family(SpecMachineMatchPeak.Name).Get(); got != 10 {
		t.Fatalf("gauge = %d, want 10 (SetMax must not lower)", got)
	}
	hs := snap.Family(SpecMachineMatchDepth.Name).Series[0]
	if hs.Count != 3 || hs.Sum != 100005 {
		t.Fatalf("histogram count/sum = %d/%d", hs.Count, hs.Sum)
	}
	// depth 0 → bucket le=0; depth 5 → le=8; 100000 → +Inf.
	if hs.Buckets[0] != 1 || hs.Buckets[4] != 1 || hs.Buckets[len(hs.Buckets)-1] != 1 {
		t.Fatalf("bucket placement wrong: %v", hs.Buckets)
	}
}

func TestProjections(t *testing.T) {
	snap := syntheticRegistry().Snapshot()
	if n := len(snap.Families); n != 5 {
		t.Fatalf("families = %d", n)
	}
	stable := snap.Stable()
	for _, f := range stable.Families {
		if f.Varying {
			t.Fatalf("Stable kept varying family %s", f.Name)
		}
	}
	if len(stable.Families) != 4 {
		t.Fatalf("stable families = %d", len(stable.Families))
	}
	inv := snap.Invariant()
	for _, f := range inv.Families {
		if f.Varying || f.Sharded {
			t.Fatalf("Invariant kept %s", f.Name)
		}
	}
	if len(inv.Families) != 3 {
		t.Fatalf("invariant families = %d", len(inv.Families))
	}
}

// TestOpenMetricsGolden pins the exposition format byte-exactly, the
// same way the Chrome-trace and pprof exporters pin theirs.
func TestOpenMetricsGolden(t *testing.T) {
	got := syntheticRegistry().Snapshot().OpenMetrics()
	path := filepath.Join("testdata", "synthetic.om")
	if *updateGoldens {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("OpenMetrics render diverged from committed golden (%d bytes committed, %d produced); rerun with -update if the change is intentional",
			len(want), len(got))
	}
}

// TestOpenMetricsParses validates the render against a minimal
// hand-rolled parser of the exposition format: metadata before
// samples, suffix rules per kind, cumulative buckets, le/count
// agreement, terminal # EOF.
func TestOpenMetricsParses(t *testing.T) {
	fams := parseOpenMetrics(t, string(syntheticRegistry().Snapshot().OpenMetrics()))
	f, ok := fams["ctdf_test_traffic"]
	if !ok || f.typ != "counter" {
		t.Fatalf("traffic family missing or mistyped: %+v", f)
	}
	want := map[string]string{"0\x001": "7", "1\x000": "9", "seq\x000": "3"}
	for _, smp := range f.samples {
		key := smp.labels["src"] + "\x00" + smp.labels["dst"]
		if want[key] != smp.value {
			t.Fatalf("traffic sample %v = %s, want %s", smp.labels, smp.value, want[key])
		}
	}
	h := fams["ctdf_test_phase_seconds"]
	if h.unit != "seconds" {
		t.Fatalf("unit = %q", h.unit)
	}
	if fams["ctdf_test_ops"].samples[0].value != "42" {
		t.Fatal("counter value lost")
	}
}

// TestLocalFrontMatchesDirectUpdates: a series written through a Local
// front (plain-memory accumulation, periodic Flush) and with weighted
// observations ends up byte-identical to one written event by event.
func TestLocalFrontMatchesDirectUpdates(t *testing.T) {
	render := func(viaLocal bool) string {
		r := NewRegistry()
		ops := r.Family(Spec{Name: "ctdf_test_ops", Kind: KindCounter, Help: "ops"}).Series()
		depth := r.Family(Spec{Name: "ctdf_test_depth", Kind: KindHistogram,
			Buckets: []int64{0, 2, 8}, Help: "queue depth"}).Series()
		lo, ld := ops.Local(), depth.Local()
		for i, d := range []int64{0, 1, 2, 3, 9, 9, 9, 200} {
			if viaLocal {
				lo.Add(d)
				ld.Observe(d, []int64{0, 2, 8})
				if i%3 == 2 {
					lo.Flush()
					ld.Flush()
				}
			} else {
				ops.Add(d)
				depth.Observe(d, []int64{0, 2, 8})
			}
		}
		lo.Flush()
		ld.Flush()
		lo.Flush() // flushing twice folds nothing twice
		if viaLocal {
			depth.ObserveN(5, 3, []int64{0, 2, 8})
		} else {
			for i := 0; i < 3; i++ {
				depth.Observe(5, []int64{0, 2, 8})
			}
		}
		return string(r.Snapshot().OpenMetrics())
	}
	if direct, local := render(false), render(true); direct != local {
		t.Fatalf("Local front diverged from direct updates:\n--- direct\n%s--- local\n%s", direct, local)
	}
}
