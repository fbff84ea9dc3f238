package journal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// The committed export goldens pin the byte-exact Chrome-trace and pprof
// encodings of the running example: both exporters are deterministic
// (sorted JSON keys, lane assignment fixed by cycle order, gzip with a
// zeroed header), so any encoding change shows up as a byte diff.
// Regenerate with:
//
//	go test ./internal/obs/journal -run TestExportGoldens -update
var updateGoldens = flag.Bool("update", false, "rewrite testdata export goldens from the current exporters")

// goldenJournal records the running example under the configuration the
// OBSERVABILITY.md walkthrough uses: schema2-opt, memory latency 4,
// unlimited processors.
func goldenJournal(t testing.TB) *Journal {
	t.Helper()
	w, err := workloads.ByName("running-example")
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector(res.Graph, obs.Options{CriticalPath: true})
	out, err := machine.Run(res.Graph, machine.Config{MemLatency: 4, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	return New(res.Graph, col, "schema2-opt", Config{MemLatency: 4}, out.Stats.Cycles)
}

func checkExportGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: export diverged from committed golden (%d bytes committed, %d produced); rerun with -update if the change is intentional",
			name, len(want), len(got))
	}
}

// TestExportGoldens locks both exporters to their committed byte-exact
// output on the running example. The exporters must stay deterministic:
// two encodings of the same journal are compared first, so a
// nondeterminism bug is reported as such rather than as a golden diff.
func TestExportGoldens(t *testing.T) {
	j := goldenJournal(t)

	var trace1, trace2 bytes.Buffer
	if err := j.WriteChromeTrace(&trace1); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteChromeTrace(&trace2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trace1.Bytes(), trace2.Bytes()) {
		t.Fatal("Chrome-trace export is nondeterministic")
	}
	checkExportGolden(t, "running-example.trace.json", trace1.Bytes())

	var prof1, prof2 bytes.Buffer
	if err := j.WritePprof(&prof1); err != nil {
		t.Fatal(err)
	}
	if err := j.WritePprof(&prof2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prof1.Bytes(), prof2.Bytes()) {
		t.Fatal("pprof export is nondeterministic")
	}
	checkExportGolden(t, "running-example.pprof.pb.gz", prof1.Bytes())
}
