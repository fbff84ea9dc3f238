package ctdf

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ctdf/internal/workloads"
)

// allSchemas is the full schema matrix for the clean-vet sweeps.
var allSchemas = []Schema{Schema1, Schema2, Schema2Opt, Schema3, Schema3Opt}

// TestVetCleanWorkloads: every committed workload must vet clean under
// every schema (procedure workloads under linked translation). This is
// the library-level acceptance gate; internal/vet carries the wider
// option-matrix and mutation tests.
func TestVetCleanWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		p, err := Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if p.HasProcedures() {
			d, err := p.TranslateLinked()
			if err != nil {
				t.Fatalf("%s: linked: %v", w.Name, err)
			}
			if rep := d.Vet(); rep.Errors > 0 {
				t.Errorf("%s/linked: %d errors:\n%s", w.Name, rep.Errors, rep)
			}
			continue
		}
		for _, s := range allSchemas {
			d, err := p.Translate(Options{Schema: s})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, s, err)
			}
			if rep := d.Vet(); !rep.Clean() {
				t.Errorf("%s/%v: not clean:\n%s", w.Name, s, rep)
			}
		}
	}
}

// srcBlockRe matches the backquoted program literals the examples embed
// (`const src = ...` and friends).
var srcBlockRe = regexp.MustCompile("(?s)= `\n(.*?)`")

// TestVetCleanExamples extracts every embedded program from
// examples/*/main.go and vets its translations: the documentation's
// programs are part of the verified surface.
func TestVetCleanExamples(t *testing.T) {
	files, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	programs := 0
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range srcBlockRe.FindAllStringSubmatch(string(b), -1) {
			src := m[1]
			p, err := Compile(src)
			if err != nil {
				continue // not a program literal (some examples embed graph text)
			}
			programs++
			if p.HasProcedures() {
				d, err := p.TranslateLinked()
				if err != nil {
					t.Errorf("%s: linked: %v", file, err)
					continue
				}
				if rep := d.Vet(); rep.Errors > 0 {
					t.Errorf("%s/linked: %d errors:\n%s", file, rep.Errors, rep)
				}
				continue
			}
			for _, s := range allSchemas {
				d, err := p.Translate(Options{Schema: s})
				if err != nil {
					continue // example may target a specific schema
				}
				if rep := d.Vet(); !rep.Clean() {
					t.Errorf("%s/%v: not clean:\n%s", file, s, rep)
				}
			}
		}
	}
	if programs < len(files)-2 {
		t.Fatalf("only %d of %d example files yielded a compilable program; extraction regex lost coverage", programs, len(files))
	}
}

// TestVetLoadedGraph: a graph reloaded from its textual form loses its
// translation metadata; vet must still run the graph-level passes and
// report the translation-validation passes as skipped, not as failures.
func TestVetLoadedGraph(t *testing.T) {
	p, err := Compile(workloads.MustByName("running-example").Source)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Translate(Options{Schema: Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Vet()
	if !rep.Clean() || len(rep.Skipped) != 0 {
		t.Fatalf("direct translation: want clean with no skips, got:\n%s", rep)
	}

	reloaded, err := LoadDataflow(strings.NewReader(d.Text()))
	if err != nil {
		t.Fatal(err)
	}
	rep = reloaded.Vet()
	if rep.Errors > 0 {
		t.Errorf("reloaded graph: %d errors:\n%s", rep.Errors, rep)
	}
	if len(rep.Skipped) == 0 {
		t.Error("reloaded graph: translation-validation passes should be skipped without metadata")
	}
}

// TestProgramWithoutTokensEnds: a program that declares no variable
// circulates no access token. Its end collects start's own token, under
// every schema as under Schema 1, so the machine and the channel engine
// finish it as the interpreter does, and vet passes the graph. A graph
// whose end no arc feeds never finishes, and token-balance says so.
func TestProgramWithoutTokensEnds(t *testing.T) {
	for _, src := range []string{"", "while 0 { }\n"} {
		p, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Interpret(nil)
		if err != nil {
			t.Fatalf("%q: interpreter: %v", src, err)
		}
		for _, sc := range allSchemas {
			d, err := p.Translate(Options{Schema: sc})
			if err != nil {
				t.Fatalf("%q, %v: %v", src, sc, err)
			}
			if rep := d.Vet(); !rep.Clean() {
				t.Errorf("%q, %v: vet:\n%s", src, sc, rep)
			}
			for _, e := range []Engine{EngineMachine, EngineChannels} {
				got, err := d.Run(RunConfig{Engine: e})
				if err != nil {
					t.Errorf("%q, %v, engine %d: %v", src, sc, e, err)
				} else if got.Snapshot != want.Snapshot {
					t.Errorf("%q, %v, engine %d: %q, interpreter %q", src, sc, e, got.Snapshot, want.Snapshot)
				}
			}
		}
	}
	d, err := LoadDataflow(strings.NewReader("ctdf-dataflow v1\nnode d0 start\nnode d1 end ins=0 stmt=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Vet()
	if !slices.Contains(rep.Detectors(), "token-balance") {
		t.Errorf("an end no arc feeds passes token-balance:\n%s", rep)
	}
}
