package ctdf

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ctdf/internal/dfg"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

const exampleSrc = `
var x, y
l: y := x + 1
x := x + 1
if x < 5 then goto l else goto end
`

func TestPipelineQuickstart(t *testing.T) {
	p, err := Compile(exampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Translate(Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Snapshot, "x=5") || !strings.Contains(r.Snapshot, "y=5") {
		t.Errorf("snapshot = %q", r.Snapshot)
	}
	if r.Cycles == 0 || r.Ops == 0 {
		t.Error("machine stats missing")
	}
	want, err := p.Interpret(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Snapshot != want.Snapshot {
		t.Error("dataflow and interpreter disagree")
	}
}

func TestAllSchemasViaFacade(t *testing.T) {
	p, err := Compile(exampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := p.Interpret(nil)
	for _, s := range []Schema{Schema1, Schema2, Schema2Opt, Schema3, Schema3Opt} {
		for _, e := range []Engine{EngineMachine, EngineChannels} {
			d, err := p.Translate(Options{Schema: s})
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			r, err := d.Run(RunConfig{Engine: e})
			if err != nil {
				t.Fatalf("%v/%v: %v", s, e, err)
			}
			if r.Snapshot != want.Snapshot {
				t.Errorf("%v/%v: wrong result", s, e)
			}
		}
	}
}

func TestSchemaNamesRoundTrip(t *testing.T) {
	for _, s := range []Schema{Schema1, Schema2, Schema2Opt, Schema3, Schema3Opt} {
		got, err := ParseSchema(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Errorf("round trip %v → %q → %v", s, s.String(), got)
		}
	}
	if _, err := ParseSchema("bogus"); err == nil {
		t.Error("bogus schema accepted")
	}
}

func TestCoversViaFacade(t *testing.T) {
	src := "var x, y, z\nalias x ~ z\nalias y ~ z\nx := 1\ny := 2\nz := x + y\n"
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := p.Interpret(nil)
	for _, c := range []CoverKind{CoverSingleton, CoverClass, CoverMonolithic} {
		d, err := p.Translate(Options{Schema: Schema3, Cover: c})
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Run(RunConfig{DetectRaces: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Snapshot != want.Snapshot {
			t.Errorf("cover %d: wrong result", c)
		}
	}
	// Token universes differ by cover.
	ds, _ := p.Translate(Options{Schema: Schema3, Cover: CoverSingleton})
	dm, _ := p.Translate(Options{Schema: Schema3, Cover: CoverMonolithic})
	if len(ds.Tokens()) <= len(dm.Tokens()) {
		t.Errorf("singleton cover should have more tokens (%d) than monolithic (%d)",
			len(ds.Tokens()), len(dm.Tokens()))
	}
}

func TestBindingViaFacade(t *testing.T) {
	src := "var x, z, r\nalias x ~ z\nx := 1\nz := 2\nr := x\n"
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Translate(Options{Schema: Schema3})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := d.Run(RunConfig{Binding: map[string]string{"x": "x", "z": "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shared.Snapshot, "r=2") {
		t.Errorf("with x~z shared, r must read z's write: %q", shared.Snapshot)
	}
	if _, err := d.Run(RunConfig{Binding: map[string]string{"x": "x", "r": "x"}}); err == nil {
		t.Error("illegal binding (x, r not aliases) must be rejected")
	}
}

func TestDOTOutputs(t *testing.T) {
	p, _ := Compile(exampleSrc)
	if !strings.Contains(p.ControlFlowDOT(), "digraph cfg") {
		t.Error("CFG DOT malformed")
	}
	d, _ := p.Translate(Options{Schema: Schema1})
	if !strings.Contains(d.DOT(), "digraph dfg") {
		t.Error("DFG DOT malformed")
	}
}

func TestStatsAndElimination(t *testing.T) {
	src := "var x, w, y\nx := x + 1\nif w == 0 {\n  y := 1\n} else {\n  y := 2\n}\nx := 0\n"
	p, _ := Compile(src)
	d2, _ := p.Translate(Options{Schema: Schema2})
	dOpt, _ := p.Translate(Options{Schema: Schema2Opt})
	if dOpt.Stats().Switches >= d2.Stats().Switches {
		t.Errorf("optimized switches %d not below schema 2's %d", dOpt.Stats().Switches, d2.Stats().Switches)
	}
	simpl, n := d2.EliminateRedundantSwitches()
	if n == 0 {
		t.Error("iterative elimination removed nothing")
	}
	if simpl.Stats().Switches != dOpt.Stats().Switches {
		t.Errorf("iterative (%d switches) != direct (%d)", simpl.Stats().Switches, dOpt.Stats().Switches)
	}
}

func TestProfileChartFacade(t *testing.T) {
	p, _ := Compile(exampleSrc)
	d, _ := p.Translate(Options{Schema: Schema2})
	r, err := d.Run(RunConfig{MemLatency: 4})
	if err != nil {
		t.Fatal(err)
	}
	chart := ProfileChart(r.Profile, r.Cycles, 40, 6)
	if !strings.Contains(chart, "#") {
		t.Errorf("chart malformed:\n%s", chart)
	}
}

func TestLegalizeSynchTreesFacade(t *testing.T) {
	src := `
var a, b, c, e
alias a ~ e
alias b ~ e
alias c ~ e
e := a + b + c
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Translate(Options{Schema: Schema3})
	if err != nil {
		t.Fatal(err)
	}
	leg, added := d.LegalizeSynchTrees()
	if added == 0 {
		t.Skip("no wide synchs in fixture")
	}
	want, err := d.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := leg.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Snapshot != want.Snapshot {
		t.Error("legalization changed results")
	}
}

// TestGraphPassesAcceptEveryGraphClass: LegalizeSynchTrees and
// EliminateRedundantSwitches take every graph a translation hands over —
// plain, optimized (fused nodes and their step programs), reloaded from
// text (no translation metadata) and linked (apply nodes and their call
// linkage) — and hand back a valid graph that vets clean and computes the
// unedited graph's store on both engines.
func TestGraphPassesAcceptEveryGraphClass(t *testing.T) {
	passes := []struct {
		name string
		run  func(*Dataflow) (*Dataflow, int)
	}{
		{"legalize", (*Dataflow).LegalizeSynchTrees},
		{"eliminate", (*Dataflow).EliminateRedundantSwitches},
	}
	cells, fused, rewritten := 0, 0, 0
	check := func(label string, d *Dataflow) {
		cells++
		if d.graph().CountKind(dfg.Fused) > 0 {
			fused++
		}
		for _, e := range []Engine{EngineMachine, EngineChannels} {
			want, err := d.Run(RunConfig{Engine: e})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, p := range passes {
				got, n := p.run(d)
				if n > 0 {
					rewritten++
				}
				if err := got.graph().Validate(); err != nil {
					t.Fatalf("%s/%s: %v", label, p.name, err)
				}
				if a := translate.MaxSynchArity(got.graph()); p.name == "legalize" && a > 2 {
					t.Errorf("%s: synch arity %d remains after legalizing", label, a)
				}
				if e == EngineMachine {
					if rep := got.Vet(); !rep.Clean() {
						t.Errorf("%s/%s: vet:\n%s", label, p.name, rep)
					}
				}
				r, err := got.Run(RunConfig{Engine: e})
				if err != nil {
					t.Fatalf("%s/%s: %v", label, p.name, err)
				}
				if r.Snapshot != want.Snapshot {
					t.Errorf("%s/%s changed the final store:\n%s\nwant:\n%s", label, p.name, r.Snapshot, want.Snapshot)
				}
			}
		}
	}
	for _, w := range workloads.All() {
		p, err := Compile(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Schema{Schema2, Schema2Opt, Schema3} {
			for optimize := 0; optimize <= 1; optimize++ {
				d, err := p.Translate(Options{Schema: s, Optimize: optimize})
				if err != nil {
					t.Fatalf("%s/%v: %v", w.Name, s, err)
				}
				label := fmt.Sprintf("%s/%v/optimize=%d", w.Name, s, optimize)
				check(label, d)
				loaded, err := LoadDataflow(strings.NewReader(d.Text()))
				if err != nil {
					t.Fatalf("%s: reload: %v", label, err)
				}
				check(label+"/reloaded", loaded)
			}
		}
		if strings.HasPrefix(w.Name, "proc-") {
			d, err := p.TranslateLinked()
			if err != nil {
				t.Fatal(err)
			}
			check(w.Name+"/linked", d)
		}
	}
	if fused < 40 || rewritten < 16 {
		t.Fatalf("%d cells, %d with fused nodes, %d rewrites; suite lost coverage", cells, fused, rewritten)
	}
}

func TestTranslateLinkedFacade(t *testing.T) {
	src := `
var a, b
proc double(x) {
  x := x * 2
}
a := 21
call double(a)
call double(b)
b := b + a
`
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Interpret(nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.TranslateLinked()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{EngineMachine, EngineChannels} {
		r, err := d.Run(RunConfig{Engine: e, DetectRaces: e == EngineMachine})
		if err != nil {
			t.Fatal(err)
		}
		if r.Snapshot != want.Snapshot {
			t.Errorf("engine %d: linked result differs", e)
		}
	}
	// Linked graphs are not serializable in text format v1.
	if d.Text() != "" {
		t.Error("linked graph should not serialize")
	}
	// Procedure-free programs are rejected.
	p2, _ := Compile("var x\nx := 1\n")
	if _, err := p2.TranslateLinked(); err == nil {
		t.Error("TranslateLinked must reject procedure-free programs")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("x := 1\n"); err == nil {
		t.Error("undeclared variable accepted")
	}
	if _, err := Compile("var x\nspin:\ngoto spin\n"); err == nil {
		t.Error("non-terminating CFG accepted")
	}
}

func TestVariablesAccessor(t *testing.T) {
	p, _ := Compile("var b, a\narray z[3]\nb := 1\n")
	got := p.Variables()
	if len(got) != 3 || got[0] != "b" || got[2] != "z" {
		t.Errorf("Variables() = %v", got)
	}
}

// TestConcurrentRunsShareADataflow: a translated *Dataflow is immutable
// to its runs and to vet — every engine lowers or wires it privately, and
// vet's passes, themselves concurrent, only read it — so any number of
// goroutines may Run and Vet one concurrently (a `ctdf top` loop beside a
// /metrics-driven run, or any library caller). Run under -race
// (scripts/verify.sh has a named step).
func TestConcurrentRunsShareADataflow(t *testing.T) {
	w := workloads.Wide(8, 20)
	p, err := Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Interpret(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]RunConfig{
		"sequential": {},
		"workers2":   {Workers: 2},
		"channels":   {Engine: EngineChannels},
	} {
		d, err := p.Translate(Options{Schema: Schema2Opt})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := d.Run(cfg)
				if err != nil {
					t.Errorf("%s: %v", name, err)
				} else if r.Snapshot != want.Snapshot {
					t.Errorf("%s: store differs from the interpreter's", name)
				}
				if rep := d.Vet(); !rep.Clean() || len(rep.Ran) != 6 {
					t.Errorf("%s: vet ran %d passes, want 6 and a clean report:\n%s", name, len(rep.Ran), rep)
				}
			}()
		}
		wg.Wait()
	}
}
