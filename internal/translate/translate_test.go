package translate

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/interp"
	"ctdf/internal/machine"
	"ctdf/internal/workloads"
)

// allSchemas lists every schema with default options.
var allSchemas = []Options{
	{Schema: Schema1},
	{Schema: Schema2},
	{Schema: Schema2Opt},
	{Schema: Schema3},
	{Schema: Schema3Opt},
}

func mustCFG(t *testing.T, w workloads.Workload) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(w.Parse())
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return g
}

// checkEquivalence translates under opt, executes on the machine, and
// compares the final state against the sequential interpreter; it returns
// the translation.
func checkEquivalence(t *testing.T, w workloads.Workload, opt Options, binding interp.Binding) *Result {
	t.Helper()
	g := mustCFG(t, w)
	want, err := interp.Run(g, interp.Options{Binding: binding})
	if err != nil {
		t.Fatalf("%s: interpreter failed: %v", w.Name, err)
	}
	res, err := Translate(g, opt)
	if err != nil {
		t.Fatalf("%s/%v: translation failed: %v", w.Name, opt.Schema, err)
	}
	out, err := machine.Run(res.Graph, machine.Config{Binding: binding, DetectRaces: true})
	if err != nil {
		t.Fatalf("%s/%v: machine failed: %v", w.Name, opt.Schema, err)
	}
	got := FinalSnapshot(res, out.Store, out.EndValues)
	if got != want.Store.Snapshot() {
		t.Errorf("%s/%v: final state differs\nmachine:\n%s\ninterp:\n%s\ndataflow graph:\n%s",
			w.Name, opt.Schema, got, want.Store.Snapshot(), res.Graph.DOT())
	}
	return res
}

func TestAllSchemasMatchInterpreterOnSuite(t *testing.T) {
	for _, w := range workloads.All() {
		for _, opt := range allSchemas {
			t.Run(w.Name+"/"+opt.Schema.String(), func(t *testing.T) {
				checkEquivalence(t, w, opt, nil)
			})
		}
	}
}

func TestRandomProgramsAllSchemas(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		w := workloads.Random(seed, 4, 2)
		for _, opt := range allSchemas {
			t.Run(w.Name+"/"+opt.Schema.String(), func(t *testing.T) {
				checkEquivalence(t, w, opt, nil)
			})
		}
	}
}

func TestRunningExampleValues(t *testing.T) {
	prog := workloads.RunningExample.Parse()
	g := cfg.MustBuild(prog)
	res, err := Translate(g, Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := machine.Run(res.Graph, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Store.Get("x") != 5 || out.Store.Get("y") != 5 {
		t.Errorf("x=%d y=%d, want 5 5", out.Store.Get("x"), out.Store.Get("y"))
	}
}

// TestLoopsCirculatingNoToken: a loop whose body references no variable
// circulates no token, and the optimized schemas' placement fixpoint
// reaches that at once rather than failing the translation.
func TestLoopsCirculatingNoToken(t *testing.T) {
	for _, src := range []string{"var x\nwhile 0 { }\n", "var x\nx := 1\nwhile 0 { }\n"} {
		for _, opt := range allSchemas {
			checkEquivalence(t, workloads.Workload{Name: src, Source: src}, opt, nil)
		}
	}
	g := cfg.MustBuild(workloads.Workload{Source: "while 0 { }\n"}.Parse())
	for _, sc := range []Schema{Schema2Opt, Schema3Opt} {
		if _, err := Translate(g, Options{Schema: sc}); err != nil {
			t.Errorf("a program without variables, %v: %v", sc, err)
		}
	}
	checkLinked(t, workloads.Workload{Name: "no-token-callee", Source: `
var a
proc spin(x) {
  while 0 { }
}
a := 1
call spin(a)
`})
}
