package translate

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/workloads"
)

// irreducibleWorkloads exercise the dispatch rewrite that stands in for
// footnote 5's code copying: jumps into the middle of loops.
var irreducibleWorkloads = []workloads.Workload{
	{
		Name: "irreducible-two-entry",
		Source: `
var x
if x == 0 then goto a else goto b
a:
x := x + 1
goto b2
b:
x := x + 2
goto a2
a2:
if x < 10 then goto a else goto end
b2:
if x < 20 then goto b else goto end
`,
	},
	{
		Name: "irreducible-with-state",
		Source: `
var x, y, s
y := 3
if y > 2 then goto mid else goto top
top:
x := x + 1
s := s + x
mid:
s := s + 10
x := x + 2
if x < 15 then goto top else goto done
done:
y := s
`,
	},
}

func TestIrreducibleProgramsAllSchemas(t *testing.T) {
	for _, w := range irreducibleWorkloads {
		// Premise: the raw CFG really is irreducible.
		g := mustCFG(t, w)
		if _, _, err := cfg.InsertLoopControl(g); err == nil {
			t.Fatalf("%s: fixture is unexpectedly reducible", w.Name)
		}
		for _, opt := range allSchemas {
			t.Run(w.Name+"/"+opt.Schema.String(), func(t *testing.T) {
				checkEquivalence(t, w, opt, nil)
			})
		}
	}
}

func TestIrreducibleReportsDispatchRegions(t *testing.T) {
	g := mustCFG(t, irreducibleWorkloads[0])
	res, err := Translate(g, Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	if res.DispatchRegions != 1 {
		t.Errorf("DispatchRegions = %d, want 1 for one two-entry region", res.DispatchRegions)
	}
	// Reducible input reports zero.
	g2 := mustCFG(t, workloads.RunningExample)
	res2, err := Translate(g2, Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.DispatchRegions != 0 {
		t.Errorf("DispatchRegions = %d on reducible input", res2.DispatchRegions)
	}
}
