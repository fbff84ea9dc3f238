package analysis

import (
	"reflect"
	"slices"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/workloads"
)

// TestPlaceWithLoopControl holds the placement ↔ loop-need fixpoint to
// both of its steps, to loops that circulate no token, and to its stop on
// a step that is not monotone.
func TestPlaceWithLoopControl(t *testing.T) {
	t.Run("steps agree", testPlaceStepsAgree)
	t.Run("no token", testPlaceNoToken)
	t.Run("no fixpoint", testPlaceNoFixpoint)
}

// varRows numbers VarNeed(g) by position in the sorted universe of g's
// names.
func varRows(t *testing.T, g *cfg.Graph) ([]string, Rows) {
	t.Helper()
	universe := slices.Clone(g.Prog.AllNames())
	slices.Sort(universe)
	rows, err := number(needNames(g, VarNeed(g)), universe)
	if err != nil {
		t.Fatal(err)
	}
	return universe, rows
}

// loopNeedNames names loop rows by their loops' control statements, as
// LoopNeeds does.
func loopNeedNames(pl *Plan, rows Rows) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for i, l := range pl.loops {
		set := map[string]bool{}
		for _, t := range rows.Row(i) {
			set[pl.universe[t]] = true
		}
		out[l.Entry] = set
		for _, x := range l.Exits {
			out[x] = set
		}
	}
	return out
}

// loopCFG builds src's CFG with loop control inserted.
func loopCFG(t *testing.T, src string) (*cfg.Graph, []cfg.Loop) {
	t.Helper()
	g, loops, err := cfg.InsertLoopControl(buildCFG(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) == 0 {
		t.Fatal("the program has no loop")
	}
	return g, loops
}

// testPlaceStepsAgree: Figure 10's worklist, the translator's step, and
// the CD+ closure, vet's, reach the same placement and loop needs on every
// committed workload and on generated structured, goto and aliased
// programs.
func testPlaceStepsAgree(t *testing.T) {
	ws := workloads.All()
	for seed := int64(0); seed < 16; seed++ {
		ws = append(ws, workloads.Random(seed, 4, 2), workloads.RandomUnstructured(seed, 8), workloads.RandomAliased(seed, 4, 2))
	}
	for _, w := range ws {
		g0, err := cfg.Build(w.Parse())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		g1, _, err := cfg.MakeReducible(g0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		g, loops, err := cfg.InsertLoopControl(g1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		universe, base := varRows(t, g)
		p1, err1 := PlaceWithLoopControl(g, loops, universe, base, Figure10)
		p2, err2 := PlaceWithLoopControl(g, loops, universe, base, ByIteratedCD)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Figure 10: %v, CD+: %v", w.Name, err1, err2)
		}
		if !reflect.DeepEqual(p1.Placement.Needs, p2.Placement.Needs) {
			t.Errorf("%s: placements differ:\nFigure 10 %v\nCD+       %v", w.Name, p1.Placement.Needs, p2.Placement.Needs)
		}
		ln1, ln2 := loopNeedNames(p1, p1.loopRows(p1.need, p1.switched)), loopNeedNames(p2, p2.loopRows(p2.need, p2.switched))
		if !reflect.DeepEqual(ln1, ln2) {
			t.Errorf("%s: loop needs differ:\nFigure 10 %v\nCD+       %v", w.Name, ln1, ln2)
		}
		if !reflect.DeepEqual(p1.need, p2.need) {
			t.Errorf("%s: extended needs differ: %v, %v", w.Name, p1.need, p2.need)
		}
		// The fixpoint's loop needs are those LoopNeeds finds under its
		// placement.
		if ln := LoopNeeds(g, loops, VarNeed(g), p1.Placement); !reflect.DeepEqual(ln, ln1) {
			t.Errorf("%s: loop needs %v, LoopNeeds under the placement %v", w.Name, ln1, ln)
		}
	}
}

// testPlaceNoToken: loops whose body references no variable, in a
// program that references none or only outside the loop, circulate no
// token. LoopNeeds keys each entry and exit with an empty set, and the
// fixpoint is reached at once, under both steps.
func testPlaceNoToken(t *testing.T) {
	for _, src := range []string{
		"while 0 { }\n",
		"var x\nwhile 0 { }\n",
		"var x\nx := 1\nwhile 0 { }\nwhile 1 < 0 { }\n",
	} {
		g, loops := loopCFG(t, src)
		for name, step := range map[string]Step{"Figure 10": Figure10, "CD+": ByIteratedCD} {
			calls := 0
			universe, base := varRows(t, g)
			pl, err := PlaceWithLoopControl(g, loops, universe, base, func(cd *ControlDeps, users Rows, w *Work) Rows {
				calls++
				return step(cd, users, w)
			})
			if err != nil {
				t.Fatalf("%q, %s: %v", src, name, err)
			}
			if calls != 1 {
				t.Errorf("%q, %s: %d rounds, want 1", src, name, calls)
			}
			for id, toks := range loopNeedNames(pl, pl.loopRows(pl.need, pl.switched)) {
				if len(toks) > 0 {
					t.Errorf("%q, %s: statement %d circulates %v, want none", src, name, id, toks)
				}
			}
		}
	}
}

// testPlaceNoFixpoint: a step that alternates between two placements with
// different loop needs is not monotone, and PlaceWithLoopControl stops it
// with an error in the first round that drops a loop need.
func testPlaceNoFixpoint(t *testing.T) {
	g, loops := loopCFG(t, `
var x, y
top:
y := y + 1
if y > 9 then goto hot else goto cold
hot:
x := 1
goto after
cold:
if y < 5 then goto top else goto coldexit
coldexit:
x := 2
after:
`)
	fork := -1
	for b := range loops[0].Body {
		if g.Nodes[b].Kind == cfg.KindFork {
			fork = b
		}
	}
	if fork < 0 {
		t.Fatal("the loop holds no fork")
	}
	// x is referenced outside the loop only: switching it at an in-loop
	// fork makes it circulate, not switching it does not. The universe
	// numbers x 0.
	none := byNode(g.Len(), nil, nil)
	withX := byNode(g.Len(), []int32{int32(fork)}, []int32{0})
	calls := 0
	alternate := func(*ControlDeps, Rows, *Work) Rows {
		calls++
		if calls%2 == 0 {
			return withX
		}
		return none
	}
	universe, base := varRows(t, g)
	_, err := PlaceWithLoopControl(g, loops, universe, base, alternate)
	if err == nil {
		t.Fatal("an alternating placement reached a fixpoint")
	}
	if calls != 3 {
		t.Errorf("PlaceWithLoopControl ran %d rounds, want 3 (none, x, none)", calls)
	}
}
