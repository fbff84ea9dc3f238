package analysis

import (
	"reflect"
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
		base := VarNeed(g)
		need1, p1, ln1, err1 := PlaceWithLoopControl(g, loops, base, PlaceSwitches)
		need2, p2, ln2, err2 := PlaceWithLoopControl(g, loops, base, PlaceByIteratedCD)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Figure 10: %v, CD+: %v", w.Name, err1, err2)
		}
		if !reflect.DeepEqual(p1.Needs, p2.Needs) {
			t.Errorf("%s: placements differ:\nFigure 10 %v\nCD+       %v", w.Name, p1.Needs, p2.Needs)
		}
		if !reflect.DeepEqual(ln1, ln2) {
			t.Errorf("%s: loop needs differ:\nFigure 10 %v\nCD+       %v", w.Name, ln1, ln2)
		}
		for id := range g.Nodes {
			if a, b := need1(id), need2(id); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: node %d: extended needs differ: %v, %v", w.Name, id, a, b)
			}
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
		for name, step := range map[string]func(*cfg.Graph, *ControlDeps, NeedFunc) *Placement{
			"Figure 10": PlaceSwitches,
			"CD+":       PlaceByIteratedCD,
		} {
			calls := 0
			_, _, ln, err := PlaceWithLoopControl(g, loops, VarNeed(g), func(g *cfg.Graph, cd *ControlDeps, need NeedFunc) *Placement {
				calls++
				return step(g, cd, need)
			})
			if err != nil {
				t.Fatalf("%q, %s: %v", src, name, err)
			}
			if calls != 1 {
				t.Errorf("%q, %s: %d rounds, want 1", src, name, calls)
			}
			for id, toks := range ln {
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
	// fork makes it circulate, not switching it does not.
	none := &Placement{Needs: map[int]map[string]bool{}}
	withX := &Placement{Needs: map[int]map[string]bool{fork: {"x": true}}}
	calls := 0
	alternate := func(*cfg.Graph, *ControlDeps, NeedFunc) *Placement {
		calls++
		if calls%2 == 0 {
			return withX
		}
		return none
	}
	_, _, _, err := PlaceWithLoopControl(g, loops, VarNeed(g), alternate)
	if err == nil {
		t.Fatal("an alternating placement reached a fixpoint")
	}
	if calls != 3 {
		t.Errorf("PlaceWithLoopControl ran %d rounds, want 3 (none, x, none)", calls)
	}
}
