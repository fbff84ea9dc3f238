package cfg

import (
	"slices"
	"testing"

	"ctdf/internal/workloads"
)

// irreducibleSrc jumps into the middle of a loop: the classic two-entry
// cycle.
const irreducibleSrc = `
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
`

// doublyIrreducibleSrc chains two irreducible regions.
const doublyIrreducibleSrc = `
var x
if x == 0 then goto a else goto b
a:
x := x + 1
goto b2
b:
x := x + 2
goto a2
a2:
if x < 10 then goto a else goto mid
b2:
if x < 20 then goto b else goto mid
mid:
x := x + 100
if x == 0 then goto c else goto d
c:
x := x + 1
goto d2
d:
x := x + 2
goto c2
c2:
if x < 210 then goto c else goto end
d2:
if x < 220 then goto d else goto end
`

func TestMakeReducibleNoOpOnReducible(t *testing.T) {
	g := build(t, runningExample)
	out, copies, err := MakeReducible(g)
	if err != nil {
		t.Fatal(err)
	}
	if copies != 0 {
		t.Errorf("reducible graph got %d copies", copies)
	}
	if out != g {
		t.Error("reducible graph should be returned unchanged")
	}
}

// TestMakeReducibleOnIrreducible: each region of several entries gets
// one dispatch header, and nothing else changes: the original nodes keep
// their ids and statements, and what is added is a join per region,
// "Selector := j" on every edge into entry j, and forks reading Selector
// alone. Selector is declared on a copy of the program.
func TestMakeReducibleOnIrreducible(t *testing.T) {
	for _, tc := range []struct {
		src     string
		regions int
	}{{irreducibleSrc, 1}, {doublyIrreducibleSrc, 2}} {
		g := build(t, tc.src)
		if _, err := reducibleDominators(g); err == nil {
			t.Fatal("test premise broken: graph is reducible")
		}
		out, regions, err := MakeReducible(g)
		if err != nil {
			t.Fatal(err)
		}
		if regions != tc.regions {
			t.Errorf("%d dispatch regions, want %d", regions, tc.regions)
		}
		if _, err := reducibleDominators(out); err != nil {
			t.Fatalf("result still irreducible: %v", err)
		}
		if _, _, err := InsertLoopControl(out); err != nil {
			t.Fatalf("loop insertion on the dispatched graph: %v", err)
		}
		if slices.Contains(g.Prog.VarNames(), Selector) || !slices.Contains(out.Prog.VarNames(), Selector) {
			t.Errorf("selector declared on %v, want only on the copy %v", g.Prog.VarNames(), out.Prog.VarNames())
		}
		joins := 0
		for id, n := range out.Nodes {
			if id < g.Len() {
				if o := g.Nodes[id]; n.Kind != o.Kind || n.RHS != o.RHS || n.Cond != o.Cond {
					t.Errorf("original %s became %s", o, n)
				}
				continue
			}
			reads := out.ReadSet(nil, id)
			switch {
			case n.Kind == KindJoin:
				joins++
			case n.Kind == KindAssign && n.Target == Selector && len(reads) == 0:
			case n.Kind == KindFork && len(reads) == 1 && reads[0] == Selector:
			default:
				t.Errorf("dispatch added %s", n)
			}
		}
		if joins != regions {
			t.Errorf("%d joins added for %d regions", joins, regions)
		}
	}
}

// TestMakeReducibleIsLinear: the k-entry probe, whose code copying grows
// exponentially in k, gains fewer dispatch nodes than it has edges.
func TestMakeReducibleIsLinear(t *testing.T) {
	for k := 2; k <= 12; k++ {
		g := build(t, workloads.KEntry(k).Source)
		out, regions, err := MakeReducible(g)
		if err != nil || regions != 1 {
			t.Fatalf("k=%d: %d regions, %v", k, regions, err)
		}
		if added := out.Len() - g.Len(); added > g.NumEdges() {
			t.Errorf("k=%d: %d nodes added to a graph of %d edges", k, added, g.NumEdges())
		}
	}
}

// TestGeneratedShapes: workloads.RandomIrreducible draws regions of
// several entries, each taking one dispatch header, and
// workloads.RandomMultiExit draws gotos that pass one loop's exit
// statement straight into an enclosing loop's.
func TestGeneratedShapes(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		w := workloads.RandomIrreducible(seed, 2)
		g := build(t, w.Source)
		if _, regions, err := MakeReducible(g); err != nil || regions < 2 {
			t.Errorf("%s: %d dispatch regions (%v), want one per region, at least 2", w.Name, regions, err)
		}
		w = workloads.RandomMultiExit(seed, 1)
		out, _ := withLoops(t, w.Source)
		chained := false
		for _, n := range out.Nodes {
			chained = chained || n.Kind == KindLoopExit && out.Nodes[n.Succs[0]].Kind == KindLoopExit
		}
		if !chained {
			t.Errorf("%s: no goto leaves two loops at once", w.Name)
		}
	}
}
