package analysis

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/workloads"
)

// TestControlDepsTrivialGraph pins the degenerate CFG an empty program
// produces: start and end only, with both start out-directions wired to
// end. End postdominates everything, so nothing is control dependent on
// anything, CD+ is empty for every seed, and no fork needs a switch.
func TestControlDepsTrivialGraph(t *testing.T) {
	g := buildCFG(t, "")
	if g.Len() != 2 {
		t.Fatalf("empty program CFG has %d nodes, want 2 (start, end)", g.Len())
	}
	cd := ComputeControlDeps(g)
	for n := range g.Nodes {
		if deps := cd.CD(n); len(deps) != 0 {
			t.Errorf("CD(n%d) = %v, want empty on the trivial graph", n, deps)
		}
		if cdp := cd.IteratedCD([]int{n}); len(cdp) != 0 {
			t.Errorf("CD+(n%d) = %v, want empty on the trivial graph", n, cdp)
		}
	}
	for f, row := range PlaceSwitches(g, cd, VarNeed(g)).Needs {
		if len(row) != 0 {
			t.Errorf("trivial graph placed switches at n%d: %v", f, row)
		}
	}
	pdom := cd.PostDom()
	for f := range g.Nodes {
		for n := range g.Nodes {
			if BetweenWith(g, pdom, f, n) {
				t.Errorf("Between(n%d, n%d) on the trivial graph", f, n)
			}
		}
	}
}

// TestIteratedCDStaleSeeds: seeds naming nodes outside the graph — stale
// statement IDs surviving a code-copying rewrite, or any ID against a
// trivial graph — contribute nothing instead of faulting, and do not
// perturb the answer for the in-range seeds next to them.
func TestIteratedCDStaleSeeds(t *testing.T) {
	g := buildCFG(t, workloads.MustByName("running-example").Source)
	cd := ComputeControlDeps(g)
	if got := cd.IteratedCD([]int{-1, g.Len(), g.Len() + 40}); len(got) != 0 {
		t.Errorf("CD+ of out-of-range seeds = %v, want empty", got)
	}
	for n := range g.Nodes {
		clean := cd.IteratedCD([]int{n})
		mixed := cd.IteratedCD([]int{-7, n, g.Len() + 3})
		if len(clean) != len(mixed) {
			t.Fatalf("n%d: stale seeds changed CD+: %v vs %v", n, clean, mixed)
		}
		for f := range clean {
			if !mixed[f] {
				t.Fatalf("n%d: stale seeds dropped n%d from CD+", n, f)
			}
		}
	}
	pdom := cd.PostDom()
	for _, bad := range []int{-1, g.Len(), g.Len() + 40} {
		if BetweenWith(g, pdom, bad, g.End) || BetweenWith(g, pdom, g.Start, bad) {
			t.Errorf("BetweenWith accepted out-of-range node %d", bad)
		}
	}
}

// TestTheorem1OnRewrittenIrreducible re-proves Theorem 1 (CD+(N) ∋ F ⟺ N
// between F and ipdom(F)) on the graphs the translator actually analyzes:
// irreducible CFGs after cfg.MakeReducible's dispatch rewrite (footnote
// 5). A dispatch header joins every edge into a region's entries, a
// fan-in the structured workloads never produce.
func TestTheorem1OnRewrittenIrreducible(t *testing.T) {
	cases := []workloads.Workload{
		// Two mutually-entering loops: the classic irreducible pattern.
		{Name: "two-entry-loops", Source: `
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
`},
		// A jump into the middle of a loop body.
		{Name: "loop-mid-entry", Source: `
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
`},
		workloads.MustByName("unstructured-two-exit"),
		workloads.MustByName("unstructured-skip"),
	}
	for seed := int64(0); seed < 10; seed++ {
		cases = append(cases, workloads.RandomUnstructured(seed, 5), workloads.RandomIrreducible(seed, 1))
	}
	rewritten := 0
	for _, w := range cases {
		g0 := buildCFG(t, w.Source)
		g, regions, err := cfg.MakeReducible(g0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if regions > 0 {
			rewritten++
		}
		cd := ComputeControlDeps(g)
		pdom := cd.PostDom()
		for n := range g.Nodes {
			cdp := cd.IteratedCD([]int{n})
			for f := range g.Nodes {
				if want := BetweenWith(g, pdom, f, n); cdp[f] != want {
					t.Errorf("%s (regions=%d): Theorem 1 violated at F=n%d N=n%d: CD+ says %v, between says %v",
						w.Name, regions, f, n, cdp[f], want)
				}
			}
		}
	}
	if rewritten == 0 {
		t.Fatal("no test case exercised the dispatch rewrite; the irreducible inputs have gone stale")
	}
}
