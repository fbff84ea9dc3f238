package analysis

import (
	"slices"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/lang"
	"ctdf/internal/workloads"
)

func buildCFG(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testPrograms mixes the paper examples, kernels, and random programs.
func testPrograms() []workloads.Workload {
	out := workloads.All()
	for seed := int64(100); seed < 115; seed++ {
		out = append(out, workloads.Random(seed, 4, 2))
	}
	return out
}

// bruteCD checks Definition 4 through the textbook successor
// characterization: N is control dependent on F iff N postdominates some
// successor of F and does not strictly postdominate F.
func bruteCD(g *cfg.Graph, pdom *cfg.DomTree, n, f int) bool {
	if pdom.StrictlyDominates(n, f) {
		return false
	}
	for _, s := range g.Nodes[f].Succs {
		if pdom.Dominates(n, s) {
			return true
		}
	}
	return false
}

func TestControlDependenceMatchesDefinition(t *testing.T) {
	for _, w := range testPrograms() {
		g := buildCFG(t, w.Source)
		cd := ComputeControlDeps(g)
		pdom := cd.PostDom()
		for n := range g.Nodes {
			for f := range g.Nodes {
				want := bruteCD(g, pdom, n, f)
				got := slices.Contains(cd.On[n], f)
				if got != want {
					t.Errorf("%s: CD(n%d ← n%d) = %v, definition says %v", w.Name, n, f, got, want)
				}
			}
		}
	}
}

func TestControlDependenceTargetsAreForks(t *testing.T) {
	// Only nodes with two successors (forks, and start by convention) can
	// have anything control dependent on them.
	for _, w := range testPrograms() {
		g := buildCFG(t, w.Source)
		cd := ComputeControlDeps(g)
		for n := range g.Nodes {
			for _, f := range cd.On[n] {
				k := g.Nodes[f].Kind
				if k != cfg.KindFork && k != cfg.KindStart {
					t.Errorf("%s: n%d control dependent on non-fork %s", w.Name, n, g.Nodes[f])
				}
			}
		}
	}
}

func TestTheorem1(t *testing.T) {
	// Theorem 1: F ∈ CD+(N) ⟺ N is between F and ipdom(F). Between is
	// computed by raw path search straight from Definition 1, fully
	// independent of the control dependence machinery.
	for _, w := range testPrograms() {
		g := buildCFG(t, w.Source)
		cd := ComputeControlDeps(g)
		pdom := cd.PostDom()
		for n := range g.Nodes {
			cdp := cd.IteratedCD([]int{n})
			for f := range g.Nodes {
				want := BetweenWith(g, pdom, f, n)
				if cdp[f] != want {
					t.Errorf("%s: Theorem 1 violated: F=n%d N=n%d: CD+ says %v, between says %v",
						w.Name, f, n, cdp[f], want)
				}
			}
		}
	}
}

func TestSwitchPlacementMatchesTheorem1(t *testing.T) {
	// Corollary 1 + Definition 3: F needs a switch for access_x iff some
	// node referencing x is between F and its immediate postdominator.
	for _, w := range testPrograms() {
		g := buildCFG(t, w.Source)
		cd := ComputeControlDeps(g)
		pdom := cd.PostDom()
		placement := PlaceSwitches(g, cd, VarNeed(g))
		for _, x := range g.Prog.AllNames() {
			for f := range g.Nodes {
				want := false
				for n := range g.Nodes {
					if slices.Contains(g.RefSet(nil, n), x) && BetweenWith(g, pdom, f, n) {
						want = true
						break
					}
				}
				if got := placement.NeedsSwitch(f, x); got != want {
					t.Errorf("%s: switch placement for %s at n%d = %v, Definition 3 says %v",
						w.Name, x, f, got, want)
				}
			}
		}
	}
}

func TestFig9SwitchElimination(t *testing.T) {
	// Figure 9: x is not referenced inside the conditional, so the fork
	// must not switch access_x, while w (the predicate) and y (assigned in
	// both arms) are switched... w is only read at the fork itself, which
	// sits right before its postdominator, so no switch for w either.
	g := buildCFG(t, workloads.Fig9Example.Source)
	cd := ComputeControlDeps(g)
	placement := PlaceSwitches(g, cd, VarNeed(g))
	var fork int = -1
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindFork {
			fork = n.ID
		}
	}
	if fork < 0 {
		t.Fatal("no fork")
	}
	if placement.NeedsSwitch(fork, "x") {
		t.Error("fork needs no switch for x (Figure 9's whole point)")
	}
	if !placement.NeedsSwitch(fork, "y") {
		t.Error("fork must switch y: y is assigned in both arms")
	}
}

func TestLoopForkSwitchesLoopVariables(t *testing.T) {
	// In the running example every variable is referenced in the loop, so
	// the loop fork switches both x and y (via the cyclic path through the
	// back edge).
	g := buildCFG(t, workloads.RunningExample.Source)
	tg, _, err := cfg.InsertLoopControl(g)
	if err != nil {
		t.Fatal(err)
	}
	cd := ComputeControlDeps(tg)
	placement := PlaceSwitches(tg, cd, VarNeed(tg))
	for _, n := range tg.Nodes {
		if n.Kind == cfg.KindFork {
			for _, v := range []string{"x", "y"} {
				if !placement.NeedsSwitch(n.ID, v) {
					t.Errorf("loop fork must switch %s", v)
				}
			}
		}
	}
}

func TestIteratedCDClosure(t *testing.T) {
	// CD+ is a closure: CD(CD+(N)) ⊆ CD+(N).
	for _, w := range testPrograms() {
		g := buildCFG(t, w.Source)
		cd := ComputeControlDeps(g)
		for n := range g.Nodes {
			cdp := cd.IteratedCD([]int{n})
			for f := range cdp {
				for _, f2 := range cd.On[f] {
					if !cdp[f2] {
						t.Errorf("%s: CD+ not closed: n%d ∈ CD+(n%d) but CD(n%d) ∋ n%d missing",
							w.Name, f, n, f, f2)
					}
				}
			}
		}
	}
}

func TestLoopNeedsIncludePlacement(t *testing.T) {
	// A token switched at a fork inside a loop must circulate through the
	// loop's entry/exit even if no statement in the loop references it.
	src := `
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
`
	g := buildCFG(t, src)
	tg, loops, err := cfg.InsertLoopControl(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	cd := ComputeControlDeps(tg)
	need := VarNeed(tg)
	placement := PlaceSwitches(tg, cd, need)
	ln := LoopNeeds(tg, loops, need, placement)
	// x is not referenced in the loop body, but the in-loop forks decide
	// which x assignment runs, so access_x must circulate.
	if !ln[loops[0].Entry]["x"] {
		t.Error("x must circulate through the loop: in-loop forks switch it")
	}
}
