package analysis

import (
	"strings"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/lang"
)

func TestAliasStructureAccessors(t *testing.T) {
	withAliases := NewAliasStructure(lang.MustParse("var x, z\nalias x ~ z\nx := 1\n"))
	if !withAliases.HasAliases() {
		t.Error("HasAliases = false with a declared pair")
	}
	plain := NewAliasStructure(lang.MustParse("var x, z\nx := 1\n"))
	if plain.HasAliases() {
		t.Error("HasAliases = true without declarations")
	}
	if got := plain.Vars(); len(got) != 2 || got[0] != "x" {
		t.Errorf("Vars = %v", got)
	}
}

func TestControlDepAccessors(t *testing.T) {
	g := buildCFG(t, "var a, b\nif a < 1 {\n  b := 2\n}\nb := 3\n")
	cd := ComputeControlDeps(g)
	found := false
	for n := range g.Nodes {
		if deps := cd.CD(n); len(deps) > 0 {
			found = true
			// Sorted ascending.
			for i := 1; i < len(deps); i++ {
				if deps[i-1] >= deps[i] {
					t.Error("CD not sorted")
				}
			}
			// Between agrees (the one-shot variant recomputes postdoms).
			for _, f := range deps {
				if !Between(g, f, n) {
					t.Errorf("CD(n%d) ∋ n%d but Between disagrees", n, f)
				}
			}
		}
	}
	if !found {
		t.Error("no control dependences in a conditional program")
	}
}

func TestSourceAndVectorsAccessors(t *testing.T) {
	s := Source{Node: 3, Dir: false}
	if s.String() != "⟨n3,f⟩" {
		t.Errorf("Source.String = %q", s.String())
	}
	r := Source{Node: 4, Dir: true, Read: true}
	if !strings.Contains(r.String(), "r") {
		t.Errorf("read tap not marked: %q", r.String())
	}

	g := buildCFG(t, "var x\nx := 1\nx := x + 1\n")
	cd := ComputeControlDeps(g)
	need := VarNeed(g)
	placement := PlaceSwitches(g, cd, need)
	sv, err := ComputeSourceVectors(g, nil, []string{"x"}, need, placement)
	if err != nil {
		t.Fatal(err)
	}
	// The second statement's x source is the first statement.
	var second int = -1
	for id := range g.Nodes {
		if n := g.Nodes[id]; n.Kind == cfg.KindAssign && n.RHS.String() != "1" {
			second = id
		}
	}
	if second < 0 {
		t.Fatal("no second assignment")
	}
	if got := sv.Sources(second, 0); len(got) != 1 {
		t.Errorf("Sources = %v, want one", got)
	}
}

// A cycle no loop entry breaks has no processing order: the raw CFG of a
// loop, before cfg.InsertLoopControl, must be refused, not spun on.
func TestSourceVectorsRejectUnbrokenCycle(t *testing.T) {
	g := buildCFG(t, "var x\nx := 3\nwhile x > 0 { x := x - 1 }\n")
	need := VarNeed(g)
	placement := PlaceSwitches(g, ComputeControlDeps(g), need)
	_, err := ComputeSourceVectors(g, nil, g.Prog.AllNames(), need, placement)
	if err == nil || !strings.Contains(err.Error(), "no topological order") {
		t.Fatalf("err = %v, want the no-topological-order refusal", err)
	}
}
