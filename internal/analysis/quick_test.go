package analysis

import (
	"testing"
	"testing/quick"

	"ctdf/internal/cfg"
	"ctdf/internal/lang"
	"ctdf/internal/workloads"
)

func buildGraph(prog *lang.Program) (*cfg.Graph, error) { return cfg.Build(prog) }

// Property tests (testing/quick) over random programs and alias
// structures.

// randomProgram maps an arbitrary seed to a generated workload.
func randomProgram(seed int64) *lang.Program {
	return workloads.Random(seed%1000, 3, 2).Parse()
}

func TestQuickAliasStructureAxioms(t *testing.T) {
	f := func(seed int64) bool {
		prog := workloads.RandomAliased(seed%500, 3, 1).Parse()
		a := NewAliasStructure(prog)
		vars := a.Vars()
		for _, x := range vars {
			// Reflexive.
			if !a.Related(x, x) {
				return false
			}
			for _, y := range vars {
				// Symmetric.
				if a.Related(x, y) != a.Related(y, x) {
					return false
				}
				// Class membership matches the relation.
				inClass := false
				for _, c := range a.Class(x) {
					if c == y {
						inClass = true
					}
				}
				if inClass != a.Related(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoverLaws(t *testing.T) {
	f := func(seed int64) bool {
		prog := workloads.RandomAliased(seed%500, 3, 1).Parse()
		a := NewAliasStructure(prog)
		for _, cover := range []*Cover{SingletonCover(a), ClassCover(a), MonolithicCover(a)} {
			if cover.Validate(a) != nil {
				return false
			}
			for _, x := range a.Vars() {
				// The access set is never empty (x itself is covered) and
				// contains only declared cover elements.
				cx := cover.AccessSet(a, x)
				if len(cx) == 0 {
					return false
				}
				names := map[string]bool{}
				for _, e := range cover.Elements {
					names[e.Name] = true
				}
				for _, c := range cx {
					if !names[c] {
						return false
					}
				}
			}
		}
		// Singleton cover: C[x] is exactly the alias class [x].
		sc := SingletonCover(a)
		for _, x := range a.Vars() {
			cx := sc.AccessSet(a, x)
			cls := a.Class(x)
			if len(cx) != len(cls) {
				return false
			}
			for i := range cx {
				if cx[i] != cls[i] {
					return false
				}
			}
		}
		// Monolithic cover: every access set is {V}.
		mc := MonolithicCover(a)
		for _, x := range a.Vars() {
			if cx := mc.AccessSet(a, x); len(cx) != 1 || cx[0] != "V" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickSwitchPlacementMonotone(t *testing.T) {
	// Adding a referencing node can only add switches: placement over
	// need ∪ extra is a superset of placement over need.
	f := func(seed int64) bool {
		prog := randomProgram(seed)
		g, err := buildGraph(prog)
		if err != nil {
			return true // generator produced something cfg rejects; skip
		}
		cd := ComputeControlDeps(g)
		base := VarNeed(g)
		p1 := PlaceSwitches(g, cd, base)
		extended := func(id int) []string {
			out := base(id)
			if g.Nodes[id].Kind == cfg.KindAssign {
				out = append(append([]string(nil), out...), "extra-token")
			}
			return out
		}
		p2 := PlaceSwitches(g, cd, extended)
		for f2, toks := range p1.Needs {
			for _, tok := range toks {
				if !p2.NeedsSwitch(f2, p1.Universe[tok]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickIteratedCDSubsetOfForks(t *testing.T) {
	f := func(seed int64) bool {
		prog := randomProgram(seed)
		g, err := buildGraph(prog)
		if err != nil {
			return true
		}
		cd := ComputeControlDeps(g)
		for n := range g.Nodes {
			for fk := range cd.IteratedCD([]int{n}) {
				if len(g.Nodes[fk].Succs) != 2 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
