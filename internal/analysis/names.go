package analysis

import (
	"fmt"
	"slices"

	"ctdf/internal/cfg"
)

// The name-based entry points: each reads its NeedFunc once, numbers the
// token names by their position in a sorted universe and calls the id
// core.

// VarNeed is the Schema 2 NeedFunc: the tokens a node needs are exactly
// the variables it references.
func VarNeed(g *cfg.Graph) NeedFunc {
	return func(id int) []string { return g.RefSet(nil, id) }
}

// PlaceSwitches runs the worklist algorithm of Figure 10 one token at a
// time, as SSA places φ-functions one variable at a time: seed the
// worklist with the nodes that need the token, then follow control
// dependences; every fork reached is marked as needing a switch for it.
// By Corollary 1 the marked forks for token x are exactly
// CD+({N : N needs x}). Each token's walk visits only its own CD+ region.
// The placement's universe is the tokens need names.
func PlaceSwitches(g *cfg.Graph, cd *ControlDeps, need NeedFunc) *Placement {
	names := needNames(g, need)
	universe := union(names, nil)
	needs, _ := number(names, universe) // universe holds every name
	return placementOf(universe, Figure10(cd, needs.transpose(len(universe)), &Work{}))
}

// LoopNeeds computes, for each loop, the set of tokens that must circulate
// through the loop's entry and exit control statements: tokens needed by
// any node in the loop body plus tokens switched at any fork in the body
// (§4's relaxation: all other tokens bypass the loop entirely).
func LoopNeeds(g *cfg.Graph, loops []cfg.Loop, need NeedFunc, p *Placement) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	if len(loops) == 0 {
		return out
	}
	names := needNames(g, need)
	universe := union(names, p.Universe)
	needs, _ := number(names, universe) // universe holds every name
	switched, _ := p.renumber(universe)
	pl := &Plan{g: g, loops: loops, universe: universe}
	rows := pl.loopRows(needs, switched)
	for i, l := range loops {
		set := map[string]bool{}
		for _, t := range rows.Row(i) {
			set[universe[t]] = true
		}
		out[l.Entry] = set
		for _, x := range l.Exits {
			out[x] = set
		}
	}
	return out
}

// ComputeSourceVectors is Plan.SourceVectors on need and placement by
// name: every token they name must be in universe.
func ComputeSourceVectors(g *cfg.Graph, loops []cfg.Loop, universe []string, need NeedFunc, placement *Placement) (*SourceVectors, error) {
	universe = slices.Clone(universe)
	slices.Sort(universe)
	needs, err := number(needNames(g, need), universe)
	if err != nil {
		return nil, err
	}
	pl := &Plan{g: g, loops: loops, cd: ComputeControlDeps(g), universe: universe, base: needs, need: needs}
	if pl.switched, err = placement.renumber(universe); err != nil {
		return nil, err
	}
	return pl.SourceVectors()
}

// needNames reads need once for every node of g.
func needNames(g *cfg.Graph, need NeedFunc) [][]string {
	names := make([][]string, g.Len())
	for id := range names {
		names[id] = need(id)
	}
	return names
}

// union returns the sorted, distinct names of rows and of more.
func union(rows [][]string, more []string) []string {
	all := slices.Clone(more)
	for _, row := range rows {
		all = append(all, row...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// number returns rows with every name replaced by its position in
// universe.
func number(rows [][]string, universe []string) (Rows, error) {
	out := NewRows(len(rows), 0)
	for i, row := range rows {
		for _, name := range row {
			t, ok := slices.BinarySearch(universe, name)
			if !ok {
				return Rows{}, fmt.Errorf("analysis: token %s is outside the universe", name)
			}
			out.Add(int32(t))
		}
		out.EndRow(i)
	}
	return out, nil
}

// renumber returns p's switched tokens by their position in universe.
func (p *Placement) renumber(universe []string) (Rows, error) {
	rows := make([][]string, len(p.Needs))
	for f, row := range p.Needs {
		for _, t := range row {
			rows[f] = append(rows[f], p.Universe[t])
		}
	}
	return number(rows, universe)
}
