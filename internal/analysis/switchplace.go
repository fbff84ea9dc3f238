package analysis

import (
	"sort"

	"ctdf/internal/cfg"
)

// NeedFunc reports, for a CFG node, which access tokens the node consumes
// and regenerates. Token names are abstract: for Schema 2 they are variable
// names (a node needs the tokens of the variables it references); for
// Schema 3 they are cover-element names (a node needs the access set C[x]
// of every variable x it references).
type NeedFunc func(nodeID int) []string

// VarNeed is the Schema 2 NeedFunc: the tokens a node needs are exactly
// the variables it references.
func VarNeed(g *cfg.Graph) NeedFunc {
	return func(id int) []string {
		return sortedNames(g.Refs(id))
	}
}

// Placement is the result of switch placement (Figure 10): for each fork
// node, the set of access tokens for which the fork must create a switch.
type Placement struct {
	// Needs[f] is the set of token names needing a switch at fork f.
	Needs map[int]map[string]bool
}

// NeedsSwitch reports whether fork f needs a switch for token tok.
func (p *Placement) NeedsSwitch(f int, tok string) bool { return p.Needs[f][tok] }

// Tokens returns the sorted token names switched at fork f.
func (p *Placement) Tokens(f int) []string { return sortedNames(p.Needs[f]) }

// PlaceSwitches runs the worklist algorithm of Figure 10 for every access
// token at once: seed the worklist with the nodes that need tokens, then
// propagate token sets through control dependences; every fork reached is
// marked as needing a switch for the tokens that reached it. By Corollary
// 1 the marked forks for token x are exactly CD+({N : N needs x}).
func PlaceSwitches(g *cfg.Graph, cd *ControlDeps, need NeedFunc) *Placement {
	toks := newTokenIDs(nil)
	reach, _ := tokenRows(g, toks, need, nil) // tokens needed or switched at the node
	placed := newBitRows(g.Len(), len(toks.names))
	onWL := make([]bool, g.Len())
	var worklist []int
	for id := range g.Nodes {
		onWL[id] = true
		worklist = append(worklist, id)
	}
	for len(worklist) > 0 {
		n := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		onWL[n] = false
		from := reach.row(n)
		for _, f := range cd.On[n] {
			grew := false
			at, through := placed.row(f), reach.row(f)
			for i, w := range from {
				if w&^at[i] != 0 {
					at[i] |= w
					through[i] |= w
					grew = true
				}
			}
			if grew && !onWL[f] {
				onWL[f] = true
				worklist = append(worklist, f)
			}
		}
	}
	p := &Placement{Needs: map[int]map[string]bool{}}
	for f := range g.Nodes {
		if set := toks.nameSet(placed.row(f)); len(set) > 0 {
			p.Needs[f] = set
		}
	}
	return p
}

// LoopNeeds computes, for each loop, the set of tokens that must circulate
// through the loop's entry and exit control statements: tokens needed by
// any node in the loop body plus tokens switched at any fork in the body
// (§4's relaxation: all other tokens bypass the loop entirely).
func LoopNeeds(g *cfg.Graph, loops []cfg.Loop, need NeedFunc, p *Placement) map[int]map[string]bool {
	if len(loops) == 0 {
		return map[int]map[string]bool{}
	}
	toks := newTokenIDs(nil)
	needs, switched := tokenRows(g, toks, need, p)
	out, _ := loopNeeds(loops, toks, needs, switched)
	return out
}

// loopNeeds is LoopNeeds over token rows; it also returns each loop's row.
func loopNeeds(loops []cfg.Loop, toks *tokenIDs, needs, switched bitRows) (map[int]map[string]bool, bitRows) {
	out := map[int]map[string]bool{}
	rows := newBitRows(len(loops), len(toks.names))
	for i, l := range loops {
		row := rows.row(i)
		for b := range l.Body {
			union(row, needs.row(b))
			union(row, switched.row(b))
		}
		set := toks.nameSet(row)
		out[l.Entry] = set
		for _, x := range l.Exits {
			out[x] = set
		}
	}
	return out, rows
}

func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
