package analysis

import (
	"fmt"
	"slices"
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

// PlaceSwitches runs the worklist algorithm of Figure 10 one token at a
// time, as SSA places φ-functions one variable at a time: seed the
// worklist with the nodes that need the token, then follow control
// dependences; every fork reached is marked as needing a switch for it.
// By Corollary 1 the marked forks for token x are exactly
// CD+({N : N needs x}). Each token's walk visits only its own CD+ region.
func PlaceSwitches(g *cfg.Graph, cd *ControlDeps, need NeedFunc) *Placement {
	toks := newTokenIDs(nil)
	needs, _ := tokenRows(g, toks, need, nil)
	users := needs.transpose(len(toks.names))
	mark := make([]int32, g.Len()) // token id + 1 of the walk that marked the fork
	var worklist []int32
	p := &Placement{Needs: map[int]map[string]bool{}}
	for t := range toks.names {
		worklist = append(worklist[:0], users.row(t)...)
		for len(worklist) > 0 {
			n := worklist[len(worklist)-1]
			worklist = worklist[:len(worklist)-1]
			for _, f := range cd.On[n] {
				if mark[f] == int32(t+1) {
					continue
				}
				mark[f] = int32(t + 1)
				worklist = append(worklist, int32(f))
				if p.Needs[f] == nil {
					p.Needs[f] = map[string]bool{}
				}
				p.Needs[f][toks.names[t]] = true
			}
		}
	}
	return p
}

// PlaceByIteratedCD is the Corollary 1 placement written as its
// definition: fork F switches token t iff F ∈ CD+ of the nodes needing t,
// one IteratedCD closure per token. vet places with it, so that its
// agreement with the translator's Figure 10 worklist is a cross-check.
func PlaceByIteratedCD(g *cfg.Graph, cd *ControlDeps, need NeedFunc) *Placement {
	users := map[string][]int{}
	for id := range g.Nodes {
		for _, tok := range need(id) {
			users[tok] = append(users[tok], id)
		}
	}
	p := &Placement{Needs: map[int]map[string]bool{}}
	for tok, us := range users {
		for f := range cd.IteratedCD(us) {
			if p.Needs[f] == nil {
				p.Needs[f] = map[string]bool{}
			}
			p.Needs[f][tok] = true
		}
	}
	return p
}

// AllSwitches is the placement of Schemas 1, 2 and 3: every fork switches
// every token of universe, so tokens follow control-flow edges exactly.
func AllSwitches(g *cfg.Graph, universe []string) *Placement {
	p := &Placement{Needs: map[int]map[string]bool{}}
	for _, n := range g.Nodes {
		if n.Kind != cfg.KindFork {
			continue
		}
		set := make(map[string]bool, len(universe))
		for _, tok := range universe {
			set[tok] = true
		}
		p.Needs[n.ID] = set
	}
	return p
}

// PlaceWithLoopControl is the switch placement of the optimized schemas.
// The loop entry/exit statements are themselves users of every token that
// circulates through their loop: a token that must cross a back edge (to
// get its next iteration tag) has to be routed back-or-out by every fork
// between the loop entry and that fork's postdominator, even when its next
// real reference lies beyond the postdominator. So the need function place
// sees is base extended by the loop needs, and since those grow when new
// switches appear at in-loop forks, placement and loop needs are iterated
// to their fixpoint. place is the Corollary 1 step, over g's control
// dependences: the translator passes Figure 10's worklist
// (PlaceSwitches), vet PlaceByIteratedCD.
//
// It returns the extended need the source vectors must also see, the
// placement and the loop needs. A place that switches only tokens its need
// names is monotone, so each round's loop needs hold the last round's and
// the (loop, token) pairs, finite, reach their fixpoint; a round whose loop
// needs drop a pair is an error, as no fixpoint need follow it.
func PlaceWithLoopControl(g *cfg.Graph, loops []cfg.Loop, base NeedFunc, place func(*cfg.Graph, *ControlDeps, NeedFunc) *Placement) (NeedFunc, *Placement, map[int]map[string]bool, error) {
	cd := ComputeControlDeps(g)
	var loopNeed map[int]map[string]bool
	extended := func(id int) []string {
		set := loopNeed[id]
		if len(set) == 0 {
			return base(id)
		}
		need := append(sortedNames(set), base(id)...)
		slices.Sort(need)
		return slices.Compact(need)
	}
	for round := 1; ; round++ {
		p := place(g, cd, extended)
		next := LoopNeeds(g, loops, base, p)
		if !holds(next, loopNeed) {
			return nil, nil, nil, fmt.Errorf("analysis: switch placement and loop needs reach no fixpoint: round %d drops loop needs", round)
		}
		if holds(loopNeed, next) {
			return extended, p, next, nil
		}
		loopNeed = next
	}
}

// holds reports whether every (statement, token) pair of sub is in sup.
func holds(sup, sub map[int]map[string]bool) bool {
	for id, toks := range sub {
		for tok := range toks {
			if !sup[id][tok] {
				return false
			}
		}
	}
	return true
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
func loopNeeds(loops []cfg.Loop, toks *tokenIDs, needs, switched idSets) (map[int]map[string]bool, idSets) {
	out := map[int]map[string]bool{}
	rows := idSets{off: make([]int32, len(loops)+1)}
	mark := make([]int32, len(toks.names)) // loop index + 1 of the row holding the token
	for i, l := range loops {
		for b := range l.Body {
			for _, row := range [...][]int32{needs.row(b), switched.row(b)} {
				for _, t := range row {
					if mark[t] != int32(i+1) {
						mark[t] = int32(i + 1)
						rows.ids = append(rows.ids, t)
					}
				}
			}
		}
		rows.endRow(i)
		set := toks.nameSet(rows.row(i))
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
