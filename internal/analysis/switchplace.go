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
	pl := newPlan(g, nil, nil, need, nil, cd)
	pl.switched = Figure10(cd, pl.need.transpose(len(pl.toks.names)), &pl.Work)
	return pl.placement()
}

// A Step is the Corollary 1 placement of one round of
// PlaceWithLoopControl, on token ids: given, per token, the nodes that
// need it (ascending), it returns, per CFG node, the tokens switched there
// (ascending), counting its worklist pops in w.
type Step func(cd *ControlDeps, users idSets, w *Work) idSets

// Figure10 is the Step of PlaceSwitches, the translator's.
func Figure10(cd *ControlDeps, users idSets, w *Work) idSets {
	mark := make([]int32, len(cd.On)) // token id + 1 of the walk that marked the fork
	var worklist []int32
	var forks, toks []int32 // the (fork, token) pairs marked, by token
	for t := range len(users.off) - 1 {
		worklist = append(worklist[:0], users.row(t)...)
		for len(worklist) > 0 {
			n := worklist[len(worklist)-1]
			worklist = worklist[:len(worklist)-1]
			w.Pops++
			for _, f := range cd.On[n] {
				if mark[f] == int32(t+1) {
					continue
				}
				mark[f] = int32(t + 1)
				worklist = append(worklist, int32(f))
				forks, toks = append(forks, int32(f)), append(toks, int32(t))
			}
		}
	}
	return byNode(len(cd.On), forks, toks)
}

// ByIteratedCD is the Corollary 1 placement written as its definition:
// fork F switches token t iff F ∈ CD+ of the nodes needing t, one
// IteratedCD closure per token. vet places with it, so that its
// agreement with the translator's Figure 10 worklist is a cross-check.
func ByIteratedCD(cd *ControlDeps, users idSets, w *Work) idSets {
	var forks, toks []int32
	c := cd.newClosure()
	for t := range len(users.off) - 1 {
		for _, f := range c.of(users.row(t), &w.Pops) {
			forks, toks = append(forks, f), append(toks, int32(t))
		}
	}
	return byNode(len(cd.On), forks, toks)
}

// byNode gathers (node, token) pairs, in ascending token order, into
// rows by node.
func byNode(n int, nodes, toks []int32) idSets {
	s := idSets{off: make([]int32, n+1), ids: make([]int32, len(toks))}
	for _, v := range nodes {
		s.off[v+1]++
	}
	for v := range n {
		s.off[v+1] += s.off[v]
	}
	at := slices.Clone(s.off[:n])
	for i, v := range nodes {
		s.ids[at[v]] = toks[i]
		at[v]++
	}
	return s
}

// allSwitches is the placement of Schemas 1, 2 and 3: every fork switches
// every token of universe, so tokens follow control-flow edges exactly.
func allSwitches(g *cfg.Graph, universe []string) *Placement {
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

// Work counts what a Plan's analyses did, each in the unit of its inner
// loop, so that their cost can be read without a clock.
type Work struct {
	// Interns counts token names looked up to number them, Pops the CD+
	// worklist pops of the placement steps, Cells the source-vector cells
	// the propagation visits.
	Interns, Pops, Cells int
}

// Plan is the token plan of one translation unit — which forks switch
// which access tokens and which tokens each loop circulates — worked out
// on dense token ids: every token name is numbered once, the sorted
// universe first, and every node's need is read once, so that the
// placement rounds and the source vectors run on the same rows.
type Plan struct {
	// Placement is the plan's switch placement by token name.
	Placement *Placement
	// Work is what planning (and SourceVectors) did.
	Work Work

	g        *cfg.Graph
	loops    []cfg.Loop
	cd       *ControlDeps
	universe []string // sorted
	toks     *tokenIDs
	// need holds per CFG node the tokens the source vectors see it need:
	// its own, and at a loop's control statements the tokens the loop
	// circulates; switched the tokens switched at it.
	need, switched idSets
	bodies         [][]int32 // per loop, its body's nodes
}

// newPlan numbers universe (sorted) and then the tokens of need and of
// placement p, reading need once per node; cd may be nil where nothing
// asks for control dependences or postdominators.
func newPlan(g *cfg.Graph, loops []cfg.Loop, universe []string, need NeedFunc, p *Placement, cd *ControlDeps) *Plan {
	pl := &Plan{g: g, loops: loops, cd: cd, universe: slices.Clone(universe)}
	slices.Sort(pl.universe)
	pl.toks = newTokenIDs(pl.universe)
	pl.need, pl.switched = tokenRows(g, pl.toks, need, p)
	pl.Work.Interns = pl.toks.interns
	return pl
}

// TokenID returns the number of token tok in the plan, or -1; the
// universe's tokens are numbered by their sorted position.
func (pl *Plan) TokenID(tok string) int {
	if t, ok := pl.toks.id[tok]; ok {
		return int(t)
	}
	return -1
}

// placement returns the switched rows by token name.
func (pl *Plan) placement() *Placement {
	p := &Placement{Needs: map[int]map[string]bool{}}
	for id := range pl.g.Len() {
		if row := pl.switched.row(id); len(row) > 0 {
			p.Needs[id] = pl.toks.nameSet(row)
		}
	}
	return p
}

// PlaceEverywhere is the plan of Schemas 1, 2 and 3: every fork switches
// every token of universe, so tokens follow control-flow edges exactly.
func PlaceEverywhere(g *cfg.Graph, loops []cfg.Loop, universe []string, base NeedFunc) *Plan {
	all := allSwitches(g, universe)
	pl := newPlan(g, loops, universe, base, all, ComputeControlDeps(g))
	pl.Placement = all
	return pl
}

// PlaceWithLoopControl is the switch placement of the optimized schemas.
// The loop entry/exit statements are themselves users of every token that
// circulates through their loop: a token that must cross a back edge (to
// get its next iteration tag) has to be routed back-or-out by every fork
// between the loop entry and that fork's postdominator, even when its next
// real reference lies beyond the postdominator. So the need function
// place sees is base extended by the loop needs, and since those grow when
// new switches appear at in-loop forks, placement and loop needs are
// iterated to their fixpoint. step is the Corollary 1 placement, over g's
// control dependences: the translator passes Figure 10's worklist
// (Figure10), vet ByIteratedCD.
//
// The tokens are numbered, and base read, once: every round runs on the
// same rows. The plan's need is base extended by the last round's loop
// needs, which the source vectors must also see, and which they hold. A step that switches only tokens its
// need names is monotone, so each round's loop needs hold the last
// round's and the (loop, token) pairs, finite, reach their fixpoint; a
// round whose loop needs drop a pair is an error, as no fixpoint need
// follow it.
func PlaceWithLoopControl(g *cfg.Graph, loops []cfg.Loop, universe []string, base NeedFunc, step Step) (*Plan, error) {
	pl := newPlan(g, loops, universe, base, nil, ComputeControlDeps(g))
	ntoks := len(pl.toks.names)
	baseRows := pl.need
	var loopRows idSets // per loop, the tokens it circulates
	for round := 1; ; round++ {
		pl.need = pl.extend(baseRows, loopRows)
		pl.switched = step(pl.cd, pl.need.transpose(ntoks), &pl.Work)
		next := pl.loopRows(baseRows, pl.switched)
		if !holds(next, loopRows) {
			return nil, fmt.Errorf("analysis: switch placement and loop needs reach no fixpoint: round %d drops loop needs", round)
		}
		if holds(loopRows, next) {
			break
		}
		loopRows = next
	}
	pl.Placement = pl.placement()
	return pl, nil
}

// extend returns base with, at each loop's control statements, the
// tokens loopRows gives the loop added (none before the first round).
func (pl *Plan) extend(base, loopRows idSets) idSets {
	if len(loopRows.off) == 0 {
		return base
	}
	extra := make([][]int32, pl.g.Len()) // the last loop a statement controls wins
	for i, l := range pl.loops {
		extra[l.Entry] = loopRows.row(i)
		for _, x := range l.Exits {
			extra[x] = loopRows.row(i)
		}
	}
	out := idSets{off: make([]int32, pl.g.Len()+1), ids: make([]int32, 0, len(base.ids))}
	for id := range pl.g.Len() {
		out.ids = append(out.ids, base.row(id)...)
		out.ids = append(out.ids, extra[id]...)
		out.endRow(id)
	}
	return out
}

// holds reports whether every (loop, token) pair of sub is in sup; an
// empty idSets holds no pair.
func holds(sup, sub idSets) bool {
	for i := range len(sub.off) - 1 {
		var have []int32
		if len(sup.off) > i+1 {
			have = sup.row(i)
		}
		for _, t := range sub.row(i) {
			if _, ok := slices.BinarySearch(have, t); !ok {
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
	pl := newPlan(g, loops, nil, need, p, nil)
	return pl.loopNeedOf(pl.loopRows(pl.need, pl.switched))
}

// loopRows returns, per loop, the tokens needed or switched in its body.
func (pl *Plan) loopRows(needs, switched idSets) idSets {
	rows := idSets{off: make([]int32, len(pl.loops)+1)}
	if pl.bodies == nil { // each body's nodes, listed once for every round
		pl.bodies = make([][]int32, len(pl.loops))
		for i, l := range pl.loops {
			for b := range l.Body {
				pl.bodies[i] = append(pl.bodies[i], int32(b))
			}
		}
	}
	mark := make([]int32, len(pl.toks.names)) // loop index + 1 of the row holding the token
	for i := range pl.loops {
		for _, b := range pl.bodies[i] {
			for _, row := range [...][]int32{needs.row(int(b)), switched.row(int(b))} {
				for _, t := range row {
					if mark[t] != int32(i+1) {
						mark[t] = int32(i + 1)
						rows.ids = append(rows.ids, t)
					}
				}
			}
		}
		rows.endRow(i)
	}
	return rows
}

// loopNeedOf names the tokens of each loop's row at its entry and exits.
func (pl *Plan) loopNeedOf(rows idSets) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for i, l := range pl.loops {
		set := pl.toks.nameSet(rows.row(i))
		out[l.Entry] = set
		for _, x := range l.Exits {
			out[x] = set
		}
	}
	return out
}

// Without returns the plan with the (fork, token id) slots drop reports
// taken out of its placement, itself when drop reports none.
func (pl *Plan) Without(drop func(fork, tok int) bool) *Plan {
	var out *Plan
	for id := range pl.g.Len() {
		for _, t := range pl.switched.row(id) {
			if drop(id, int(t)) {
				out = pl
				break
			}
		}
	}
	if out == nil {
		return pl
	}
	cp := *pl
	cp.switched = idSets{off: make([]int32, pl.g.Len()+1)}
	for id := range pl.g.Len() {
		for _, t := range pl.switched.row(id) {
			if !drop(id, int(t)) {
				cp.switched.ids = append(cp.switched.ids, t)
			}
		}
		cp.switched.off[id+1] = int32(len(cp.switched.ids))
	}
	cp.Placement = cp.placement()
	return &cp
}

func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
