package analysis

import (
	"fmt"
	"slices"

	"ctdf/internal/cfg"
)

// NeedFunc reports, for a CFG node, which access tokens the node consumes
// and regenerates, by name, sorted. Token names are abstract: for Schema
// 2 they are variable names (a node needs the tokens of the variables it
// references); for Schema 3 they are cover-element names (a node needs
// the access set C[x] of every variable x it references). The analyses
// themselves read the need as rows of token ids (Rows); the name-based
// entry points of names.go number a NeedFunc once.
type NeedFunc func(nodeID int) []string

// Placement is the result of switch placement (Figure 10): for each fork
// node, the access tokens for which the fork must create a switch.
type Placement struct {
	// Universe names the token ids, sorted: id t is Universe[t].
	Universe []string
	// Needs[f] lists, ascending, the ids of the tokens needing a switch
	// at CFG node f; it is empty but at forks.
	Needs [][]int32
}

// NeedsSwitch reports whether fork f needs a switch for token tok, the
// name a graph's switch carries.
func (p *Placement) NeedsSwitch(f int, tok string) bool {
	t, ok := slices.BinarySearch(p.Universe, tok)
	if !ok || f < 0 || f >= len(p.Needs) {
		return false
	}
	_, ok = slices.BinarySearch(p.Needs[f], int32(t))
	return ok
}

// placementOf views the switched rows as a Placement.
func placementOf(universe []string, switched Rows) *Placement {
	p := &Placement{Universe: universe, Needs: make([][]int32, len(switched.off)-1)}
	for f := range p.Needs {
		p.Needs[f] = switched.Row(f)
	}
	return p
}

// A Step is the Corollary 1 placement of one round of
// PlaceWithLoopControl, on token ids: given, per token, the nodes that
// need it (ascending), it returns, per CFG node, the tokens switched there
// (ascending), counting its worklist pops in w.
type Step func(cd *ControlDeps, users Rows, w *Work) Rows

// Figure10 is the Step of PlaceSwitches, the translator's.
func Figure10(cd *ControlDeps, users Rows, w *Work) Rows {
	mark := make([]int32, len(cd.On)) // token id + 1 of the walk that marked the fork
	var worklist []int32
	var forks, toks []int32 // the (fork, token) pairs marked, by token
	for t := range len(users.off) - 1 {
		worklist = append(worklist[:0], users.Row(t)...)
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
func ByIteratedCD(cd *ControlDeps, users Rows, w *Work) Rows {
	var forks, toks []int32
	c := cd.newClosure()
	for t := range len(users.off) - 1 {
		for _, f := range c.of(users.Row(t), &w.Pops) {
			forks, toks = append(forks, f), append(toks, int32(t))
		}
	}
	return byNode(len(cd.On), forks, toks)
}

// byNode gathers (node, token) pairs, in ascending token order, into
// rows by node.
func byNode(n int, nodes, toks []int32) Rows {
	s := Rows{off: make([]int32, n+1), ids: make([]int32, len(toks))}
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

// Work counts what a Plan's analyses did, each in the unit of its inner
// loop, so that their cost can be read without a clock.
type Work struct {
	// Pops counts the CD+ worklist pops of the placement steps, Cells the
	// entries the source-vector walk makes, moves, records and unites.
	Pops, Cells int
}

// Plan is the token plan of one translation unit — which forks switch
// which access tokens and which tokens each loop circulates — worked out
// on the token ids the caller numbered: the placement rounds and the
// source vectors run on the same need rows.
type Plan struct {
	// Placement is the plan's switch placement.
	Placement *Placement
	// Work is what planning (and SourceVectors) did.
	Work Work

	g        *cfg.Graph
	loops    []cfg.Loop
	cd       *ControlDeps
	universe []string // sorted: token id t is universe[t]
	// base holds per CFG node the tokens it needs, as the caller numbered
	// them; need the tokens the source vectors see it need: its own, and
	// at a loop's control statements the tokens the loop circulates;
	// switched the tokens switched at it.
	base, need, switched Rows
	bodies               [][]int32 // per loop, its body's nodes
}

// PlaceEverywhere is the plan of Schemas 1, 2 and 3: every fork switches
// every token of universe, so tokens follow control-flow edges exactly.
// need holds per CFG node the ids of the tokens it needs, ids being
// positions in universe, which is sorted.
func PlaceEverywhere(g *cfg.Graph, loops []cfg.Loop, universe []string, need Rows) *Plan {
	pl := &Plan{g: g, loops: loops, cd: ComputeControlDeps(g), universe: universe, base: need, need: need}
	all := make([]int32, len(universe))
	for t := range all {
		all[t] = int32(t)
	}
	pl.switched = NewRows(g.Len(), 0)
	for id, n := range g.Nodes {
		if n.Kind == cfg.KindFork {
			pl.switched.Add(all...)
		}
		pl.switched.EndRow(id)
	}
	pl.Placement = placementOf(universe, pl.switched)
	return pl
}

// PlaceWithLoopControl is the switch placement of the optimized schemas.
// The loop entry/exit statements are themselves users of every token that
// circulates through their loop: a token that must cross a back edge (to
// get its next iteration tag) has to be routed back-or-out by every fork
// between the loop entry and that fork's postdominator, even when its next
// real reference lies beyond the postdominator. So the need place sees is
// base extended by the loop needs, and since those grow when new switches
// appear at in-loop forks, placement and loop needs are iterated to their
// fixpoint. step is the Corollary 1 placement, over g's control
// dependences: the translator passes Figure 10's worklist (Figure10), vet
// ByIteratedCD (through PlaceWith). base holds per CFG node the ids of
// the tokens it needs, ids being positions in universe, which is sorted.
//
// Every round runs on the same rows. The plan's need is base extended by
// the last round's loop needs, which the source vectors must also see,
// and which they hold. A step that switches only tokens its need names is
// monotone, so each round's loop needs hold the last round's and the
// (loop, token) pairs, finite, reach their fixpoint; a round whose loop
// needs drop a pair is an error, as no fixpoint need follow it.
func PlaceWithLoopControl(g *cfg.Graph, loops []cfg.Loop, universe []string, base Rows, step Step) (*Plan, error) {
	return (&Plan{g: g, loops: loops, cd: ComputeControlDeps(g), universe: universe, base: base}).place(step)
}

// PlaceWith is PlaceWithLoopControl by step on the plan's own need, the
// one its caller numbered, and control dependences: a new plan.
func (pl *Plan) PlaceWith(step Step) (*Plan, error) {
	return (&Plan{g: pl.g, loops: pl.loops, cd: pl.cd, universe: pl.universe, base: pl.base}).place(step)
}

// Need returns per CFG node the ids of the tokens it needs, as the
// plan's caller numbered them.
func (pl *Plan) Need() Rows { return pl.base }

// place iterates placement by step and loop needs to their fixpoint.
func (pl *Plan) place(step Step) (*Plan, error) {
	base, universe := pl.base, pl.universe
	var loopRows Rows // per loop, the tokens it circulates
	for round := 1; ; round++ {
		pl.need = pl.extend(base, loopRows)
		pl.switched = step(pl.cd, pl.need.transpose(len(universe)), &pl.Work)
		next := pl.loopRows(base, pl.switched)
		if !holds(next, loopRows) {
			return nil, fmt.Errorf("analysis: switch placement and loop needs reach no fixpoint: round %d drops loop needs", round)
		}
		if holds(loopRows, next) {
			break
		}
		loopRows = next
	}
	pl.Placement = placementOf(universe, pl.switched)
	return pl, nil
}

// extend returns base with, at each loop's control statements, the
// tokens loopRows gives the loop added (none before the first round).
func (pl *Plan) extend(base, loopRows Rows) Rows {
	if len(loopRows.off) == 0 {
		return base
	}
	extra := make([][]int32, pl.g.Len()) // the last loop a statement controls wins
	for i, l := range pl.loops {
		extra[l.Entry] = loopRows.Row(i)
		for _, x := range l.Exits {
			extra[x] = loopRows.Row(i)
		}
	}
	out := Rows{off: make([]int32, pl.g.Len()+1), ids: make([]int32, 0, len(base.ids))}
	for id := range pl.g.Len() {
		out.ids = append(out.ids, base.Row(id)...)
		out.ids = append(out.ids, extra[id]...)
		out.EndRow(id)
	}
	return out
}

// holds reports whether every (loop, token) pair of sub is in sup; an
// empty Rows holds no pair.
func holds(sup, sub Rows) bool {
	for i := range len(sub.off) - 1 {
		var have []int32
		if len(sup.off) > i+1 {
			have = sup.Row(i)
		}
		for _, t := range sub.Row(i) {
			if _, ok := slices.BinarySearch(have, t); !ok {
				return false
			}
		}
	}
	return true
}

// loopRows returns, per loop, the tokens needed or switched in its body.
func (pl *Plan) loopRows(needs, switched Rows) Rows {
	rows := Rows{off: make([]int32, len(pl.loops)+1)}
	if pl.bodies == nil { // each body's nodes, listed once for every round
		pl.bodies = make([][]int32, len(pl.loops))
		for i, l := range pl.loops {
			for b := range l.Body {
				pl.bodies[i] = append(pl.bodies[i], int32(b))
			}
		}
	}
	mark := make([]int32, len(pl.universe)) // loop index + 1 of the row holding the token
	for i := range pl.loops {
		for _, b := range pl.bodies[i] {
			for _, row := range [...][]int32{needs.Row(int(b)), switched.Row(int(b))} {
				for _, t := range row {
					if mark[t] != int32(i+1) {
						mark[t] = int32(i + 1)
						rows.ids = append(rows.ids, t)
					}
				}
			}
		}
		rows.EndRow(i)
	}
	return rows
}

// Without returns the plan with the (fork, token id) slots drop reports
// taken out of its placement, itself when drop reports none.
func (pl *Plan) Without(drop func(fork, tok int) bool) *Plan {
	cp := *pl
	cp.switched = NewRows(pl.g.Len(), len(pl.switched.ids))
	for id := range pl.g.Len() {
		for _, t := range pl.switched.Row(id) {
			if !drop(id, int(t)) {
				cp.switched.Add(t)
			}
		}
		cp.switched.EndRow(id)
	}
	if cp.switched.Entries() == pl.switched.Entries() {
		return pl
	}
	cp.Placement = placementOf(cp.universe, cp.switched)
	return &cp
}
