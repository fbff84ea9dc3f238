package vet

import (
	"fmt"
	"slices"

	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
)

// passDeterminacy proves that no input port can statically receive two
// tokens under one tag — the static form of the ETS matching discipline
// (§2.2) and of the §5 determinacy condition.
//
// The pass computes, for every output port, a guard set: the switch arms
// every token emitted from that port must have passed. Guards form a
// descending analysis from ⊤ ("never fires"): a port fed by several arcs
// keeps the guards common to all of them (a merge weakens the guard), a
// node firing requires all of its input ports (union of guards), a switch
// adds its own (switch, arm) pair to the respective output, and a loop
// entry resets the guard — iterations run under fresh tags, so guards
// accumulated outside the loop say nothing about collisions inside it.
//
// With guards in hand:
//
//   - a non-merge input port fed by two or more arcs receives two same-tag
//     tokens whenever both sources fire — the duplicate-token case of
//     machcheck's TagViolation;
//   - a merge port is legal exactly when its sources are pairwise
//     disjoint: some switch must send them down opposite arms, so no
//     single execution path produces both (§2.2: "the determinacy of the
//     graphs we construct is guaranteed because merge operators are
//     restricted to receive inputs from disjoint predicate paths").
//
// Param ports accept one arc per call site by construction; activations
// are separated by the tag's frame, so multiple arcs are legal there.
func passDeterminacy(u *Unit) ([]Diagnostic, string) {
	g := u.G
	guards := u.guardTable()
	if !guards.converged {
		return []Diagnostic{{
			Severity: SevError, Check: machcheck.InvalidConfig, Node: -1,
			Msg: "guard analysis exceeded its monotone step bound: the graph is malformed and its merges cannot be judged",
		}}, ""
	}
	var ds []Diagnostic
	for _, n := range g.Nodes {
		for p := 0; p < n.NIns; p++ {
			arcs := u.In(n.ID, p)
			if len(arcs) < 2 {
				continue
			}
			switch {
			case n.Kind == dfg.Merge && p == 0:
				for i := 0; i < len(arcs); i++ {
					for j := i + 1; j < len(arcs); j++ {
						ai, aj := &g.Arcs[arcs[i]], &g.Arcs[arcs[j]]
						gi := guards.at(ai.From, ai.FromPort)
						gj := guards.at(aj.From, aj.FromPort)
						if gi.top || gj.top {
							continue // a source that never fires cannot collide (reported by token-balance)
						}
						if !disjoint(gi, gj) {
							ds = append(ds, Diagnostic{
								Severity: SevError, Check: machcheck.Determinacy, Node: n.ID, Tok: n.Tok,
								Msg: fmt.Sprintf("merge inputs from d%d.%d and d%d.%d are not on disjoint predicate paths: one execution can deliver both tokens under one tag",
									ai.From, ai.FromPort, aj.From, aj.FromPort),
							})
						}
					}
				}
			case n.Kind == dfg.Param:
				// One arc per call site; activations are tag-disjoint.
			default:
				ds = append(ds, Diagnostic{
					Severity: SevError, Check: machcheck.TagViolation, Node: n.ID, Tok: n.Tok,
					Msg: fmt.Sprintf("input port %d is fed by %d arcs: two tokens can arrive under one tag", p, len(arcs)),
				})
			}
		}
	}
	return ds, ""
}

// predWire identifies a predicate by the wire feeding a switch's control
// input, not by the switch node: one fork emits one switch per routed
// token, all fed by the same predicate value, and arms of DIFFERENT
// switches on the SAME wire are still the same predicate decision (the
// diamond's merge receives switch-a's false arm and switch-b's true arm —
// disjoint because both switches test a<b).
type predWire struct{ node, port int }

// guardSet is a set of switch arms, or ⊤ (the port provably never emits).
// Predicate wire i owns bits 2i (true arm) and 2i+1 (false arm) of bits,
// which is meaningful only when top is false.
type guardSet struct {
	top  bool
	bits []uint64
}

// disjoint reports whether some predicate routes the two guard sets down
// opposite arms: swapping a's even and odd bits turns each arm into its
// opposite, which then only has to meet b.
func disjoint(a, b guardSet) bool {
	const even = 0x5555555555555555
	for i, w := range a.bits {
		if ((w&even)<<1|(w>>1)&even)&b.bits[i] != 0 {
			return true
		}
	}
	return false
}

// guardTable holds the guard set of every output port, one row of words
// uint64s per output row of the graph's index.
type guardTable struct {
	u     *Unit
	words int
	top   []bool
	bits  []uint64
	// wires[i] is the predicate owning bits 2i and 2i+1; arm[n] is the
	// true-arm bit of switch n's predicate.
	wires []predWire
	arm   []int
	// fire and port are the transfer functions' scratch sets.
	fire, port []uint64
	// converged is false when the solver gave up at its step bound.
	converged bool
}

func (t *guardTable) at(node, port int) guardSet {
	row := t.u.adj.OutRow(node) + port
	return guardSet{top: t.top[row], bits: t.bits[row*t.words : (row+1)*t.words]}
}

// guardTable solves the guard analysis on first use; the determinacy and
// alias-cover passes read the one table.
func (u *Unit) guardTable() *guardTable {
	u.guardOnce.Do(func() {
		u.guards = newGuardTable(u)
		u.guardBuilds++
	})
	return u.guards
}

// newGuardTable runs the descending fixpoint. All ports start at ⊤; every
// transfer function is monotone under ⊇ (intersection across a port's
// arcs, union across a node's ports), so chaotic iteration from ⊤ reaches
// the greatest fixpoint over the finite lattice of switch-arm sets in
// whatever order nodes are revisited. The order here is a worklist swept
// in reverse post-order: a node is recomputed only after an operand
// changed, and acyclic stretches settle in the sweep that reaches them.
func newGuardTable(u *Unit) *guardTable {
	g := u.G
	t := &guardTable{u: u, arm: make([]int, len(g.Nodes))}
	index := map[predWire]int{}
	for _, n := range g.Nodes {
		if n.Kind != dfg.Switch {
			continue
		}
		// A switch with a malformed control port (no arc, or several)
		// falls back to its own identity so its arms at least exclude
		// each other.
		w := predWire{-n.ID - 1, -1}
		if arcs := u.In(n.ID, 1); len(arcs) == 1 {
			w = predWire{g.Arcs[arcs[0]].From, g.Arcs[arcs[0]].FromPort}
		}
		i, ok := index[w]
		if !ok {
			i = len(t.wires)
			index[w] = i
			t.wires = append(t.wires, w)
		}
		t.arm[n.ID] = 2 * i
	}
	rows := u.adj.OutRow(len(g.Nodes))
	t.words = (2*len(t.wires) + 63) / 64
	t.top = make([]bool, rows)
	for i := range t.top {
		t.top[i] = true
	}
	t.bits = make([]uint64, (rows+2)*t.words)
	t.fire, t.port = t.bits[rows*t.words:(rows+1)*t.words], t.bits[(rows+1)*t.words:]

	// A set only ever shrinks, so a port changes at most once per arm plus
	// once to leave ⊤, and each change requeues the port's consumers: the
	// updates cannot outnumber the bound unless monotonicity is broken.
	bound := len(g.Nodes) + (2*len(t.wires)+1)*u.adj.NumArcs()
	clean := make([]bool, len(g.Nodes)) // outputs current with the operands
	for pending, steps := len(clean), 0; pending > 0; {
		for i := len(u.post) - 1; i >= 0; i-- {
			n := u.post[i]
			if clean[n] {
				continue
			}
			clean[n] = true
			pending--
			if steps++; steps > bound {
				return t
			}
			if !t.update(g.Nodes[n]) {
				continue
			}
			for _, ai := range u.adj.OutOf(n) {
				if to := g.Arcs[ai].To; clean[to] {
					clean[to] = false
					pending++
				}
			}
		}
	}
	t.converged = true
	return t
}

// update recomputes node n's output guards; reports whether they changed.
func (t *guardTable) update(n *dfg.Node) bool {
	row := t.u.adj.OutRow(n.ID)
	switch n.Kind {
	case dfg.Switch:
		top := t.firingGuard(n)
		word, bit := &t.fire[t.arm[n.ID]/64], uint64(1)<<(t.arm[n.ID]%64)
		fire := *word
		*word = fire | bit
		changed := t.set(row, top, t.fire)
		*word = fire | bit<<1
		return t.set(row+1, top, t.fire) || changed
	case dfg.LoopEntry:
		// Any-arrival: either the initial or the back port fires the entry,
		// so tokens leaving it carry only the guards common to both — the
		// outer-path arms the initial token passed (an iteration token is
		// the same token under an advanced tag), never loop-internal arms.
		return t.set(row, t.meetPort(t.fire, t.meetPort(t.fire, true, n.ID, 0), n.ID, 1), t.fire)
	}
	top, changed := t.firingGuard(n), false
	for p := row; p < t.u.adj.OutRow(n.ID+1); p++ {
		changed = t.set(p, top, t.fire) || changed
	}
	return changed
}

// set stores (top, bits) as the guard of output row; reports a change.
func (t *guardTable) set(row int, top bool, bits []uint64) bool {
	cur := t.bits[row*t.words : (row+1)*t.words]
	if t.top[row] == top && (top || slices.Equal(cur, bits)) {
		return false
	}
	t.top[row] = top
	copy(cur, bits)
	return true
}

// meetPort intersects the guards of the arcs entering (node, port) into
// the set (top, dst) and returns its new top flag. Starting from ⊤ this is
// the guard of the input port: a multi-arc port is a merge point, so only
// common guards survive, and an unfed port stays ⊤ — it never matches.
func (t *guardTable) meetPort(dst []uint64, top bool, node, port int) bool {
	for _, ai := range t.u.In(node, port) {
		a := &t.u.G.Arcs[ai]
		switch src := t.at(a.From, a.FromPort); {
		case src.top:
		case top:
			copy(dst, src.bits)
			top = false
		default:
			for i, w := range src.bits {
				dst[i] &= w
			}
		}
	}
	return top
}

// firingGuard leaves in t.fire the union over the node's input ports of
// each port's guard, and reports whether it is ⊤: the node fires only when
// every port delivers, so its tokens passed every arm any operand passed.
// Start and Param fire unconditionally (per program / per activation).
func (t *guardTable) firingGuard(n *dfg.Node) (top bool) {
	clear(t.fire)
	if n.Kind == dfg.Start || n.Kind == dfg.Param {
		return false
	}
	for p := 0; p < n.NIns; p++ {
		if t.meetPort(t.port, true, n.ID, p) {
			return true
		}
		for i, w := range t.port {
			t.fire[i] |= w
		}
	}
	return false
}
