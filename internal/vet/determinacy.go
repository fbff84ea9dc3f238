package vet

import (
	"fmt"

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
		for p := 0; p < int(n.NIns); p++ {
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
						if !guards.disjoint(gi, gj) {
							ds = append(ds, Diagnostic{
								Severity: SevError, Check: machcheck.Determinacy, Node: int(n.ID), Tok: g.Name(n.Tok),
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
					Severity: SevError, Check: machcheck.TagViolation, Node: int(n.ID), Tok: g.Name(n.Tok),
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
type predWire struct{ node, port int32 }

// guardSet is a set of switch arms, or ⊤ (the port provably never emits).
// Predicate wire i owns arms 2i (true arm) and 2i+1 (false arm). id names
// the set in its table, and is meaningful only when top is false.
type guardSet struct {
	top bool
	id  int32
}

// guardTable holds the guard set of every output port. Sets are
// hash-consed lists of arms in descending order: set 0 is empty, and set
// id > 0 is arm cells[id].arm followed by set cells[id].next. A set that
// adds arms to another shares it as its tail, and equal sets have one id,
// so the table grows with the arms the graph's switches add rather than
// with ports × predicates. The sets headed by one arm are chained from
// head[arm] through their cells' sib links, which is where cons looks a
// set up: few tails ever follow one arm.
type guardTable struct {
	u *Unit
	// row[r] is the id of output row r's set, or topID.
	row   []int32
	cells []guardCell
	head  []int32 // per arm, the first cell holding it, or 0
	// wires[i] is the predicate owning arms 2i and 2i+1; arm[n] is the
	// true arm of switch n's predicate.
	wires        []predWire
	arm          []int32
	stack, ports []int32 // the set operations' scratch
	// converged is false when the solver gave up at its step bound.
	converged bool
}

// guardCell is one arm of a set and the set of the arms below it; sib is
// the next cell holding the same arm, or 0. both marks a set holding the
// two arms of some predicate.
type guardCell struct {
	arm, next, sib int32
	both           bool
}

const topID = -1

func (t *guardTable) at(node, port int32) guardSet {
	id := t.row[int32(t.u.adj.OutRow(node))+port]
	return guardSet{top: id == topID, id: id}
}

// cons returns the id of the set arm followed by set next, whose arms are
// all below arm.
func (t *guardTable) cons(arm, next int32) int32 {
	t.u.work.GuardCons++
	for prev, id := int32(0), t.head[arm]; id != 0; prev, id = id, t.cells[id].sib {
		t.u.work.GuardSteps++
		if t.cells[id].next != next {
			continue
		}
		if prev != 0 { // to the front: a set just asked for is asked for again
			t.cells[prev].sib, t.cells[id].sib, t.head[arm] = t.cells[id].sib, t.head[arm], id
		}
		return id
	}
	id := int32(len(t.cells))
	c := t.cells[next]
	t.cells = append(t.cells, guardCell{arm: arm, next: next, sib: t.head[arm], both: c.both || next != 0 && c.arm == arm^1})
	t.head[arm] = id
	return id
}

// build returns the set of the arms on the scratch stack from base up,
// highest last, above the set tail, and pops them.
func (t *guardTable) build(base int, tail int32) int32 {
	for i := len(t.stack) - 1; i >= base; i-- {
		tail = t.cons(t.stack[i], tail)
	}
	t.stack = t.stack[:base]
	return tail
}

// intersect returns the set of the arms both a and b hold.
func (t *guardTable) intersect(a, b int32) int32 {
	base := len(t.stack)
	for a != b && a != 0 && b != 0 {
		t.u.work.GuardSteps++
		switch ca, cb := t.cells[a], t.cells[b]; {
		case ca.arm > cb.arm:
			a = ca.next
		case ca.arm < cb.arm:
			b = cb.next
		default:
			t.stack = append(t.stack, ca.arm)
			a, b = ca.next, cb.next
		}
	}
	if a != b {
		a = 0
	}
	return t.build(base, a)
}

// union returns the set of the arms a or b holds.
func (t *guardTable) union(a, b int32) int32 {
	base := len(t.stack)
	for a != b && a != 0 && b != 0 {
		t.u.work.GuardSteps++
		switch ca, cb := t.cells[a], t.cells[b]; {
		case ca.arm > cb.arm:
			t.stack = append(t.stack, ca.arm)
			a = ca.next
		case ca.arm < cb.arm:
			t.stack = append(t.stack, cb.arm)
			b = cb.next
		default:
			t.stack = append(t.stack, ca.arm)
			a, b = ca.next, cb.next
		}
	}
	return t.build(base, max(a, b)) // a == b, or one of them is empty
}

// withArm returns the set of a's arms plus arm.
func (t *guardTable) withArm(a, arm int32) int32 {
	base := len(t.stack)
	for ; a != 0 && t.cells[a].arm > arm; a = t.cells[a].next {
		t.u.work.GuardSteps++
		t.stack = append(t.stack, t.cells[a].arm)
	}
	if a == 0 || t.cells[a].arm != arm {
		a = t.cons(arm, a)
	}
	return t.build(base, a)
}

// disjoint reports whether some predicate routes the two guard sets down
// opposite arms. Below the first cell the two lists share, they hold the
// same arms, which route the sets apart exactly when they hold both arms
// of a predicate.
func (t *guardTable) disjoint(x, y guardSet) bool {
	a, b := x.id, y.id
	for a != b && a != 0 && b != 0 {
		wa, wb := t.cells[a].arm>>1, t.cells[b].arm>>1
		switch {
		case wa > wb:
			a = t.cells[a].next
		case wa < wb:
			b = t.cells[b].next
		default:
			// sides collects the arms of wire w from the head of set s: bit
			// 0 for the true arm, bit 1 for the false one.
			sides := func(s *int32) int {
				m := 0
				for ; *s != 0 && t.cells[*s].arm>>1 == wa; *s = t.cells[*s].next {
					m |= 1 << (t.cells[*s].arm & 1)
				}
				return m
			}
			if ma, mb := sides(&a), sides(&b); ma&1 != 0 && mb&2 != 0 || ma&2 != 0 && mb&1 != 0 {
				return true
			}
		}
	}
	return a == b && t.cells[a].both
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
	g := u.searched().G
	t := &guardTable{u: u, arm: make([]int32, len(g.Nodes)), cells: []guardCell{{}}}
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
		t.arm[n.ID] = int32(2 * i)
	}
	t.head = make([]int32, 2*len(t.wires))
	t.row = make([]int32, u.adj.OutRow(int32(len(g.Nodes))))
	for i := range t.row {
		t.row[i] = topID
	}

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
			for _, ai := range u.adj.OutOf(int32(n)) {
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
		fire, arm := t.firingGuard(n), t.arm[n.ID]
		if fire == topID {
			return t.set(row, topID) || t.set(row+1, topID)
		}
		changed := t.set(row, t.withArm(fire, arm))
		return t.set(row+1, t.withArm(fire, arm+1)) || changed
	case dfg.LoopEntry:
		// Any-arrival: either the initial or the back port fires the entry,
		// so tokens leaving it carry only the guards common to both — the
		// outer-path arms the initial token passed (an iteration token is
		// the same token under an advanced tag), never loop-internal arms.
		return t.set(row, t.meetPort(t.meetPort(topID, n.ID, 0), n.ID, 1))
	}
	fire, changed := t.firingGuard(n), false
	for p := row; p < t.u.adj.OutRow(n.ID+1); p++ {
		changed = t.set(p, fire) || changed
	}
	return changed
}

// set stores set id (or topID) as the guard of output row; reports a
// change.
func (t *guardTable) set(row int, id int32) bool {
	if t.row[row] == id {
		return false
	}
	t.row[row] = id
	return true
}

// meetPort intersects the guards of the arcs entering (node, port) into
// set id (or topID) and returns the result. Starting from ⊤ this is the
// guard of the input port: a multi-arc port is a merge point, so only
// common guards survive, and an unfed port stays ⊤ — it never matches.
func (t *guardTable) meetPort(id, node int32, port int) int32 {
	for _, ai := range t.u.In(node, port) {
		a := &t.u.G.Arcs[ai]
		switch src := t.at(a.From, a.FromPort); {
		case src.top:
		case id == topID:
			id = src.id
		default:
			id = t.intersect(id, src.id)
		}
	}
	return id
}

// firingGuard returns the union over the node's input ports of each
// port's guard, or topID when one is ⊤: the node fires only when every
// port delivers, so its tokens passed every arm any operand passed.
// Start and Param fire unconditionally (per program / per activation).
// The ports are united pairwise, in rounds that halve them, so that the
// many ports of end, adding arms in no particular order, do not each
// rebuild the cells above the arm they add.
func (t *guardTable) firingGuard(n *dfg.Node) int32 {
	if n.Kind == dfg.Start || n.Kind == dfg.Param {
		return 0
	}
	ports := t.ports[:0]
	for p := 0; p < int(n.NIns); p++ {
		port := t.meetPort(topID, n.ID, p)
		if port == topID {
			return topID
		}
		ports = append(ports, port)
	}
	for len(ports) > 1 {
		half := ports[:0]
		for i := 0; i < len(ports); i += 2 {
			if i+1 < len(ports) {
				half = append(half, t.union(ports[i], ports[i+1]))
			} else {
				half = append(half, ports[i])
			}
		}
		ports = half
	}
	t.ports = ports
	if len(ports) == 0 {
		return 0
	}
	return ports[0]
}
