package cfg

import (
	"fmt"
	"sort"
)

// This file implements the interval transformation of paper §3: identify
// the cyclic intervals of the CFG and insert loop-entry and loop-exit
// control statements so that translation Schema 2 (and the optimized
// construction) can give tokens of different iterations different tags.
//
// For reducible control-flow graphs — which the paper notes cover "most
// control-flow graphs arising from programs" — nested cyclic intervals
// coincide with natural loops, so we identify loops through the dominator
// tree: a back edge t→h (h dominates t) defines the natural loop of h.
// Arcs into the header from outside the loop are redirected to a single
// loop-entry node, all back edges are redirected to the same loop-entry
// node (flagged as iteration re-entries), and a loop-exit node is spliced
// onto every edge A→B with A inside the cyclic part and B outside.
// Irreducible graphs are reported as an error: MakeReducible (paper
// footnote 5) must run first. The nest the transformation works from is
// also what it returns: each Loop is read off the nest's record of it.

// ErrIrreducible is returned (wrapped) by InsertLoopControl for CFGs whose
// cycles cannot be decomposed into nested single-entry intervals.
var ErrIrreducible = fmt.Errorf("irreducible control flow (needs MakeReducible, paper footnote 5)")

// Loop describes one transformed loop in a CFG produced by
// InsertLoopControl.
type Loop struct {
	// Entry is the loop-entry node ID; Header the original header join it
	// feeds; Exits the loop-exit node IDs.
	Entry  int
	Header int
	Exits  []int
	// Body is the set of nodes in the cyclic part of the interval,
	// including Entry and the bodies of nested loops, excluding Exits.
	Body map[int]bool
	// Depth is the nesting depth (outermost loop = 1).
	Depth int
}

// InsertLoopControl returns a copy of g with loop-entry/loop-exit nodes
// inserted for every cyclic interval, innermost first. The input graph is
// not modified. Graphs without cycles are returned as a (validated) copy
// with no loops.
//
// Dominators and the loop nest are computed once, on the input: inserting
// control statements only splits edges, so it changes neither which
// original nodes a loop holds nor how loops nest. What it does change is
// each enclosing loop's size, by the statements that land inside it, and
// sizes decide the order (smallest body first, then header id) and with
// it the ids the new nodes get; so every pending loop keeps its member
// list current as inner loops are transformed, and at the end those lists
// are the loops' bodies.
func InsertLoopControl(g *Graph) (*Graph, []Loop, error) {
	dom, err := reducibleDominators(g)
	if err != nil {
		return nil, nil, err
	}
	out := g.Clone()
	nest := findLoopNest(out, dom)
	// ready holds size·n + header for every pending loop whose inner
	// loops are all done; its size is then final.
	var ready intHeap
	n := out.Len()
	enqueue := func(l *pendingLoop) {
		if l.kids == 0 {
			ready.push(len(l.members)*n + l.header)
		}
	}
	for i := range nest.loops {
		enqueue(&nest.loops[i])
	}
	for len(ready) > 0 {
		i := nest.at[ready.pop()%n]
		nest.transform(out, i)
		if p := nest.loops[i].parent; p >= 0 {
			nest.loops[p].kids--
			enqueue(&nest.loops[p])
		}
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("cfg: loop transformation broke the graph: %w", err)
	}
	return out, nest.result(), nil
}

// Clone deep-copies the graph structure (expressions are shared; they are
// immutable after parsing).
func (g *Graph) Clone() *Graph {
	out := &Graph{Start: g.Start, End: g.End, Prog: g.Prog, Nodes: make([]*Node, len(g.Nodes))}
	nodes := make([]Node, len(g.Nodes))
	edges := make([]int, 2*g.NumEdges())
	// Each list gets exactly its own length of the shared array, so an
	// append to it moves it out instead of overwriting its neighbour.
	own := func(xs []int) []int {
		k := copy(edges, xs)
		cp := edges[:k:k]
		edges = edges[k:]
		return cp
	}
	for i, n := range g.Nodes {
		nn := &nodes[i]
		*nn = *n
		nn.Succs, nn.Preds = own(n.Succs), own(n.Preds)
		if n.BackPreds != nil {
			nn.BackPreds = make(map[int]bool, len(n.BackPreds))
			for k, v := range n.BackPreds {
				nn.BackPreds[k] = v
			}
		}
		out.Nodes[i] = nn
	}
	return out
}

// pendingLoop is a natural loop of the nest, given its control statements
// when its turn comes.
type pendingLoop struct {
	header int
	parent int // innermost enclosing loop, -1 for none
	kids   int // directly enclosed loops still pending
	// members is the loop body in ascending id order: the natural loop
	// and, appended as they are created, the control statements of
	// enclosed loops that lie inside it.
	members []int
	// entry and exits are the loop's own control statements, set by
	// transform.
	entry int
	exits []int
}

// loopNest is the forest of natural loops of a reducible graph whose
// headers are not loop entries yet.
type loopNest struct {
	loops []pendingLoop
	at    []int32 // at[h] indexes the loop headed by node h, -1 if none is
	// in is a stamp set over nodes: transforming loop i stamps its
	// members with i+1.
	in []int32
}

// findLoopNest identifies the natural loops of g through its dominator
// tree: a back edge t→h (h dominates t) puts in the loop of h every node
// that reaches t without passing through h.
func findLoopNest(g *Graph, dom *DomTree) *loopNest {
	n := g.Len()
	nest := &loopNest{at: make([]int32, n), in: make([]int32, n)}
	for i := range nest.at {
		nest.at[i] = -1
	}
	for _, t := range g.Nodes {
		for _, h := range t.Succs {
			if !dom.Dominates(h, t.ID) || g.Nodes[h].Kind == KindLoopEntry {
				continue
			}
			if nest.at[h] < 0 {
				nest.at[h] = int32(len(nest.loops))
				nest.loops = append(nest.loops, pendingLoop{header: h, members: []int{h}})
			}
			l := &nest.loops[nest.at[h]]
			l.members = append(l.members, t.ID) // a back-edge source: the walk starts there
		}
	}
	bodies, headers := make([][]int, len(nest.loops)), make([]int, len(nest.loops))
	for i := range nest.loops {
		l := &nest.loops[i]
		l.members = reaching(g, l.members, nest.in, int32(i+1))
		bodies[i], headers[i] = l.members, l.header
	}
	for i := range nest.in {
		nest.in[i] = 0 // transform stamps afresh
	}
	// Natural loops of distinct headers are disjoint or nested.
	for i, p := range nesting(n, bodies, headers) {
		if nest.loops[i].parent = p; p >= 0 {
			nest.loops[p].kids++
		}
	}
	return nest
}

// reaching completes a loop body: members[0] is the header the walk stops
// at and members[1:] the nodes it starts from, possibly repeated; it
// returns, in ascending order, these and every node that reaches a
// starting node without passing the header. in is scratch: no entry may
// equal stamp beforehand, and the body's entries do afterwards.
func reaching(g *Graph, members []int, in []int32, stamp int32) []int {
	seeds := members[1:]
	members = members[:1]
	in[members[0]] = stamp
	for _, v := range seeds {
		if in[v] != stamp {
			in[v] = stamp
			members = append(members, v)
		}
	}
	for k := 1; k < len(members); k++ {
		for _, p := range g.Nodes[members[k]].Preds {
			if in[p] != stamp {
				in[p] = stamp
				members = append(members, p)
			}
		}
	}
	sort.Ints(members)
	return members
}

// nesting takes node sets over 0…n-1 that are pairwise disjoint or nested
// and one key node per set, and returns for each set the smallest other
// set holding its key (-1 for none). Visiting the sets largest first, the
// smallest set seen so far around a node is the last one seen.
func nesting(n int, sets [][]int, keys []int) []int {
	bySize := make([]int, len(sets))
	for i := range bySize {
		bySize[i] = i
	}
	sort.Slice(bySize, func(a, b int) bool { return len(sets[bySize[a]]) > len(sets[bySize[b]]) })
	parent, inner := make([]int, len(sets)), make([]int32, n)
	for i := range inner {
		inner[i] = -1
	}
	for _, i := range bySize {
		parent[i] = int(inner[keys[i]])
		for _, v := range sets[i] {
			inner[v] = int32(i)
		}
	}
	return parent
}

// addNode appends a control statement to g and records it as lying in
// loop innermost (-1 for none) and every loop around that one.
func (nest *loopNest) addNode(g *Graph, kind NodeKind, header, innermost int) *Node {
	nd := g.AddNode(kind)
	nd.LoopHeader = header
	nest.in = append(nest.in, 0)
	for a := innermost; a >= 0; a = nest.loops[a].parent {
		nest.loops[a].members = append(nest.loops[a].members, nd.ID)
	}
	return nd
}

// transform inserts the loop-entry and loop-exit statements for loop i,
// mutating g.
func (nest *loopNest) transform(g *Graph, i int32) {
	l := &nest.loops[i]
	h, stamp := l.header, i+1
	for _, m := range l.members {
		nest.in[m] = stamp
	}
	body := func(v int) bool { return nest.in[v] == stamp }

	le := nest.addNode(g, KindLoopEntry, h, l.parent)
	le.BackPreds = map[int]bool{}
	l.entry = le.ID

	// Redirect every edge into the header — from outside (entries) and from
	// back-edge sources (iteration) — to the loop entry.
	preds := append([]int(nil), g.Nodes[h].Preds...)
	for _, p := range preds {
		// A predecessor may have two parallel edges to h (both fork arms).
		for si, s := range g.Nodes[p].Succs {
			if s == h {
				g.ReplaceEdgeAt(p, si, le.ID)
			}
		}
		if body(p) {
			le.BackPreds[p] = true
		}
	}
	g.AddEdge(le.ID, h)

	// Splice a loop exit onto every edge leaving the cyclic part. The exit
	// lies in every loop around this one: a goto that leaves an enclosing
	// loop too passes this exit first, and the enclosing loop splices its
	// own exit after it.
	for _, a := range l.members {
		for si, s := range g.Nodes[a].Succs {
			if body(s) || s == le.ID {
				continue
			}
			lx := nest.addNode(g, KindLoopExit, h, l.parent)
			l.exits = append(l.exits, lx.ID)
			g.ReplaceEdgeAt(a, si, lx.ID)
			g.AddEdge(lx.ID, s)
		}
	}
}

// result describes the transformed nest, innermost loops first and then
// by entry: a loop's body is its members and its own entry, its depth one
// more than the number of loops around it.
func (nest *loopNest) result() []Loop {
	var loops []Loop // nil for a graph without loops
	for _, l := range nest.loops {
		body := make(map[int]bool, len(l.members)+1)
		body[l.entry] = true
		for _, m := range l.members {
			body[m] = true
		}
		depth := 1
		for p := l.parent; p >= 0; p = nest.loops[p].parent {
			depth++
		}
		loops = append(loops, Loop{Entry: l.entry, Header: l.header, Exits: l.exits, Body: body, Depth: depth})
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Depth != loops[j].Depth {
			return loops[i].Depth > loops[j].Depth // innermost first
		}
		return loops[i].Entry < loops[j].Entry
	})
	return loops
}

// TopoOrder returns g's nodes in topological order ignoring the back
// edges into loop entries, the lowest ready id first, and false if some
// cycle is not broken by a loop entry. It is the order in which the
// source vectors are propagated and the dataflow graph is emitted: every
// node comes after everything that can send it a token within one
// iteration.
func (g *Graph) TopoOrder() ([]int, bool) {
	n := g.Len()
	wait := make([]int32, n) // forward predecessors not yet in the order
	var ready intHeap
	for id, nd := range g.Nodes {
		for _, p := range nd.Preds {
			if !nd.BackPreds[p] {
				wait[id]++
			}
		}
		if wait[id] == 0 {
			ready = append(ready, id) // ascending, so already a heap
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, s := range g.Nodes[id].Succs {
			if g.Nodes[s].BackPreds[id] {
				continue
			}
			if wait[s]--; wait[s] == 0 {
				ready.push(s)
			}
		}
	}
	return order, len(order) == n
}

// intHeap is a binary min-heap of ints.
type intHeap []int

func (h *intHeap) push(x int) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && s[c+1] < s[c] {
			c++
		}
		if s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// reducibleDominators returns g's dominator tree, or ErrIrreducible
// (wrapped) unless g is reducible: every node reachable, and every edge
// that retreats in a depth-first walk a back edge, its target dominating
// its source. That is the graphs the classic T1 (self-loop removal) / T2
// (single-predecessor merge) transformations reduce to a single node.
func reducibleDominators(g *Graph) (*DomTree, error) {
	rpo := g.RPO()
	if len(rpo) != g.Len() {
		return nil, fmt.Errorf("cfg: %w", ErrIrreducible)
	}
	pos := make([]int32, g.Len())
	for i, id := range rpo {
		pos[id] = int32(i)
	}
	dom := computeDom(g, rpo, g.Start, func(n int) []int { return g.Nodes[n].Preds })
	for _, n := range g.Nodes {
		for _, s := range n.Succs {
			if pos[s] <= pos[n.ID] && !dom.Dominates(s, n.ID) {
				return nil, fmt.Errorf("cfg: %w", ErrIrreducible)
			}
		}
	}
	return dom, nil
}
