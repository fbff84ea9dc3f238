package cfg

import (
	"fmt"
	"slices"

	"ctdf/internal/lang"
)

// Selector is the scalar a dispatch header forks on. No source program
// can name it: the lexer never produces '$'.
const Selector = "$sel"

// MakeReducible returns a CFG equivalent to g whose cycles decompose into
// nested single-entry intervals, and the number of dispatch regions that
// took. The paper's footnote 5 gets there by code copying, which grows
// exponentially with the entries of a region; this turns the choice of
// entry into data instead. Every strongly connected region with k > 1
// entries gets one header join, followed by a chain of forks
// "Selector == j", and every edge into entry j — from outside the region
// or inside it — becomes "Selector := j" and a jump to the header. The
// region less its header is then split the same way. The rewrite adds
// O(edges) nodes and never fails on a valid graph.
//
// Selector is declared on a copy of g.Prog; interp.Store.Snapshot leaves
// it out, so the rewritten graph computes the stores g computes. A
// reducible g is returned itself, with 0.
func MakeReducible(g *Graph) (*Graph, int, error) {
	if _, err := reducibleDominators(g); err == nil {
		return g, 0, nil
	}
	out := g.Clone()
	prog := *g.Prog
	prog.Vars = append(slices.Clip(prog.Vars), lang.VarDecl{Name: Selector})
	out.Prog = &prog
	n := out.Len()
	d := &dispatcher{g: out, in: make([]int32, n), index: make([]int32, n)}
	work, regions := [][]int{make([]int, n)}, 0
	for i := range work[0] {
		work[0][i] = i
	}
	for len(work) > 0 {
		set := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range d.regions(set) {
			switch {
			case len(r.entries) == 1:
				work = append(work, slices.DeleteFunc(r.nodes, func(v int) bool { return v == r.entries[0] }))
			case len(r.entries) > 1:
				d.dispatch(r.entries)
				regions++
				// Every edge into an entry now leaves the header's chain,
				// so the cycles left in the region avoid its entries.
				work = append(work, r.nodes)
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, 0, fmt.Errorf("cfg: dispatch broke the graph: %w", err)
	}
	return out, regions, nil
}

// dispatcher holds the scratch of MakeReducible, one slot per node:
// in[v] == stamp marks v as a member of the node set at hand, and index
// is Tarjan's numbering of it.
type dispatcher struct {
	g         *Graph
	stamp     int32
	in, index []int32
}

// region is a strongly connected set of nodes, in ascending order, and
// those of them with a predecessor outside it.
type region struct{ nodes, entries []int }

// add appends a node to the graph and its scratch slots.
func (d *dispatcher) add(kind NodeKind) *Node {
	d.in, d.index = append(d.in, 0), append(d.index, 0)
	return d.g.AddNode(kind)
}

// regions returns the strongly connected components of the subgraph set
// induces that hold more than one node (Tarjan's algorithm; a self-loop
// is a single-entry cycle already).
func (d *dispatcher) regions(set []int) []region {
	d.stamp++
	for _, v := range set {
		d.in[v], d.index[v] = d.stamp, 0
	}
	var out []region
	var stack []int
	next := int32(0)
	var visit func(v int) int32
	visit = func(v int) int32 {
		next++
		d.index[v] = next
		low := next
		stack = append(stack, v)
		for _, s := range d.g.Nodes[v].Succs {
			switch {
			case d.in[s] != d.stamp: // outside the set, or in a finished component
			case d.index[s] == 0:
				low = min(low, visit(s))
			default:
				low = min(low, d.index[s])
			}
		}
		if low < d.index[v] {
			return low
		}
		i := len(stack) - 1
		for stack[i] != v {
			i--
		}
		r := region{nodes: slices.Clone(stack[i:])}
		stack = stack[:i]
		if len(r.nodes) > 1 {
			// Of the set, the component holds just what is numbered v's
			// number or later and not yet in a finished component.
			slices.Sort(r.nodes)
			for _, w := range r.nodes {
				if slices.ContainsFunc(d.g.Nodes[w].Preds, func(p int) bool { return d.in[p] != d.stamp || d.index[p] < d.index[v] }) {
					r.entries = append(r.entries, w)
				}
			}
			out = append(out, r)
		}
		for _, w := range r.nodes {
			d.in[w] = 0
		}
		return low
	}
	for _, v := range set {
		if d.in[v] == d.stamp && d.index[v] == 0 {
			visit(v)
		}
	}
	return out
}

// dispatch gives the region entered at entries one header: every edge
// into entries[j] becomes "Selector := j" and a jump to a new join, which
// forks on Selector to entries[j].
func (d *dispatcher) dispatch(entries []int) {
	g := d.g
	header := d.add(KindJoin)
	for j, e := range entries {
		for _, p := range slices.Clone(g.Nodes[e].Preds) {
			for si, s := range g.Nodes[p].Succs {
				if s != e {
					continue
				}
				set := d.add(KindAssign)
				set.Target, set.RHS = Selector, &lang.IntLit{Value: int64(j)}
				g.ReplaceEdgeAt(p, si, set.ID)
				g.AddEdge(set.ID, header.ID)
			}
		}
	}
	from := header.ID
	for j, e := range entries[:len(entries)-1] {
		f := d.add(KindFork)
		f.Cond = &lang.BinExpr{Op: lang.OpEq, L: &lang.VarRef{Name: Selector}, R: &lang.IntLit{Value: int64(j)}}
		g.AddEdge(from, f.ID)
		g.AddEdge(f.ID, e)
		from = f.ID
	}
	g.AddEdge(from, entries[len(entries)-1])
}
