// Package cfg implements the statement-level control-flow graph of paper
// §2.1 — nodes are assignments, forks ("if p then goto lt else goto lf"),
// and labeled joins, plus unique start and end nodes — together with the
// dominator/postdominator machinery and the interval (loop) transformation
// of §3 that inserts loop-entry and loop-exit statements. The
// transformation finds cycles as natural loops (loops.go); the Allen–Cocke
// interval decomposition the paper cites is kept only as the test
// reference those loop headers are checked against (intervals_test.go).
package cfg

import (
	"fmt"
	"slices"
	"strings"

	"ctdf/internal/lang"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// CFG node kinds. Start and End are the unique initial/final nodes; by the
// paper's convention start has an extra edge directly to end (making it a
// fork for control-dependence purposes). LoopEntry and LoopExit are the
// loop control statements inserted by the interval transformation of §3.
const (
	KindStart NodeKind = iota
	KindEnd
	KindAssign
	KindFork
	KindJoin
	KindLoopEntry
	KindLoopExit
	// KindCall is a procedure call statement (separate-compilation mode
	// only; the default Build inlines calls instead).
	KindCall
)

var kindNames = map[NodeKind]string{
	KindStart: "start", KindEnd: "end", KindAssign: "assign",
	KindFork: "fork", KindJoin: "join",
	KindLoopEntry: "loop-entry", KindLoopExit: "loop-exit",
	KindCall: "call",
}

func (k NodeKind) String() string { return kindNames[k] }

// Node is a CFG node. Succs ordering is significant for forks:
// Succs[0] is the true out-direction and Succs[1] the false out-direction.
// For the start node, Succs[0] is the program entry and Succs[1] is the
// conventional edge to end.
type Node struct {
	ID   int
	Kind NodeKind

	// Assign fields (Kind == KindAssign). If TargetIndex is nil the
	// assignment is "Target := RHS"; otherwise "Target[TargetIndex] := RHS".
	Target      string
	TargetIndex lang.Expr
	RHS         lang.Expr

	// Fork field (Kind == KindFork).
	Cond lang.Expr

	// Join field: the source label, if any (debugging only).
	Label string

	// LoopEntry/LoopExit fields: the ID of the loop header this control
	// statement belongs to, and for LoopEntry the set of predecessors that
	// are loop back edges (iteration continues) as opposed to initial
	// entries.
	LoopHeader int
	BackPreds  map[int]bool

	// Call fields (Kind == KindCall).
	Proc string
	Args []string

	Succs []int
	Preds []int
}

// String renders the node for diagnostics.
func (n *Node) String() string {
	switch n.Kind {
	case KindAssign:
		if n.TargetIndex != nil {
			return fmt.Sprintf("n%d: %s[%s] := %s", n.ID, n.Target, n.TargetIndex, n.RHS)
		}
		return fmt.Sprintf("n%d: %s := %s", n.ID, n.Target, n.RHS)
	case KindFork:
		return fmt.Sprintf("n%d: fork %s", n.ID, n.Cond)
	case KindJoin:
		if n.Label != "" {
			return fmt.Sprintf("n%d: join %s", n.ID, n.Label)
		}
		return fmt.Sprintf("n%d: join", n.ID)
	case KindLoopEntry:
		return fmt.Sprintf("n%d: loop-entry(h=n%d)", n.ID, n.LoopHeader)
	case KindLoopExit:
		return fmt.Sprintf("n%d: loop-exit(h=n%d)", n.ID, n.LoopHeader)
	case KindCall:
		return fmt.Sprintf("n%d: call %s(%s)", n.ID, n.Proc, strings.Join(n.Args, ", "))
	}
	return fmt.Sprintf("n%d: %s", n.ID, n.Kind)
}

// Graph is a control-flow graph. Node IDs index into Nodes; removed nodes
// are nil-free (graphs are compacted after construction).
type Graph struct {
	Nodes []*Node
	Start int
	End   int

	// Prog is the source program the graph was built from; it supplies the
	// variable universe (names, arrays, aliases).
	Prog *lang.Program
}

// NewGraph creates an empty graph with start and end nodes and the
// conventional start→end edge. The caller wires the program entry as
// Succs[0] of start.
func NewGraph(prog *lang.Program) *Graph {
	g := &Graph{Prog: prog}
	s := g.AddNode(KindStart)
	e := g.AddNode(KindEnd)
	g.Start, g.End = s.ID, e.ID
	return g
}

// AddNode appends a new node of the given kind and returns it.
func (g *Graph) AddNode(kind NodeKind) *Node {
	n := &Node{ID: len(g.Nodes), Kind: kind}
	g.Nodes = append(g.Nodes, n)
	return n
}

// AddEdge adds the edge from→to, appending to the succ/pred lists.
func (g *Graph) AddEdge(from, to int) {
	g.Nodes[from].Succs = append(g.Nodes[from].Succs, to)
	g.Nodes[to].Preds = append(g.Nodes[to].Preds, from)
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Nodes) }

// NumEdges returns the number of edges E (including the start→end edge).
func (g *Graph) NumEdges() int {
	e := 0
	for _, n := range g.Nodes {
		e += len(n.Succs)
	}
	return e
}

// ReplaceEdgeAt rewrites successor slot si of node from to point at newTo,
// fixing pred lists.
func (g *Graph) ReplaceEdgeAt(from, si, newTo int) {
	f := g.Nodes[from]
	oldTo := f.Succs[si]
	f.Succs[si] = newTo
	old := g.Nodes[oldTo]
	for i, p := range old.Preds {
		if p == from {
			old.Preds = append(old.Preds[:i], old.Preds[i+1:]...)
			break
		}
	}
	g.Nodes[newTo].Preds = append(g.Nodes[newTo].Preds, from)
}

// RefSet appends to dst the variables node id references (read or
// written), sorted by name and each once: a caller reading every node can
// reuse one slice. Forks reference the variables read by their predicate;
// array assignments reference the array name and the variables read by
// the index and right-hand side (paper §6.3 treats an assignment to any
// array location as an operation on the entire array).
func (g *Graph) RefSet(dst []string, id int) []string {
	start := len(dst)
	return distinct(g.AppendRefs(dst, id), start)
}

// AppendRefs appends to dst the variables node id references, as RefSet
// lists them but in the order met and as often as met.
func (g *Graph) AppendRefs(dst []string, id int) []string {
	n := g.Nodes[id]
	switch n.Kind {
	case KindAssign:
		dst = append(dst, n.Target)
		if n.TargetIndex != nil {
			dst = lang.AppendReads(dst, n.TargetIndex)
		}
		dst = lang.AppendReads(dst, n.RHS)
	case KindFork:
		dst = lang.AppendReads(dst, n.Cond)
	}
	return dst
}

// ReadSet appends to dst the variables node id reads (for an assignment,
// the RHS and index reads; for a fork, the predicate reads), sorted by
// name and each once: a caller reading every node can reuse one slice.
func (g *Graph) ReadSet(dst []string, id int) []string {
	n := g.Nodes[id]
	start := len(dst)
	switch n.Kind {
	case KindAssign:
		if n.TargetIndex != nil {
			dst = lang.AppendReads(dst, n.TargetIndex)
		}
		dst = lang.AppendReads(dst, n.RHS)
	case KindFork:
		dst = lang.AppendReads(dst, n.Cond)
	}
	return distinct(dst, start)
}

// distinct sorts list[start:] and drops its duplicates.
func distinct(list []string, start int) []string {
	slices.Sort(list[start:])
	return list[:start+len(slices.Compact(list[start:]))]
}

// Validate checks the structural invariants the translation schemas rely
// on: a unique start with no preds, a unique end with no succs, every node
// reachable from start, end reachable from every node, fork out-degree 2,
// assignment/join/loop-control out-degree 1, and only joins, loop entries
// and end having multiple predecessors.
func (g *Graph) Validate() error {
	if g.Nodes[g.Start].Kind != KindStart || len(g.Nodes[g.Start].Preds) != 0 {
		return fmt.Errorf("cfg: malformed start node")
	}
	if g.Nodes[g.End].Kind != KindEnd || len(g.Nodes[g.End].Succs) != 0 {
		return fmt.Errorf("cfg: malformed end node")
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case KindStart:
			if len(n.Succs) != 2 {
				return fmt.Errorf("cfg: start must have exactly 2 successors (entry and end), has %d", len(n.Succs))
			}
		case KindEnd:
		case KindFork:
			if len(n.Succs) != 2 {
				return fmt.Errorf("cfg: %s must have 2 successors, has %d", n, len(n.Succs))
			}
		default:
			if len(n.Succs) != 1 {
				return fmt.Errorf("cfg: %s must have 1 successor, has %d", n, len(n.Succs))
			}
		}
		if len(n.Preds) > 1 && n.Kind != KindJoin && n.Kind != KindLoopEntry && n.Kind != KindEnd {
			return fmt.Errorf("cfg: %s has %d predecessors but is not a join", n, len(n.Preds))
		}
		// Pred/succ lists must be consistent.
		for _, s := range n.Succs {
			if s < 0 || s >= len(g.Nodes) {
				return fmt.Errorf("cfg: %s has out-of-range successor %d", n, s)
			}
			if !slices.Contains(g.Nodes[s].Preds, n.ID) {
				return fmt.Errorf("cfg: edge n%d→n%d missing from pred list", n.ID, s)
			}
		}
		for _, p := range n.Preds {
			if !slices.Contains(g.Nodes[p].Succs, n.ID) {
				return fmt.Errorf("cfg: pred edge n%d→n%d missing from succ list", p, n.ID)
			}
		}
	}
	// Reachability: every node on some path start→end.
	fromStart := g.reachableFrom(g.Start, false)
	toEnd := g.reachableFrom(g.End, true)
	for _, n := range g.Nodes {
		if !fromStart[n.ID] {
			return fmt.Errorf("cfg: %s unreachable from start", n)
		}
		if !toEnd[n.ID] {
			return fmt.Errorf("cfg: %s cannot reach end (infinite loop?)", n)
		}
	}
	return nil
}

// reachableFrom returns the set of nodes reachable from id, following
// successor edges, or predecessor edges when reverse is true.
func (g *Graph) reachableFrom(id int, reverse bool) []bool {
	seen := make([]bool, len(g.Nodes))
	seen[id] = true
	stack := []int{id}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		next := g.Nodes[n].Succs
		if reverse {
			next = g.Nodes[n].Preds
		}
		for _, s := range next {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// RPO returns node IDs in reverse postorder from start (following succs).
func (g *Graph) RPO() []int {
	seen := make([]bool, len(g.Nodes))
	var order []int
	var dfs func(int)
	dfs = func(id int) {
		seen[id] = true
		for _, s := range g.Nodes[id].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, id)
	}
	dfs(g.Start)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// ReverseRPO returns node IDs in reverse postorder of the reverse graph,
// starting from end (used by the postdominator computation).
func (g *Graph) ReverseRPO() []int {
	seen := make([]bool, len(g.Nodes))
	var order []int
	var dfs func(int)
	dfs = func(id int) {
		seen[id] = true
		for _, p := range g.Nodes[id].Preds {
			if !seen[p] {
				dfs(p)
			}
		}
		order = append(order, id)
	}
	dfs(g.End)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// String renders the whole graph, one node per line, in ID order.
func (g *Graph) String() string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%-40s -> %v\n", n.String(), n.Succs)
	}
	return b.String()
}

// DOT renders the graph in Graphviz format.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph cfg {\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range g.Nodes {
		shape := "box"
		switch n.Kind {
		case KindFork:
			shape = "diamond"
		case KindJoin:
			shape = "circle"
		case KindStart, KindEnd:
			shape = "ellipse"
		case KindLoopEntry, KindLoopExit:
			shape = "hexagon"
		}
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", n.ID, n.String(), shape)
	}
	for _, n := range g.Nodes {
		for i, s := range n.Succs {
			label := ""
			if n.Kind == KindFork || n.Kind == KindStart {
				if i == 0 {
					label = " [label=\"T\"]"
				} else {
					label = " [label=\"F\"]"
				}
			}
			fmt.Fprintf(&b, "  n%d -> n%d%s;\n", n.ID, s, label)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
