package cfg

import (
	"fmt"

	"ctdf/internal/lang"
)

// Build lowers a checked program into its statement-level CFG. Structured
// if/while statements are lowered to forks and joins; labels become joins;
// gotos become edges. Unreachable statements are pruned (a statement
// directly after an unconditional goto and not labeled can never execute).
// The resulting graph satisfies Graph.Validate; in particular every node
// lies on some path from start to end, so programs that cannot terminate
// are rejected.
func Build(prog *lang.Program) (*Graph, error) {
	// Procedure calls are expanded by reference-parameter substitution
	// before control-flow construction (the alias structures they induce
	// are recovered by analysis.DeriveAliasStructures for the paper's
	// separate-compilation view, §5).
	prog, err := prog.Inline()
	if err != nil {
		return nil, err
	}
	return buildCFG(prog, false)
}

// BuildSeparate builds the CFG without inlining: call statements become
// KindCall nodes, for the linked (separate-compilation) translation. The
// given statement list is used as the body (the program's own body for
// the main unit, a procedure's body for a callee unit).
func BuildSeparate(prog *lang.Program, body []lang.Stmt) (*Graph, error) {
	unit := *prog
	unit.Body = body
	return buildCFG(&unit, true)
}

func buildCFG(prog *lang.Program, separate bool) (*Graph, error) {
	// Every node and out-edge the lowering can make is carved from one
	// array each, sized by a walk of the program beforehand.
	nodes, edges := size(prog.Body)
	nodes, edges = nodes+2, edges+2 // start and its two out-edges, end
	b := &builder{
		g:        &Graph{Prog: prog, Nodes: make([]*Node, 0, nodes)},
		labels:   map[string]int{},
		separate: separate,
		free:     make([]Node, nodes),
		succs:    make([]int, edges),
		pend:     make([]pending, edges),
	}
	// slot 0 of start is the program entry, slot 1 the conventional edge
	// to end.
	b.g.Start = b.node(KindStart, 2).ID
	b.g.End = b.node(KindEnd, 0).ID
	// Pre-create a join node for every label so forward gotos resolve.
	b.collectLabels(prog.Body)
	b.labels["end"] = b.g.End

	frontier := b.stmts(prog.Body, b.out(b.g.Start, 0))
	// Whatever still dangles falls through to end.
	for _, p := range frontier {
		b.wire(p, b.g.End)
	}
	// Conventional start→end edge (paper §2.1: "an edge is added between
	// start and end, and thus start is a fork").
	b.wire(pending{b.g.Start, 1}, b.g.End)

	if err := b.g.compact(); err != nil {
		return nil, err
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// MustBuild is Build, panicking on error; for tests and fixed fixtures.
func MustBuild(prog *lang.Program) *Graph {
	g, err := Build(prog)
	if err != nil {
		panic(err)
	}
	return g
}

// pending is a dangling out-edge: slot s of node from awaits its target.
type pending struct {
	from int
	slot int
}

type builder struct {
	g        *Graph
	labels   map[string]int // label name -> join node ID
	separate bool

	// What node and out carve from: nodes, successor lists, and the
	// one-edge frontiers the lowering of a statement returns.
	free  []Node
	succs []int
	pend  []pending
}

// size returns how many nodes and out-edges stmt lowers stmts into at
// most (an if whose arms both jump away gets no join).
func size(stmts []lang.Stmt) (nodes, edges int) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *lang.Assign, *lang.ArrayAssign, *lang.CallStmt, *lang.Label:
			nodes, edges = nodes+1, edges+1
		case *lang.CondGoto:
			nodes, edges = nodes+1, edges+2
		case *lang.If:
			tn, te := size(x.Then)
			en, ee := size(x.Else)
			nodes, edges = nodes+2+tn+en, edges+3+te+ee
		case *lang.While:
			bn, be := size(x.Body)
			nodes, edges = nodes+2+bn, edges+3+be
		}
	}
	return nodes, edges
}

// node adds a node of the given kind with succs dangling out-edges.
func (b *builder) node(kind NodeKind, succs int) *Node {
	n := &b.free[0]
	b.free = b.free[1:]
	n.ID, n.Kind = len(b.g.Nodes), kind
	if succs > 0 {
		n.Succs = b.succs[:succs:succs]
		b.succs = b.succs[succs:]
		for i := range n.Succs {
			n.Succs[i] = -1
		}
	}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// out is the frontier of the one dangling edge, slot of node from.
func (b *builder) out(from, slot int) []pending {
	f := b.pend[:1:1]
	b.pend = b.pend[1:]
	f[0] = pending{from, slot}
	return f
}

func (b *builder) collectLabels(stmts []lang.Stmt) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *lang.Label:
			j := b.node(KindJoin, 1)
			j.Label = x.Name
			b.labels[x.Name] = j.ID
		case *lang.If:
			b.collectLabels(x.Then)
			b.collectLabels(x.Else)
		case *lang.While:
			b.collectLabels(x.Body)
		}
	}
}

// wire connects a pending edge to its target node. The predecessor
// lists are built once the graph is compacted.
func (b *builder) wire(p pending, to int) {
	b.g.Nodes[p.from].Succs[p.slot] = to
}

func (b *builder) wireAll(ps []pending, to int) {
	for _, p := range ps {
		b.wire(p, to)
	}
}

// stmts lowers a statement list. frontier is the set of dangling edges that
// should flow into the first statement; the returned frontier dangles out
// of the last.
func (b *builder) stmts(stmts []lang.Stmt, frontier []pending) []pending {
	for _, s := range stmts {
		frontier = b.stmt(s, frontier)
	}
	return frontier
}

func (b *builder) stmt(s lang.Stmt, frontier []pending) []pending {
	switch x := s.(type) {
	case *lang.Assign:
		n := b.node(KindAssign, 1)
		n.Target, n.RHS = x.Name, x.Expr
		b.wireAll(frontier, n.ID)
		return b.out(n.ID, 0)

	case *lang.ArrayAssign:
		n := b.node(KindAssign, 1)
		n.Target, n.TargetIndex, n.RHS = x.Name, x.Index, x.Expr
		b.wireAll(frontier, n.ID)
		return b.out(n.ID, 0)

	case *lang.CallStmt:
		if !b.separate {
			panic("cfg: call statement survived inlining")
		}
		n := b.node(KindCall, 1)
		n.Proc, n.Args = x.Proc, append([]string(nil), x.Args...)
		b.wireAll(frontier, n.ID)
		return b.out(n.ID, 0)

	case *lang.Label:
		j := b.labels[x.Name]
		b.wireAll(frontier, j)
		return b.out(j, 0)

	case *lang.Goto:
		b.wireAll(frontier, b.labels[x.Label])
		return nil

	case *lang.CondGoto:
		f := b.node(KindFork, 2)
		f.Cond = x.Cond
		b.wireAll(frontier, f.ID)
		b.wire(pending{f.ID, 0}, b.labels[x.True])
		b.wire(pending{f.ID, 1}, b.labels[x.False])
		return nil

	case *lang.If:
		f := b.node(KindFork, 2)
		f.Cond = x.Cond
		b.wireAll(frontier, f.ID)
		thenOut := b.stmts(x.Then, b.out(f.ID, 0))
		elseOut := b.stmts(x.Else, b.out(f.ID, 1))
		switch {
		case len(thenOut) == 0:
			return elseOut
		case len(elseOut) == 0:
			return thenOut
		default:
			j := b.node(KindJoin, 1)
			b.wireAll(thenOut, j.ID)
			b.wireAll(elseOut, j.ID)
			return b.out(j.ID, 0)
		}

	case *lang.While:
		// header join → fork(cond); true → body → back to header;
		// false → fall through.
		h := b.node(KindJoin, 1)
		b.wireAll(frontier, h.ID)
		f := b.node(KindFork, 2)
		f.Cond = x.Cond
		b.wire(pending{h.ID, 0}, f.ID)
		bodyOut := b.stmts(x.Body, b.out(f.ID, 0))
		b.wireAll(bodyOut, h.ID)
		return b.out(f.ID, 1)
	}
	panic(fmt.Sprintf("cfg: unknown statement type %T", s))
}

// compact removes nodes unreachable from start (dead code after gotos,
// labels never targeted inside dead regions), renumbers node IDs densely
// in place and builds the predecessor lists, each in the order of its
// predecessors' new IDs. Dangling out-edges of reachable nodes are an
// error.
func (g *Graph) compact() error {
	reach := make([]bool, len(g.Nodes))
	reach[g.Start] = true
	stack := []int{g.Start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Nodes[id].Succs {
			if s < 0 {
				return fmt.Errorf("cfg: internal error: dangling edge out of %s", g.Nodes[id])
			}
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	remap := make([]int, len(g.Nodes))
	live := g.Nodes[:0]
	for _, n := range g.Nodes {
		if reach[n.ID] {
			remap[n.ID] = len(live)
			live = append(live, n)
		}
	}
	clear(g.Nodes[len(live):])
	g.Nodes = live
	g.Start, g.End = remap[g.Start], remap[g.End]
	edges := 0
	for _, n := range live {
		n.ID = remap[n.ID]
		for i, s := range n.Succs {
			n.Succs[i] = remap[s]
		}
		edges += len(n.Succs)
	}
	// Each pred list gets exactly its own length of one array.
	preds := remap[:len(live)]
	clear(preds)
	for _, n := range live {
		for _, s := range n.Succs {
			preds[s]++
		}
	}
	all := make([]int, edges)
	for i, n := range live {
		if k := preds[i]; k > 0 {
			n.Preds, all = all[:0:k], all[k:]
		}
	}
	for _, n := range live {
		for _, s := range n.Succs {
			live[s].Preds = append(live[s].Preds, n.ID)
		}
	}
	return nil
}
