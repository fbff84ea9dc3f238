package translate

import (
	"cmp"
	"fmt"
	"slices"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/lang"
)

// src is a wire source: an output port of a dataflow node. Node -1 is no
// wire.
type src analysis.Wire

var noWire = src{-1, 0}

type builder struct {
	g     *cfg.Graph
	loops []cfg.Loop
	numbering
	plan     *analysis.Plan
	route    *analysis.Route
	value    []bool  // per token, whether it carries its variable's value (§6.1)
	toks     []int32 // per token, its number in the graph's name table (dfg.Node.Tok)
	parReads bool
	pstores  []ParallelStore
	istructs map[string]bool // arrays with I-structure semantics (§6.3)
	out      *dfg.Editor
	start    int32 // the start node, once built

	// Separate-compilation (linked) mode: a procedure unit replaces the
	// start node by per-token Param nodes and the end node by a ProcReturn;
	// call statements become Apply nodes, consuming the token set need
	// maps the callee's universe to; pendingCalls records linkage to
	// resolve after every unit is built.
	procMode     bool
	procName     string
	paramNodes   []int32 // per token
	returnNode   int32
	calleeArity  func(proc string) int // callee universe size (param ports)
	pendingCalls []*pendingCall

	// The walk: the tokens it carries, and the loop entries' LoopEntry
	// nodes, in visit order, then by token.
	analysis.Carrier
	les []int32

	// Scratch reused from statement to statement: the context, the nodes
	// emitted (allocated a slab at a time), the wires a gate collects, the
	// variables a block reads.
	ctx   stmtCtx
	slab  []dfg.Node
	wires []src
	reads []string
}

// dummyFor reports whether arcs carrying token t are dummy
// (synchronization-only) arcs; value-carrying token lines (§6.1) are not.
func (b *builder) dummyFor(t int32) bool { return !b.value[t] }

// node emits n and returns its id.
func (b *builder) node(n dfg.Node) int32 {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]dfg.Node, 0, 256)
	}
	b.slab = append(b.slab, n)
	return b.out.AddNode(&b.slab[len(b.slab)-1])
}

// wire connects w to port port of node to.
func (b *builder) wire(w src, to int32, port int, dummy bool) {
	b.out.AddArc(dfg.Arc{From: w.Node, FromPort: w.Port, To: to, ToPort: int32(port), Dummy: dummy})
}

// synchOf collects a set of wires into one: a single wire passes through;
// several are joined by a synch tree (paper Figure 2). Wires are
// deduplicated — token lines that already merged at a shared operation
// need only one arc. The wires are sorted in place; the synch is named
// after token t.
func (b *builder) synchOf(wires []src, stmt int, t int32) src {
	slices.SortFunc(wires, func(x, y src) int { return cmp.Or(cmp.Compare(x.Node, y.Node), cmp.Compare(x.Port, y.Port)) })
	wires = slices.Compact(wires)
	if len(wires) == 1 {
		return wires[0]
	}
	s := b.node(dfg.Node{Kind: dfg.Synch, NIns: int32(len(wires)), Tok: b.toks[t], Stmt: int32(stmt)})
	for i, w := range wires {
		b.wire(w, s, i, true)
	}
	return src{s, 0}
}

// wireOf returns the one wire entry e arrives on.
func (b *builder) wireOf(e int32) src { return src(b.Inputs(e)[0].W) }

// merged returns the wire entry e arrives on at CFG node id: a new merge
// of its inputs when it has several.
func (b *builder) merged(e int32, id int) src {
	ins, t := b.Inputs(e), b.Ents[e].Tok
	if len(ins) == 1 {
		return b.wireOf(e)
	}
	m := b.node(dfg.Node{Kind: dfg.Merge, Tok: b.toks[t], Stmt: int32(id)})
	for _, in := range ins {
		b.wire(src(in.W), m, 0, b.dummyFor(t))
	}
	return src{m, 0}
}

// arcEstimate bounds, before anything is emitted, the arcs the builder
// emits, by the input ports they enter. A switch takes its token's line
// and the predicate. Switches split a token's line, and merges join the
// arms again: each merge of k inputs undoes k-1 splits, and a loop entry's
// back port undoes one of the splits of every token its loop circulates
// (the arm that leaves by a loop exit), so the merges take at most twice
// the splits left over. Loop entries take two arcs per token, loop exits
// one, end one per token and a call one per token it consumes. What a
// statement emits is counted from its expressions: the value arcs of
// every operator, and for every memory operation one arc per token line
// it gates on, one more through the synch that joins several, and under
// §6.2 one more per line for the synch that collects its completion.
func (b *builder) arcEstimate() int {
	r := b.route
	switches, circulated := 0, 0
	for id, nd := range b.g.Nodes {
		switch nd.Kind {
		case cfg.KindFork: // the placement marks start too, which gets no switch
			switches += len(r.Switched.Row(id))
		case cfg.KindLoopEntry:
			circulated += len(r.LoopNeed(id))
		}
	}
	n := 2*switches + 2*max(0, switches-circulated) + 2*circulated + max(1, len(b.universe))
	for id, nd := range b.g.Nodes {
		switch nd.Kind {
		case cfg.KindLoopExit:
			n += len(r.LoopNeed(id))
		case cfg.KindCall:
			n += len(b.need.Row(id))
		case cfg.KindAssign, cfg.KindFork:
			b.reads = b.g.ReadSet(b.reads[:0], id)
			for _, v := range b.reads {
				if !b.g.Prog.IsArray(v) && !b.valueLine(v) {
					n += b.gateArcs(v, true)
				}
			}
			n += b.exprArcs(nd.Cond) + b.exprArcs(nd.RHS) + b.exprArcs(nd.TargetIndex)
			switch {
			case nd.Kind == cfg.KindFork || nd.TargetIndex == nil && b.valueLine(nd.Target):
			case nd.TargetIndex == nil:
				n += 1 + b.gateArcs(nd.Target, false)
			case b.istructs[nd.Target]:
				n += 2
			default:
				n += 4 + b.gateArcs(nd.Target, false) // a §6.3 store's completion synch too
			}
		}
	}
	for _, ps := range b.pstores {
		n += 2 * len(ps.Exits)
	}
	return n
}

// valueLine reports whether scalar v's one token line carries its value
// (§6.1), so that it is neither loaded nor stored.
func (b *builder) valueLine(v string) bool {
	toks := b.vars[v]
	return len(toks) == 1 && b.value[toks[0]]
}

// gateArcs bounds the arcs into a memory operation on v's token lines:
// one per line, one from the synch that joins several, and for a §6.2
// read one per line into the synch that collects the reads.
func (b *builder) gateArcs(v string, read bool) int {
	k := len(b.vars[v])
	n := k
	if k > 1 {
		n++
	}
	if read && b.parReads {
		n += k
	}
	return n
}

// exprArcs counts the arcs compile emits for e: the operands of its
// operators, a constant's trigger, and an array read's index and gate.
func (b *builder) exprArcs(e lang.Expr) int {
	switch x := e.(type) {
	case *lang.IntLit:
		return 1
	case *lang.IndexRef:
		n := 1 + b.exprArcs(x.Index)
		if !b.istructs[x.Name] {
			n += b.gateArcs(x.Name, true)
		}
		return n
	case *lang.BinExpr:
		return 2 + b.exprArcs(x.L) + b.exprArcs(x.R)
	case *lang.UnExpr:
		return 1 + b.exprArcs(x.X)
	}
	return 0
}

// build drives the translation as the walk of Figure 11 (§4.2: the
// optimized graph is wired directly). It visits the route's topological
// order once (ignoring loop back edges) and carries the tokens by
// reference (analysis.Carrier): an entry is the wire a token is on beside
// the CFG source it leaves, or where several meet, the list of both. A
// node makes its operators, and Carrier.Move, which states what the node
// does to the tokens arriving on its row, takes from leave the wire each
// token leaves on. A back row's entries are parked once the last node
// sending to it is built, and filled into the loop entry's back port
// after the walk, as SSA construction fills an incomplete φ when it seals
// a block ("Simple and Efficient Construction of Static Single Assignment
// Form", Braun et al., CC 2013).
func (b *builder) build() error {
	r, v := b.route, len(b.universe)
	b.ctx = stmtCtx{b: b, tails: make([]src, v), pending: make([][]src, v), vals: map[string]src{}}
	parked := map[int][]int32{} // per back row, the entries that arrived
	if err := b.Walk(r, -1, b.visit, func(row int, s int32) { parked[row] = b.Park(s) }); err != nil {
		return err
	}
	// Back-edge wiring, by loop entry in visit order, then by token.
	les := b.les
	for _, id := range r.Order {
		if b.g.Nodes[id].Kind != cfg.KindLoopEntry {
			continue
		}
		back := parked[r.BackRow[id]] // by token; the walk sealed the row on every token the loop circulates
		for _, t := range r.LoopNeed(id) {
			i, _ := slices.BinarySearchFunc(back, t, func(e, t int32) int { return cmp.Compare(b.Ents[e].Tok, t) })
			b.wire(b.merged(back[i], id), les[0], 1, b.dummyFor(t))
			les = les[1:]
		}
	}
	return nil
}

// visit makes the operators of CFG node id that come before its tokens
// leave, has Move route the set s arriving on its row, and at a loop exit
// rejoins the §6.3 completion lines.
func (b *builder) visit(id int, s int32) error {
	var err error
	switch b.g.Nodes[id].Kind {
	case cfg.KindStart:
		if b.procMode {
			b.paramNodes = make([]int32, len(b.universe)) // one Param per token, made as it leaves
		} else {
			b.start = b.node(dfg.Node{Kind: dfg.Start, Stmt: int32(id)})
		}
	case cfg.KindEnd:
		b.buildEnd(id)
	case cfg.KindAssign:
		err = b.buildAssign(id, s)
	case cfg.KindFork:
		err = b.buildFork(id, s)
	case cfg.KindCall:
		err = b.buildCall(id, s)
	}
	if err == nil {
		err = b.Move(id, s, b.leave)
	}
	if err == nil && b.g.Nodes[id].Kind == cfg.KindLoopExit {
		err = b.rejoin(id, s)
	}
	return err
}

// leave makes the operators token entry e, the k-th the node takes,
// passes through as it leaves CFG node side.Node from side
// (Carrier.Move), and returns the wire it leaves on.
func (b *builder) leave(e int32, k int, side analysis.Source) analysis.Wire {
	id, t, ctx := int(side.Node), b.Ents[e].Tok, &b.ctx
	var w src
	switch b.g.Nodes[id].Kind {
	case cfg.KindStart:
		// A procedure unit's tokens arrive from its call sites: one Param
		// node per token, fed by every Apply.
		w = src{b.start, 0}
		if b.procMode {
			w.Node = b.node(dfg.Node{Kind: dfg.Param, Tok: b.toks[t], Var: b.out.NameID(b.procName), Stmt: int32(id)})
			b.paramNodes[t] = w.Node
		}
	case cfg.KindEnd:
		b.wire(b.merged(e, id), b.returnNode, int(t), b.dummyFor(t))
	case cfg.KindJoin:
		// "A join with a single source is equivalent to no operator"
		// (§4.2): Move passes only the tokens with several.
		w = b.merged(e, id)
	case cfg.KindLoopEntry:
		// The LoopEntry's back port is wired after the walk.
		w = src{b.node(dfg.Node{Kind: dfg.LoopEntry, Tok: b.toks[t], Stmt: int32(id)}), 0}
		b.wire(b.merged(e, id), w.Node, 0, b.dummyFor(t))
		b.les = append(b.les, w.Node)
	case cfg.KindLoopExit:
		w = src{b.node(dfg.Node{Kind: dfg.LoopExit, Tok: b.toks[t], Stmt: int32(id)}), 0}
		b.wire(b.wireOf(e), w.Node, 0, b.dummyFor(t))
	case cfg.KindCall:
		// The Apply buildCall made regenerates the call's k-th token on
		// its port k.
		w = src{b.pendingCalls[len(b.pendingCalls)-1].apply, int32(k)}
	case cfg.KindAssign:
		w = ctx.collapse(t)
	case cfg.KindFork:
		if side.Read { // read but not switched: the post-read tap
			w = ctx.collapse(t)
			break
		}
		data := b.wireOf(e)
		if slices.Contains(ctx.consumed, t) {
			data = ctx.collapse(t)
		}
		w = src{b.node(dfg.Node{Kind: dfg.Switch, Tok: b.toks[t], Stmt: int32(id)}), 0}
		b.wire(data, w.Node, 0, b.dummyFor(t))
		b.wire(ctx.pred, w.Node, 1, false)
	}
	return analysis.Wire(w)
}

// buildEnd makes the End node, or a procedure unit's ProcReturn, every
// token's line is collected at.
func (b *builder) buildEnd(id int) {
	kind := dfg.End
	if b.procMode {
		kind = dfg.ProcReturn
	}
	if len(b.universe) == 0 && !b.procMode {
		// No token circulates: end collects start's own token, as Schema
		// 1's single token line runs from start to end.
		e := b.node(dfg.Node{Kind: kind, NIns: 1, Stmt: int32(id)})
		b.wire(src{b.start, 0}, e, 0, true)
		return
	}
	b.returnNode = b.node(dfg.Node{Kind: kind, NIns: int32(len(b.universe)), Var: b.out.NameID(b.procName), Stmt: int32(id)})
}

// pendingCall records one Apply awaiting linkage to its callee unit.
type pendingCall struct {
	apply    int32
	proc     string
	inTokens []string
	bindings map[string]string
}

// buildCall translates a call statement (separate-compilation mode): an
// Apply node consumes the caller-side tokens of everything the callee may
// touch; its return ports regenerate them when the callee's ProcReturn
// fires. Entry arcs into the callee's Param nodes are wired by the linker
// once every unit is built.
func (b *builder) buildCall(id int, s int32) error {
	if b.calleeArity == nil {
		return fmt.Errorf("translate: call statement outside separate-compilation mode at %s", b.g.Nodes[id])
	}
	n := b.g.Nodes[id]
	consumed := b.need.Row(id)
	if len(consumed) == 0 {
		return fmt.Errorf("translate: call of %s touches nothing (empty effect set)", n.Proc)
	}
	apply := b.node(dfg.Node{
		Kind: dfg.Apply, Var: b.out.NameID(n.Proc), Stmt: int32(id),
		NIns:  int32(len(consumed)),
		NOuts: int32(len(consumed) + b.calleeArity(n.Proc)),
	})
	inTokens := make([]string, len(consumed))
	for i, t := range consumed {
		e, err := b.Take(id, s, t)
		if err != nil {
			return err
		}
		b.wire(b.wireOf(e), apply, i, true)
		inTokens[i] = b.universe[t]
	}
	bindings := map[string]string{}
	for i, formal := range b.g.Prog.Proc(n.Proc).Params {
		bindings[formal] = n.Args[i]
	}
	b.pendingCalls = append(b.pendingCalls, &pendingCall{
		apply: apply, proc: n.Proc, inTokens: inTokens, bindings: bindings,
	})
	return nil
}

// rejoin applies §6.3 at loop exit id: downstream consumers of a
// parallelized array must wait for all of the loop's stores, so the
// array's access line is rejoined with the completion line. The line is
// the array's one token — under a Schema 3 cover its access set, not its
// name (FindParallelStores accepts unaliased arrays only).
func (b *builder) rejoin(id int, s int32) error {
	for i, ps := range b.pstores {
		if !slices.Contains(ps.Exits, id) {
			continue
		}
		t := b.vars[ps.Array][0]
		arr, err := b.Take(id, s, t)
		done, err2 := b.Take(id, s, b.done[i])
		if err := cmp.Or(err, err2); err != nil {
			return err
		}
		syn := b.node(dfg.Node{Kind: dfg.Synch, NIns: 2, Tok: b.toks[t], Stmt: int32(id)})
		b.wire(b.wireOf(arr), syn, 0, true)
		b.wire(b.wireOf(done), syn, 1, true)
		b.Put(arr, s, analysis.Input{From: analysis.Source{Node: int32(id), Dir: true}, W: analysis.Wire{Node: syn}})
	}
	return nil
}

// stmtCtx tracks, while one statement or fork block is built, the current
// tail of every token line threading through the block's memory
// operations (paper Figures 4, 7, 13), the pending read completions of
// §6.2 read parallelization, and the trigger wire feeding constants. The
// builder keeps one, reset for every block: tails and pending are indexed
// by token id.
type stmtCtx struct {
	b          *builder
	id         int
	consumed   []int32
	tails      []src
	pending    [][]src
	trigger    src
	hasTrigger bool
	vals       map[string]src // loaded scalar values
	pred       src            // a fork's predicate value
}

// newStmtCtx starts the block of CFG node id, consuming its tokens from
// set s.
func (b *builder) newStmtCtx(id int, consumed []int32, s int32) (*stmtCtx, error) {
	ctx := &b.ctx
	for _, t := range ctx.consumed {
		ctx.tails[t], ctx.pending[t] = noWire, ctx.pending[t][:0]
	}
	ctx.id, ctx.consumed, ctx.trigger, ctx.hasTrigger = id, consumed, noWire, false
	clear(ctx.vals)
	for i, t := range consumed {
		e, err := b.Take(id, s, t)
		if err != nil {
			return nil, err
		}
		ctx.tails[t] = b.wireOf(e)
		if i == 0 {
			ctx.trigger, ctx.hasTrigger = ctx.tails[t], true
		}
	}
	return ctx, nil
}

// collapse finishes any pending parallel reads on token t and returns its
// up-to-date tail.
func (ctx *stmtCtx) collapse(t int32) src {
	if p := ctx.pending[t]; len(p) > 0 {
		ctx.tails[t] = ctx.b.synchOf(p, ctx.id, t)
		ctx.pending[t] = p[:0]
	}
	return ctx.tails[t]
}

// gate returns the access wire of a memory operation on the given token
// lines: under §6.2 a read is fed a replica of each line, anything else
// waits for the line's pending reads first.
func (ctx *stmtCtx) gate(tokens []int32, read bool) src {
	b := ctx.b
	wires := b.wires[:0]
	for _, t := range tokens {
		if read && b.parReads {
			wires = append(wires, ctx.tails[t])
		} else {
			wires = append(wires, ctx.collapse(t))
		}
	}
	b.wires = wires
	return b.synchOf(wires, ctx.id, tokens[0])
}

// complete registers the operation's access completion out on the token
// lines it gated: their new tail, or under §6.2 one more read for the
// line's synch tree to collect.
func (ctx *stmtCtx) complete(tokens []int32, read bool, out src) {
	for _, t := range tokens {
		if read && ctx.b.parReads {
			ctx.pending[t] = append(ctx.pending[t], out)
		} else {
			ctx.tails[t] = out
		}
	}
}

// loadScalar emits the (single) load of scalar variable v for this block.
func (ctx *stmtCtx) loadScalar(v string) {
	b := ctx.b
	toks := b.vars[v]
	if b.valueLine(v) {
		// §6.1: the token line carries the value; no load needed.
		ctx.vals[v] = ctx.tails[toks[0]]
		return
	}
	gate := ctx.gate(toks, true)
	ld := b.node(dfg.Node{Kind: dfg.Load, Var: b.out.NameID(v), Stmt: int32(ctx.id)})
	b.wire(gate, ld, 0, true)
	ctx.complete(toks, true, src{ld, 1})
	ctx.vals[v] = src{ld, 0}
}

// compile builds the dataflow subgraph of an expression and returns the
// wire carrying its value. Scalar reads use the block's pre-loaded values;
// array reads emit LoadIdx operations threaded on the array's token lines
// in evaluation order.
func (ctx *stmtCtx) compile(e lang.Expr) (src, error) {
	b := ctx.b
	switch x := e.(type) {
	case *lang.IntLit:
		if !ctx.hasTrigger {
			return src{}, fmt.Errorf("translate: internal: no trigger wire for constant in %s", b.g.Nodes[ctx.id])
		}
		c := b.node(dfg.Node{Kind: dfg.Const, Val: x.Value, Stmt: int32(ctx.id)})
		b.wire(ctx.trigger, c, 0, true)
		return src{c, 0}, nil
	case *lang.VarRef:
		v, ok := ctx.vals[x.Name]
		if !ok {
			return src{}, fmt.Errorf("translate: internal: %s not pre-loaded in %s", x.Name, b.g.Nodes[ctx.id])
		}
		return v, nil
	case *lang.IndexRef:
		idx, err := ctx.compile(x.Index)
		if err != nil {
			return src{}, err
		}
		if b.istructs[x.Name] {
			// I-structure read: no access token; the memory defers the
			// read until the cell is written.
			ld := b.node(dfg.Node{Kind: dfg.ILoad, Var: b.out.NameID(x.Name), Stmt: int32(ctx.id)})
			b.wire(idx, ld, 0, false)
			return src{ld, 0}, nil
		}
		toks := b.vars[x.Name]
		gate := ctx.gate(toks, true)
		ld := b.node(dfg.Node{Kind: dfg.LoadIdx, Var: b.out.NameID(x.Name), Stmt: int32(ctx.id)})
		b.wire(idx, ld, 0, false)
		b.wire(gate, ld, 1, true)
		ctx.complete(toks, true, src{ld, 1})
		return src{ld, 0}, nil
	case *lang.BinExpr:
		l, err := ctx.compile(x.L)
		if err != nil {
			return src{}, err
		}
		r, err := ctx.compile(x.R)
		if err != nil {
			return src{}, err
		}
		op := b.node(dfg.Node{Kind: dfg.BinOp, Op: x.Op, Stmt: int32(ctx.id)})
		b.wire(l, op, 0, false)
		b.wire(r, op, 1, false)
		return src{op, 0}, nil
	case *lang.UnExpr:
		v, err := ctx.compile(x.X)
		if err != nil {
			return src{}, err
		}
		op := b.node(dfg.Node{Kind: dfg.UnOp, Op: x.Op, Stmt: int32(ctx.id)})
		b.wire(v, op, 0, false)
		return src{op, 0}, nil
	}
	return src{}, fmt.Errorf("translate: unknown expression %T", e)
}

func (b *builder) buildAssign(id int, s int32) error {
	n := b.g.Nodes[id]
	consumed := b.need.Row(id)
	ctx, err := b.newStmtCtx(id, consumed, s)
	if err != nil {
		return err
	}

	// Read block: one load per distinct scalar variable read, in name
	// order ("the assignment schema begins by reading the values it will
	// reference", §3).
	b.reads = b.g.ReadSet(b.reads[:0], id)
	for _, v := range b.reads {
		if !b.g.Prog.IsArray(v) {
			ctx.loadScalar(v)
		}
	}

	var idxSrc src
	if n.TargetIndex != nil {
		if idxSrc, err = ctx.compile(n.TargetIndex); err != nil {
			return err
		}
	}
	val, err := ctx.compile(n.RHS)
	if err != nil {
		return err
	}

	// Store.
	target := n.Target
	toks := b.vars[target]
	switch {
	case n.TargetIndex == nil && b.valueLine(target):
		// §6.1: the value rides the token line; no store.
		ctx.collapse(toks[0])
		ctx.tails[toks[0]] = val
	case n.TargetIndex == nil:
		gate := ctx.gate(toks, false)
		st := b.node(dfg.Node{Kind: dfg.Store, Var: b.out.NameID(target), Stmt: int32(id)})
		b.wire(val, st, 0, false)
		b.wire(gate, st, 1, true)
		ctx.complete(toks, false, src{st, 0})
	case b.istructs[target]:
		// I-structure write: index and value in, no token, no output.
		st := b.node(dfg.Node{Kind: dfg.IStore, Var: b.out.NameID(target), Stmt: int32(id)})
		b.wire(idxSrc, st, 0, false)
		b.wire(val, st, 1, false)
	default:
		st := b.node(dfg.Node{Kind: dfg.StoreIdx, Var: b.out.NameID(target), Stmt: int32(id)})
		b.wire(idxSrc, st, 0, false)
		b.wire(val, st, 1, false)
		gate := ctx.gate(toks, false)
		b.wire(gate, st, 2, true)
		if i := slices.IndexFunc(b.pstores, func(ps ParallelStore) bool { return ps.StoreStmt == id }); i >= 0 {
			// §6.3 / Figure 14(b): the store receives a replica of the
			// access token, which passes to the next iteration
			// immediately; the store's completion joins the loop's
			// completion line.
			d := b.done[i]
			ctx.tails[d] = b.synchOf([]src{ctx.collapse(d), {st, 0}}, id, d)
		} else {
			ctx.complete(toks, false, src{st, 0})
		}
	}
	return nil
}

// buildFork builds a fork's read block and its predicate; the switches
// are made as the switched tokens leave (leave).
func (b *builder) buildFork(id int, s int32) error {
	n := b.g.Nodes[id]
	consumed := b.need.Row(id)
	switched := b.route.Switched.Row(id)
	ctx, err := b.newStmtCtx(id, consumed, s)
	if err != nil {
		return err
	}
	// Switched-but-not-read tokens enter at the switch directly.
	for _, t := range switched {
		if slices.Contains(consumed, t) {
			continue
		}
		e, err := b.Take(id, s, t)
		if err != nil {
			return err
		}
		if !ctx.hasTrigger {
			ctx.trigger, ctx.hasTrigger = b.wireOf(e), true
		}
	}
	if len(consumed) == 0 && len(switched) == 0 {
		// A fork that reads nothing and switches nothing has no dataflow
		// presence at all: every token goes past it.
		return nil
	}

	// Read block for the predicate's variables.
	b.reads = b.g.ReadSet(b.reads[:0], id)
	for _, v := range b.reads {
		if !b.g.Prog.IsArray(v) {
			ctx.loadScalar(v)
		}
	}
	ctx.pred, err = ctx.compile(n.Cond)
	return err
}
