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
	value    []bool // per token, whether it carries its variable's value (§6.1)
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
	paramNodes   []int // per token
	returnNode   int
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
	return int32(b.out.AddNode(&b.slab[len(b.slab)-1]))
}

// wire connects w to port port of node to.
func (b *builder) wire(w src, to int32, port int, dummy bool) {
	b.out.AddArc(dfg.Arc{From: int(w.Node), FromPort: int(w.Port), To: int(to), ToPort: port, Dummy: dummy})
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
	s := b.node(dfg.Node{Kind: dfg.Synch, NIns: len(wires), Tok: b.universe[t], Stmt: stmt})
	for i, w := range wires {
		b.wire(w, s, i, true)
	}
	return src{s, 0}
}

// The sides a token leaves a CFG node on: its tap, a switch's false arm,
// a fork's post-read tap.
var tap, falseTap, readTap = analysis.Source{Dir: true}, analysis.Source{}, analysis.Source{Dir: true, Read: true}

// take returns token t's entry in set s, which CFG node id consumes.
func (b *builder) take(s, t int32, id int) (int32, error) {
	if e := b.Find(s, t); e >= 0 {
		return e, nil
	}
	return -1, fmt.Errorf("translate: %v consumes token %s but it has no sources", b.g.Nodes[id], b.universe[t])
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
	m := b.node(dfg.Node{Kind: dfg.Merge, Tok: b.universe[t], Stmt: id})
	for _, in := range ins {
		b.wire(src(in.W), m, 0, b.dummyFor(t))
	}
	return src{m, 0}
}

// leave is the input of a token leaving CFG node id on wire w, from side.
func leave(id int, w src, side analysis.Source) analysis.Input {
	side.Node = int32(id)
	return analysis.Input{From: side, W: analysis.Wire(w)}
}

// arcEstimate bounds, before anything is emitted, the arcs the builder
// emits: one per token a node regenerates, end collects or a back port
// receives, three per switched token (its data input, its predicate and
// an input of the merge its arms meet at), and about one per operand of
// the statements' expression graphs and their stores.
func (b *builder) arcEstimate() int {
	r := b.route
	n := r.Regen.Entries() + 3*r.Switched.Entries() + len(b.universe)
	for entry := range r.BackRow {
		n += len(r.LoopNeed(entry))
	}
	for _, nd := range b.g.Nodes {
		n += exprArcs(nd.RHS) + exprArcs(nd.Cond) + exprArcs(nd.TargetIndex)
		if nd.RHS != nil {
			n += 2
		}
	}
	return n
}

func exprArcs(e lang.Expr) int {
	switch x := e.(type) {
	case *lang.IntLit, *lang.VarRef:
		return 1
	case *lang.IndexRef:
		return 2 + exprArcs(x.Index)
	case *lang.BinExpr:
		return 2 + exprArcs(x.L) + exprArcs(x.R)
	case *lang.UnExpr:
		return 1 + exprArcs(x.X)
	}
	return 0
}

// build drives the translation as the walk of Figure 11 (§4.2: the
// optimized graph is wired directly). It visits the route's topological
// order once (ignoring loop back edges) and carries the tokens by
// reference (analysis.Carrier): an entry is the wire a token is on beside
// the CFG source it leaves, or where several meet, the list of both. A
// node takes what it consumes from the set arriving on its row and puts
// its own output wires back. A back row's entries are parked once the
// last node sending to it is built, and filled into the loop entry's back
// port after the walk, as SSA construction fills an incomplete φ when it
// seals a block ("Simple and Efficient Construction of Static Single
// Assignment Form", Braun et al., CC 2013).
func (b *builder) build() error {
	r, v := b.route, len(b.universe)
	b.ctx = stmtCtx{b: b, tails: make([]src, v), pending: make([][]src, v), vals: map[string]src{}}
	parked := map[int][]int32{} // per back row, the entries that arrived
	if err := b.Walk(r, v, b.visit, func(row int) { parked[row] = b.Park(b.Arrive(row)) }); err != nil {
		return err
	}
	// Back-edge wiring, by loop entry in visit order, then by token.
	les := b.les
	for _, id := range r.Order {
		if b.g.Nodes[id].Kind != cfg.KindLoopEntry {
			continue
		}
		back := parked[r.BackRow[id]] // by token, of the tokens the loop circulates
		for i, t := range r.LoopNeed(id) {
			if i >= len(back) || b.Ents[back[i]].Tok != t {
				return fmt.Errorf("translate: loop entry %s has no back-edge source for %s", b.g.Nodes[id], b.universe[t])
			}
			b.wire(b.merged(back[i], id), les[0], 1, b.dummyFor(t))
			les = les[1:]
		}
	}
	return nil
}

// visit builds CFG node id from the set arriving on its row, and sends
// the set on.
func (b *builder) visit(id int) error {
	kind := b.g.Nodes[id].Kind
	s := b.Arrive(id)
	if multi := b.Multi(s); len(multi) > 0 && kind != cfg.KindJoin && kind != cfg.KindEnd && kind != cfg.KindLoopEntry {
		return fmt.Errorf("translate: %s has %d sources for %s at non-merge node", b.g.Nodes[id], len(b.Inputs(multi[0])), b.universe[b.Ents[multi[0]].Tok])
	}
	var err error
	switch kind {
	case cfg.KindEnd:
		return b.buildEnd(id, s)
	case cfg.KindFork:
		return b.buildFork(id, s)
	case cfg.KindLoopEntry:
		return b.buildLoopEntry(id, s)
	case cfg.KindStart:
		b.buildStart(id, s)
	case cfg.KindJoin:
		b.buildJoin(id, s)
	case cfg.KindAssign:
		err = b.buildAssign(id, s)
	case cfg.KindLoopExit:
		err = b.buildLoopExit(id, s)
	case cfg.KindCall:
		err = b.buildCall(id, s)
	}
	b.Send(s, b.route.Next[id]) // harmless after an error: the walk stops at it
	return err
}

func (b *builder) buildStart(id int, s int32) {
	if b.procMode {
		// A procedure unit's tokens arrive from its call sites: one Param
		// node per token, fed by every Apply.
		b.paramNodes = make([]int, len(b.universe))
		for t, tok := range b.universe {
			p := b.node(dfg.Node{Kind: dfg.Param, Tok: tok, Var: b.procName, Stmt: id})
			b.paramNodes[t] = int(p)
			b.Add(s, int32(t), leave(id, src{p, 0}, tap))
		}
		return
	}
	b.start = b.node(dfg.Node{Kind: dfg.Start, Stmt: id})
	for t := range int32(len(b.universe)) {
		b.Add(s, t, leave(id, src{b.start, 0}, tap))
	}
}

func (b *builder) buildEnd(id int, s int32) error {
	kind := dfg.End
	if b.procMode {
		kind = dfg.ProcReturn
	}
	if len(b.universe) == 0 && !b.procMode {
		// No token circulates: end collects start's own token, as Schema
		// 1's single token line runs from start to end.
		e := b.node(dfg.Node{Kind: kind, NIns: 1, Stmt: id})
		b.wire(src{b.start, 0}, e, 0, true)
		return nil
	}
	e := b.node(dfg.Node{Kind: kind, NIns: len(b.universe), Var: b.procName, Stmt: id})
	b.returnNode = int(e)
	for t := range int32(len(b.universe)) {
		en := b.Find(s, t)
		if en < 0 {
			return fmt.Errorf("translate: token %s never reaches end", b.universe[t])
		}
		b.wire(b.merged(en, id), e, int(t), b.dummyFor(t))
	}
	return nil
}

// pendingCall records one Apply awaiting linkage to its callee unit.
type pendingCall struct {
	apply    int
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
		Kind: dfg.Apply, Var: n.Proc, Stmt: id,
		NIns:  len(consumed),
		NOuts: len(consumed) + b.calleeArity(n.Proc),
	})
	inTokens := make([]string, len(consumed))
	for i, t := range consumed {
		e, err := b.take(s, t, id)
		if err != nil {
			return err
		}
		b.wire(b.wireOf(e), apply, i, true)
		b.Put(e, s, leave(id, src{apply, int32(i)}, tap))
		inTokens[i] = b.universe[t]
	}
	bindings := map[string]string{}
	for i, formal := range b.g.Prog.Proc(n.Proc).Params {
		bindings[formal] = n.Args[i]
	}
	b.pendingCalls = append(b.pendingCalls, &pendingCall{
		apply: int(apply), proc: n.Proc, inTokens: inTokens, bindings: bindings,
	})
	return nil
}

// buildJoin makes a merge for every token with several sources, by
// ascending token; a token with a single source passes ("a join with a
// single source is equivalent to no operator", §4.2).
func (b *builder) buildJoin(id int, s int32) {
	multi := b.Multi(s)
	slices.SortFunc(multi, func(x, y int32) int { return cmp.Compare(b.Ents[x].Tok, b.Ents[y].Tok) })
	for _, e := range multi {
		b.Put(e, s, leave(id, b.merged(e, id), tap))
	}
}

// buildLoopEntry gives every token the loop circulates a LoopEntry node,
// whose back port is wired after the walk, and sends the others past the
// loop.
func (b *builder) buildLoopEntry(id int, s int32) error {
	body := b.NewSet()
	for _, t := range b.route.LoopNeed(id) {
		le := b.node(dfg.Node{Kind: dfg.LoopEntry, Tok: b.universe[t], Stmt: id})
		e := b.Find(s, t)
		if e < 0 {
			return fmt.Errorf("translate: loop entry %s has no initial source for %s", b.g.Nodes[id], b.universe[t])
		}
		b.wire(b.merged(e, id), le, 0, b.dummyFor(t))
		b.Put(e, body, leave(id, src{le, 0}, tap))
		b.les = append(b.les, le)
	}
	b.Send(body, b.route.Next[id])
	b.Send(s, b.route.Past[id])
	return nil
}

func (b *builder) buildLoopExit(id int, s int32) error {
	for _, t := range b.route.LoopNeed(id) {
		lx := b.node(dfg.Node{Kind: dfg.LoopExit, Tok: b.universe[t], Stmt: id})
		e, err := b.take(s, t, id)
		if err != nil {
			return err
		}
		b.wire(b.wireOf(e), lx, 0, b.dummyFor(t))
		b.Put(e, s, leave(id, src{lx, 0}, tap))
	}
	// §6.3: downstream consumers of a parallelized array must wait for all
	// of the loop's stores: rejoin the array's access line with the
	// completion line at the exit. The line is the array's one token —
	// under a Schema 3 cover its access set, not its name
	// (FindParallelStores accepts unaliased arrays only).
	for i, ps := range b.pstores {
		if !slices.Contains(ps.Exits, id) {
			continue
		}
		t := b.vars[ps.Array][0]
		arr, err := b.take(s, t, id)
		done, err2 := b.take(s, b.done[i], id)
		if err := cmp.Or(err, err2); err != nil {
			return err
		}
		syn := b.node(dfg.Node{Kind: dfg.Synch, NIns: 2, Tok: b.universe[t], Stmt: id})
		b.wire(b.wireOf(arr), syn, 0, true)
		b.wire(b.wireOf(done), syn, 1, true)
		b.Put(arr, s, leave(id, src{syn, 0}, tap))
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
	ents       []int32 // the consumed tokens' entries
	tails      []src
	pending    [][]src
	trigger    src
	hasTrigger bool
	vals       map[string]src // loaded scalar values
}

// newStmtCtx starts the block of CFG node id, consuming its tokens from
// set s.
func (b *builder) newStmtCtx(id int, consumed []int32, s int32) (*stmtCtx, error) {
	ctx := &b.ctx
	for _, t := range ctx.consumed {
		ctx.tails[t], ctx.pending[t] = noWire, ctx.pending[t][:0]
	}
	ctx.id, ctx.consumed, ctx.ents, ctx.trigger, ctx.hasTrigger = id, consumed, ctx.ents[:0], noWire, false
	clear(ctx.vals)
	for i, t := range consumed {
		e, err := b.take(s, t, id)
		if err != nil {
			return nil, err
		}
		ctx.ents, ctx.tails[t] = append(ctx.ents, e), b.wireOf(e)
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
	if len(toks) == 1 && b.value[toks[0]] {
		// §6.1: the token line carries the value; no load needed.
		ctx.vals[v] = ctx.tails[toks[0]]
		return
	}
	gate := ctx.gate(toks, true)
	ld := b.node(dfg.Node{Kind: dfg.Load, Var: v, Stmt: ctx.id})
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
		c := b.node(dfg.Node{Kind: dfg.Const, Val: x.Value, Stmt: ctx.id})
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
			ld := b.node(dfg.Node{Kind: dfg.ILoad, Var: x.Name, Stmt: ctx.id})
			b.wire(idx, ld, 0, false)
			return src{ld, 0}, nil
		}
		toks := b.vars[x.Name]
		gate := ctx.gate(toks, true)
		ld := b.node(dfg.Node{Kind: dfg.LoadIdx, Var: x.Name, Stmt: ctx.id})
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
		op := b.node(dfg.Node{Kind: dfg.BinOp, Op: x.Op, Stmt: ctx.id})
		b.wire(l, op, 0, false)
		b.wire(r, op, 1, false)
		return src{op, 0}, nil
	case *lang.UnExpr:
		v, err := ctx.compile(x.X)
		if err != nil {
			return src{}, err
		}
		op := b.node(dfg.Node{Kind: dfg.UnOp, Op: x.Op, Stmt: ctx.id})
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
	case n.TargetIndex == nil && len(toks) == 1 && b.value[toks[0]]:
		// §6.1: the value rides the token line; no store.
		ctx.collapse(toks[0])
		ctx.tails[toks[0]] = val
	case n.TargetIndex == nil:
		gate := ctx.gate(toks, false)
		st := b.node(dfg.Node{Kind: dfg.Store, Var: target, Stmt: id})
		b.wire(val, st, 0, false)
		b.wire(gate, st, 1, true)
		ctx.complete(toks, false, src{st, 0})
	case b.istructs[target]:
		// I-structure write: index and value in, no token, no output.
		st := b.node(dfg.Node{Kind: dfg.IStore, Var: target, Stmt: id})
		b.wire(idxSrc, st, 0, false)
		b.wire(val, st, 1, false)
	default:
		st := b.node(dfg.Node{Kind: dfg.StoreIdx, Var: target, Stmt: id})
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

	for i, t := range consumed {
		b.Put(ctx.ents[i], s, leave(id, ctx.collapse(t), tap))
	}
	return nil
}

// buildFork builds a fork's read block and its switches: a switched
// token leaves on the switch's arms, into a new set each, and the set
// goes on past the fork with the tokens it reads or does not touch.
func (b *builder) buildFork(id int, s int32) error {
	n := b.g.Nodes[id]
	consumed := b.need.Row(id)
	switched := b.route.Switched.Row(id)
	yes, no := b.NewSet(), b.NewSet()
	defer func() {
		b.Send(yes, b.route.Next[id])
		b.Send(no, b.route.Alt[id])
		b.Send(s, b.route.Past[id])
	}()

	ctx, err := b.newStmtCtx(id, consumed, s)
	if err != nil {
		return err
	}
	// Switched-but-not-read tokens enter at the switch directly.
	for _, t := range switched {
		if slices.Contains(consumed, t) {
			continue
		}
		e, err := b.take(s, t, id)
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
	pval, err := ctx.compile(n.Cond)
	if err != nil {
		return err
	}

	for _, t := range switched {
		e := b.Find(s, t)
		data := b.wireOf(e)
		if slices.Contains(consumed, t) {
			data = ctx.collapse(t)
		}
		sw := b.node(dfg.Node{Kind: dfg.Switch, Tok: b.universe[t], Stmt: id})
		b.wire(data, sw, 0, b.dummyFor(t))
		b.wire(pval, sw, 1, false)
		b.Put(e, yes, leave(id, src{sw, 0}, tap))
		b.Add(no, t, leave(id, src{sw, 1}, falseTap))
	}
	// Read-but-unswitched tokens leave through the post-read tap.
	for i, t := range consumed {
		if !slices.Contains(switched, t) {
			b.Put(ctx.ents[i], s, leave(id, ctx.collapse(t), readTap))
		}
	}
	return nil
}
