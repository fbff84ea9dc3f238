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
type src struct {
	node int32
	port int32
}

var noWire = src{-1, 0}

type builder struct {
	g     *cfg.Graph
	loops []cfg.Loop
	numbering
	sv        *analysis.SourceVectors
	placement *analysis.Placement
	value     []bool // per token, whether it carries its variable's value (§6.1)
	parReads  bool
	pstores   []ParallelStore
	istructs  map[string]bool // arrays with I-structure semantics (§6.3)
	out       *dfg.Editor
	start     int32 // the start node, once built

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

	// taps holds the wires tokens leave CFG nodes on, node id's in
	// taps[spans[id].lo:spans[id].hi] sorted by key: the true or only
	// out-direction, and on a fork's other side a switch's false arm or
	// the post-read tap of a token the fork reads but does not switch
	// (never both). A node keeps a wire only for the tokens it regenerates
	// or switches. The taps of the node being built, building,
	// are appended at taps[spans[building].lo:], and open[key] is the
	// index of key's tap there, or -1.
	taps     []tap
	spans    []tapSpan
	building int
	open     []int32

	// Scratch reused from statement to statement: the context, the nodes
	// emitted (allocated a slab at a time), the wires a gate collects, the
	// tokens a join merges, the variables a block reads.
	ctx    stmtCtx
	slab   []dfg.Node
	wires  []src
	merged []int32
	reads  []string
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
	b.out.AddArc(dfg.Arc{From: int(w.node), FromPort: int(w.port), To: int(to), ToPort: port, Dummy: dummy})
}

// tap is one wire a token leaves a CFG node on, under the key tapKey
// gives the token and side.
type tap struct {
	key int32
	w   src
}

type tapSpan struct{ lo, hi int32 }

// tapKey is 2·t, plus 1 on a fork's other side.
func tapKey(side bool, t int32) int32 {
	if side {
		return 2*t + 1
	}
	return 2 * t
}

// setTap records w as the wire token t leaves the node being built on, on
// the fork's other side when side is set.
func (b *builder) setTap(side bool, t int32, w src) {
	k := tapKey(side, t)
	if b.open[k] >= 0 {
		b.taps[b.open[k]].w = w
		return
	}
	b.open[k] = int32(len(b.taps))
	b.taps = append(b.taps, tap{k, w})
}

// tapOf returns the wire token t leaves CFG node id on, on the fork's
// other side when side is set, or noWire.
func (b *builder) tapOf(id int, side bool, t int32) src {
	k := tapKey(side, t)
	switch {
	case id == b.building:
		if i := b.open[k]; i >= 0 {
			return b.taps[i].w
		}
	default:
		span := b.taps[b.spans[id].lo:b.spans[id].hi]
		if i, found := slices.BinarySearchFunc(span, k, func(x tap, k int32) int { return cmp.Compare(x.key, k) }); found {
			return span[i].w
		}
	}
	return noWire
}

// resolve maps an SV source of token t to the concrete output port it
// names.
func (b *builder) resolve(s analysis.Source, t int32) (src, error) {
	if w := b.tapOf(int(s.Node), s.Read || !s.Dir, t); w.node >= 0 {
		return w, nil
	}
	return src{}, fmt.Errorf("translate: no tap for %v token %s (source %s)", b.g.Nodes[s.Node], b.universe[t], s)
}

// inputSrc resolves the (single or merged) source of token t flowing
// into CFG node id and returns the wire to consume it from. A merge node
// is created when several sources feed the same point.
func (b *builder) inputSrc(id int, t int32) (src, error) {
	return b.combine(b.sv.Sources(id, t), id, t)
}

func (b *builder) combine(srcs []analysis.Source, id int, t int32) (src, error) {
	if len(srcs) == 0 {
		return src{}, fmt.Errorf("translate: %v consumes token %s but it has no sources", b.g.Nodes[id], b.universe[t])
	}
	if len(srcs) == 1 {
		return b.resolve(srcs[0], t)
	}
	m := b.node(dfg.Node{Kind: dfg.Merge, Tok: b.universe[t], Stmt: id})
	for _, s := range srcs {
		w, err := b.resolve(s, t)
		if err != nil {
			return src{}, err
		}
		b.wire(w, m, 0, b.dummyFor(t))
	}
	return src{m, 0}, nil
}

// synchOf collects a set of wires into one: a single wire passes through;
// several are joined by a synch tree (paper Figure 2). Wires are
// deduplicated — token lines that already merged at a shared operation
// need only one arc. The wires are sorted in place; the synch is named
// after token t.
func (b *builder) synchOf(wires []src, stmt int, t int32) src {
	slices.SortFunc(wires, func(x, y src) int { return cmp.Or(cmp.Compare(x.node, y.node), cmp.Compare(x.port, y.port)) })
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

// arcEstimate bounds, before anything is emitted, the arcs the builder
// emits: one per source a consuming node reads (the source vectors'
// wires), one per switch for its predicate, and about one per operand of
// the statements' expression graphs and their stores.
func (b *builder) arcEstimate() int {
	n := b.sv.Wires()
	for _, set := range b.placement.Needs {
		n += len(set)
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

// build drives the translation: CFG nodes are processed in the
// topological order the source vectors were propagated in (ignoring loop
// back edges), so every input source tap exists by the time it is
// consumed; loop-entry back ports are wired in a final pass.
func (b *builder) build() error {
	v := len(b.universe)
	b.spans = make([]tapSpan, b.g.Len())
	b.open = make([]int32, 2*v)
	for k := range b.open {
		b.open[k] = -1
	}
	b.ctx = stmtCtx{b: b, tails: make([]src, v), pending: make([][]src, v), vals: map[string]src{}}

	var pendingBack []int
	for _, id := range b.sv.Order {
		n := b.g.Nodes[id]
		b.building = id
		lo := int32(len(b.taps))
		var err error
		switch n.Kind {
		case cfg.KindStart:
			b.buildStart(id)
		case cfg.KindEnd:
			err = b.buildEnd(id)
		case cfg.KindAssign:
			err = b.buildAssign(id)
		case cfg.KindFork:
			err = b.buildFork(id)
		case cfg.KindJoin:
			err = b.buildJoin(id)
		case cfg.KindLoopEntry:
			err = b.buildLoopEntry(id)
			pendingBack = append(pendingBack, id)
		case cfg.KindLoopExit:
			err = b.buildLoopExit(id)
		case cfg.KindCall:
			err = b.buildCall(id)
		}
		if err != nil {
			return err
		}
		span := b.taps[lo:]
		for _, x := range span {
			b.open[x.key] = -1
		}
		slices.SortFunc(span, func(x, y tap) int { return cmp.Compare(x.key, y.key) })
		b.spans[id] = tapSpan{lo, int32(len(b.taps))}
	}
	b.building = -1
	// Back-edge wiring: every tap now exists.
	for _, id := range pendingBack {
		if err := b.wireBackPort(id); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) buildStart(id int) {
	if b.procMode {
		// A procedure unit's tokens arrive from its call sites: one Param
		// node per token, fed by every Apply.
		b.paramNodes = make([]int, len(b.universe))
		for t, tok := range b.universe {
			p := b.node(dfg.Node{Kind: dfg.Param, Tok: tok, Var: b.procName, Stmt: id})
			b.paramNodes[t] = int(p)
			b.setTap(false, int32(t), src{p, 0})
		}
		return
	}
	s := b.node(dfg.Node{Kind: dfg.Start, Stmt: id})
	b.start = s
	for t := range b.universe {
		b.setTap(false, int32(t), src{s, 0})
	}
}

func (b *builder) buildEnd(id int) error {
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
		w, err := b.inputSrc(id, t)
		if err != nil {
			return err
		}
		b.wire(w, e, int(t), b.dummyFor(t))
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
func (b *builder) buildCall(id int) error {
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
		w, err := b.inputSrc(id, t)
		if err != nil {
			return err
		}
		b.wire(w, apply, i, true)
		b.setTap(false, t, src{apply, int32(i)})
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

func (b *builder) buildJoin(id int) error {
	// A join becomes a merge for every token with several sources; tokens
	// with a single source were forwarded during the source-vector
	// computation ("a join with a single source is equivalent to no
	// operator", §4.2).
	b.merged = b.sv.Merges(id, b.merged[:0])
	for _, t := range b.merged {
		w, err := b.inputSrc(id, t)
		if err != nil {
			return err
		}
		b.setTap(false, t, w)
	}
	return nil
}

func (b *builder) buildLoopEntry(id int) error {
	for _, t := range b.sv.LoopNeed(id) {
		le := b.node(dfg.Node{Kind: dfg.LoopEntry, Tok: b.universe[t], Stmt: id})
		w, err := b.inputSrc(id, t)
		if err != nil {
			return err
		}
		b.wire(w, le, 0, b.dummyFor(t))
		b.setTap(false, t, src{le, 0})
	}
	return nil
}

func (b *builder) wireBackPort(id int) error {
	for _, t := range b.sv.LoopNeed(id) {
		w, err := b.combine(b.sv.BackSources(id, t), id, t)
		if err != nil {
			return err
		}
		b.wire(w, b.tapOf(id, false, t).node, 1, b.dummyFor(t))
	}
	return nil
}

func (b *builder) buildLoopExit(id int) error {
	for _, t := range b.sv.LoopNeed(id) {
		lx := b.node(dfg.Node{Kind: dfg.LoopExit, Tok: b.universe[t], Stmt: id})
		w, err := b.inputSrc(id, t)
		if err != nil {
			return err
		}
		b.wire(w, lx, 0, b.dummyFor(t))
		b.setTap(false, t, src{lx, 0})
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
		t, exit := b.vars[ps.Array][0], analysis.Source{Node: int32(id), Dir: true}
		arr, err := b.resolve(exit, t)
		if err != nil {
			return err
		}
		done, err := b.resolve(exit, b.done[i])
		if err != nil {
			return err
		}
		s := b.node(dfg.Node{Kind: dfg.Synch, NIns: 2, Tok: b.universe[t], Stmt: id})
		b.wire(arr, s, 0, true)
		b.wire(done, s, 1, true)
		b.setTap(false, t, src{s, 0})
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
}

func (b *builder) newStmtCtx(id int, consumed []int32) (*stmtCtx, error) {
	ctx := &b.ctx
	for _, t := range ctx.consumed {
		ctx.tails[t], ctx.pending[t] = noWire, ctx.pending[t][:0]
	}
	ctx.id, ctx.consumed, ctx.trigger, ctx.hasTrigger = id, consumed, noWire, false
	clear(ctx.vals)
	for i, t := range consumed {
		w, err := b.inputSrc(id, t)
		if err != nil {
			return nil, err
		}
		ctx.tails[t] = w
		if i == 0 {
			ctx.trigger = w
			ctx.hasTrigger = true
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

func (b *builder) buildAssign(id int) error {
	n := b.g.Nodes[id]
	consumed := b.need.Row(id)
	ctx, err := b.newStmtCtx(id, consumed)
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

	for _, t := range consumed {
		b.setTap(false, t, ctx.collapse(t))
	}
	return nil
}

func (b *builder) buildFork(id int) error {
	n := b.g.Nodes[id]
	consumed := b.need.Row(id)
	switched := b.placement.Needs[id]

	ctx, err := b.newStmtCtx(id, consumed)
	if err != nil {
		return err
	}
	// Switched-but-not-read tokens enter at the switch directly.
	for _, t := range switched {
		if slices.Contains(consumed, t) {
			continue
		}
		w, err := b.inputSrc(id, t)
		if err != nil {
			return err
		}
		b.setTap(true, t, w) // the switch's data input, until the switch is built
		if !ctx.hasTrigger {
			ctx.trigger = w
			ctx.hasTrigger = true
		}
	}
	if len(consumed) == 0 && len(switched) == 0 {
		// A fork that reads nothing and switches nothing has no dataflow
		// presence at all; source vectors routed every token past it.
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
		data := b.tapOf(id, true, t)
		if slices.Contains(consumed, t) {
			data = ctx.collapse(t)
		}
		sw := b.node(dfg.Node{Kind: dfg.Switch, Tok: b.universe[t], Stmt: id})
		b.wire(data, sw, 0, b.dummyFor(t))
		b.wire(pval, sw, 1, false)
		b.setTap(false, t, src{sw, 0})
		b.setTap(true, t, src{sw, 1})
	}
	// Read-but-unswitched tokens leave through the post-read tap.
	for _, t := range consumed {
		if !slices.Contains(switched, t) {
			b.setTap(true, t, ctx.collapse(t))
		}
	}
	return nil
}
