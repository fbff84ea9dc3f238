package translate

import (
	"fmt"
	"sort"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/lang"
)

// src is a wire source: an output port of a dataflow node.
type src struct {
	node int
	port int
}

type builder struct {
	g     *cfg.Graph
	loops []cfg.Loop
	// need gives the sorted token set a statement or fork block consumes:
	// the tokens of every variable it references plus any §6.3 completion
	// token attached to it.
	need        analysis.NeedFunc
	sv          *analysis.SourceVectors
	placement   *analysis.Placement
	tokensOf    map[string][]string
	universe    []string
	valueTokens map[string]string // token → variable whose value it carries (§6.1)
	parReads    bool
	pstores     map[int]ParallelStore // by StoreStmt
	istructs    map[string]bool       // arrays with I-structure semantics (§6.3)
	out         *dfg.Graph

	// Separate-compilation (linked) mode: a procedure unit replaces the
	// start node by per-token Param nodes and the end node by a ProcReturn;
	// call statements become Apply nodes. callNeed supplies the mapped
	// token set a call consumes; pendingCalls records linkage to resolve
	// after every unit is built.
	procMode     bool
	procName     string
	paramNodes   map[string]int
	returnNode   int
	callNeed     func(id int) []string
	calleeArity  func(proc string) int // callee universe size (param ports)
	pendingCalls []*pendingCall

	// Output taps per CFG node and token: the true/single out-direction,
	// the false out-direction (switch false arms), and the fork post-read
	// tap.
	tapT map[int]map[string]src
	tapF map[int]map[string]src
	tapR map[int]map[string]src
}

func indexParallelStores(ps []ParallelStore) map[int]ParallelStore {
	out := map[int]ParallelStore{}
	for _, p := range ps {
		out[p.StoreStmt] = p
	}
	return out
}

func (b *builder) isValueToken(tok string) bool { return b.valueTokens[tok] != "" }

// dummyFor reports whether arcs carrying token tok are dummy
// (synchronization-only) arcs; value-carrying token lines (§6.1) are not.
func (b *builder) dummyFor(tok string) bool { return !b.isValueToken(tok) }

func (b *builder) setTap(m map[int]map[string]src, id int, tok string, s src) {
	if m[id] == nil {
		m[id] = map[string]src{}
	}
	m[id][tok] = s
}

// resolve maps an SV source to the concrete output port it names.
func (b *builder) resolve(s analysis.Source, tok string) (src, error) {
	var m map[int]map[string]src
	switch {
	case s.Read:
		m = b.tapR
	case s.Dir:
		m = b.tapT
	default:
		m = b.tapF
	}
	w, ok := m[s.Node][tok]
	if !ok {
		return src{}, fmt.Errorf("translate: no tap for %v token %s (source %s)", b.g.Nodes[s.Node], tok, s)
	}
	return w, nil
}

// inputSrc resolves the (single or merged) source of token tok flowing
// into CFG node id and returns the wire to consume it from. A merge node
// is created when several sources feed the same point.
func (b *builder) inputSrc(id int, tok string) (src, error) {
	return b.combine(b.sv.Sources(id, tok), id, tok)
}

func (b *builder) combine(srcs []analysis.Source, id int, tok string) (src, error) {
	if len(srcs) == 0 {
		return src{}, fmt.Errorf("translate: %v consumes token %s but it has no sources", b.g.Nodes[id], tok)
	}
	if len(srcs) == 1 {
		return b.resolve(srcs[0], tok)
	}
	m := b.out.Add(&dfg.Node{Kind: dfg.Merge, Tok: tok, Stmt: id})
	for _, s := range srcs {
		w, err := b.resolve(s, tok)
		if err != nil {
			return src{}, err
		}
		b.out.Connect(w.node, w.port, m.ID, 0, b.dummyFor(tok))
	}
	return src{m.ID, 0}, nil
}

// synchOf collects a set of wires into one: a single wire passes through;
// several are joined by a synch tree (paper Figure 2). Wires are
// deduplicated — token lines that already merged at a shared operation
// need only one arc.
func (b *builder) synchOf(wires []src, stmt int, tok string) src {
	dedup := wires[:0:0]
	seen := map[src]bool{}
	for _, w := range wires {
		if !seen[w] {
			seen[w] = true
			dedup = append(dedup, w)
		}
	}
	sort.Slice(dedup, func(i, j int) bool {
		if dedup[i].node != dedup[j].node {
			return dedup[i].node < dedup[j].node
		}
		return dedup[i].port < dedup[j].port
	})
	if len(dedup) == 1 {
		return dedup[0]
	}
	s := b.out.Add(&dfg.Node{Kind: dfg.Synch, NIns: len(dedup), Tok: tok, Stmt: stmt})
	for i, w := range dedup {
		b.out.Connect(w.node, w.port, s.ID, i, true)
	}
	return src{s.ID, 0}
}

// build drives the translation: CFG nodes are processed in the
// topological order the source vectors were propagated in (ignoring loop
// back edges), so every input source tap exists by the time it is
// consumed; loop-entry back ports are wired in a final pass.
func (b *builder) build() error {
	b.tapT = map[int]map[string]src{}
	b.tapF = map[int]map[string]src{}
	b.tapR = map[int]map[string]src{}

	var pendingBack []int
	for _, id := range b.sv.Order {
		n := b.g.Nodes[id]
		switch n.Kind {
		case cfg.KindStart:
			if err := b.buildStart(id); err != nil {
				return err
			}
		case cfg.KindEnd:
			if err := b.buildEnd(id); err != nil {
				return err
			}
		case cfg.KindAssign:
			if err := b.buildAssign(id); err != nil {
				return err
			}
		case cfg.KindFork:
			if err := b.buildFork(id); err != nil {
				return err
			}
		case cfg.KindJoin:
			if err := b.buildJoin(id); err != nil {
				return err
			}
		case cfg.KindLoopEntry:
			if err := b.buildLoopEntry(id); err != nil {
				return err
			}
			pendingBack = append(pendingBack, id)
		case cfg.KindLoopExit:
			if err := b.buildLoopExit(id); err != nil {
				return err
			}
		case cfg.KindCall:
			if err := b.buildCall(id); err != nil {
				return err
			}
		}
	}
	// Back-edge wiring: every tap now exists.
	for _, id := range pendingBack {
		if err := b.wireBackPort(id); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) buildStart(id int) error {
	if b.procMode {
		// A procedure unit's tokens arrive from its call sites: one Param
		// node per token, fed by every Apply.
		b.paramNodes = map[string]int{}
		for _, tok := range b.universe {
			p := b.out.Add(&dfg.Node{Kind: dfg.Param, Tok: tok, Var: b.procName, Stmt: id})
			b.paramNodes[tok] = p.ID
			b.setTap(b.tapT, id, tok, src{p.ID, 0})
		}
		return nil
	}
	s := b.out.Add(&dfg.Node{Kind: dfg.Start, Stmt: id})
	for _, tok := range b.universe {
		b.setTap(b.tapT, id, tok, src{s.ID, 0})
	}
	return nil
}

func (b *builder) buildEnd(id int) error {
	kind := dfg.End
	if b.procMode {
		kind = dfg.ProcReturn
	}
	e := b.out.Add(&dfg.Node{Kind: kind, NIns: len(b.universe), Var: b.procName, Stmt: id})
	b.returnNode = e.ID
	for i, tok := range b.universe {
		w, err := b.inputSrc(id, tok)
		if err != nil {
			return err
		}
		b.out.Connect(w.node, w.port, e.ID, i, b.dummyFor(tok))
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
	if b.callNeed == nil {
		return fmt.Errorf("translate: call statement outside separate-compilation mode at %s", b.g.Nodes[id])
	}
	n := b.g.Nodes[id]
	consumed := b.callNeed(id)
	if len(consumed) == 0 {
		return fmt.Errorf("translate: call of %s touches nothing (empty effect set)", n.Proc)
	}
	apply := b.out.Add(&dfg.Node{
		Kind: dfg.Apply, Var: n.Proc, Stmt: id,
		NIns:  len(consumed),
		NOuts: len(consumed) + b.calleeArity(n.Proc),
	})
	for i, tok := range consumed {
		w, err := b.inputSrc(id, tok)
		if err != nil {
			return err
		}
		b.out.Connect(w.node, w.port, apply.ID, i, true)
		b.setTap(b.tapT, id, tok, src{apply.ID, i})
	}
	bindings := map[string]string{}
	for i, formal := range procParams(b.g.Prog, n.Proc) {
		bindings[formal] = n.Args[i]
	}
	b.pendingCalls = append(b.pendingCalls, &pendingCall{
		apply: apply.ID, proc: n.Proc, inTokens: consumed, bindings: bindings,
	})
	return nil
}

func procParams(prog *lang.Program, name string) []string {
	for _, pr := range prog.Procs() {
		if pr.Name == name {
			return pr.Params
		}
	}
	return nil
}

func (b *builder) buildJoin(id int) error {
	// A join becomes a merge for every token with several sources; tokens
	// with a single source were forwarded during the source-vector
	// computation ("a join with a single source is equivalent to no
	// operator", §4.2).
	for _, tok := range b.sv.Universe {
		srcs := b.sv.Sources(id, tok)
		if len(srcs) < 2 {
			continue
		}
		w, err := b.combine(srcs, id, tok)
		if err != nil {
			return err
		}
		b.setTap(b.tapT, id, tok, w)
	}
	return nil
}

func (b *builder) buildLoopEntry(id int) error {
	for _, tok := range sortedTokens(b.sv.LoopNeed[id]) {
		le := b.out.Add(&dfg.Node{Kind: dfg.LoopEntry, Tok: tok, Stmt: id})
		w, err := b.inputSrc(id, tok)
		if err != nil {
			return err
		}
		b.out.Connect(w.node, w.port, le.ID, 0, b.dummyFor(tok))
		b.setTap(b.tapT, id, tok, src{le.ID, 0})
	}
	return nil
}

func (b *builder) wireBackPort(id int) error {
	for _, tok := range sortedTokens(b.sv.LoopNeed[id]) {
		w, err := b.combine(b.sv.BackSources(id, tok), id, tok)
		if err != nil {
			return err
		}
		tap := b.tapT[id][tok]
		b.out.Connect(w.node, w.port, tap.node, 1, b.dummyFor(tok))
	}
	return nil
}

func (b *builder) buildLoopExit(id int) error {
	for _, tok := range sortedTokens(b.sv.LoopNeed[id]) {
		lx := b.out.Add(&dfg.Node{Kind: dfg.LoopExit, Tok: tok, Stmt: id})
		w, err := b.inputSrc(id, tok)
		if err != nil {
			return err
		}
		b.out.Connect(w.node, w.port, lx.ID, 0, b.dummyFor(tok))
		b.setTap(b.tapT, id, tok, src{lx.ID, 0})
	}
	// §6.3: downstream consumers of a parallelized array must wait for all
	// of the loop's stores: rejoin the array's access line with the
	// completion line at the exit.
	for _, ps := range b.pstores {
		if ps.loopHasExit(id) {
			arr := b.tapT[id][ps.Array]
			done := b.tapT[id][ps.DoneToken()]
			s := b.out.Add(&dfg.Node{Kind: dfg.Synch, NIns: 2, Tok: ps.Array, Stmt: id})
			b.out.Connect(arr.node, arr.port, s.ID, 0, true)
			b.out.Connect(done.node, done.port, s.ID, 1, true)
			b.setTap(b.tapT, id, ps.Array, src{s.ID, 0})
		}
	}
	return nil
}

// stmtCtx tracks, while one statement or fork block is built, the current
// tail of every token line threading through the block's memory
// operations (paper Figures 4, 7, 13), the pending read completions of
// §6.2 read parallelization, and the trigger wire feeding constants.
type stmtCtx struct {
	b          *builder
	id         int
	tails      map[string]src
	pending    map[string][]src
	trigger    src
	hasTrigger bool
	vals       map[string]src // loaded scalar values
}

func (b *builder) newStmtCtx(id int, consumed []string) (*stmtCtx, error) {
	ctx := &stmtCtx{b: b, id: id, tails: map[string]src{}, pending: map[string][]src{}, vals: map[string]src{}}
	for i, tok := range consumed {
		w, err := b.inputSrc(id, tok)
		if err != nil {
			return nil, err
		}
		ctx.tails[tok] = w
		if i == 0 {
			ctx.trigger = w
			ctx.hasTrigger = true
		}
	}
	return ctx, nil
}

// collapse finishes any pending parallel reads on token tok and returns
// its up-to-date tail.
func (ctx *stmtCtx) collapse(tok string) src {
	if p := ctx.pending[tok]; len(p) > 0 {
		ctx.tails[tok] = ctx.b.synchOf(p, ctx.id, tok)
		delete(ctx.pending, tok)
	}
	return ctx.tails[tok]
}

// gateRead returns the access wire for a read on the given token lines and
// registers the op's completion: sequentially threaded normally, or fed a
// replica with the completion collected later under §6.2.
func (ctx *stmtCtx) gateRead(tokens []string) (gate src, complete func(accessOut src)) {
	if ctx.b.parReads {
		wires := make([]src, 0, len(tokens))
		for _, t := range tokens {
			wires = append(wires, ctx.tails[t])
		}
		gate = ctx.b.synchOf(wires, ctx.id, tokens[0])
		return gate, func(out src) {
			for _, t := range tokens {
				ctx.pending[t] = append(ctx.pending[t], out)
			}
		}
	}
	wires := make([]src, 0, len(tokens))
	for _, t := range tokens {
		wires = append(wires, ctx.collapse(t))
	}
	gate = ctx.b.synchOf(wires, ctx.id, tokens[0])
	return gate, func(out src) {
		for _, t := range tokens {
			ctx.tails[t] = out
		}
	}
}

// gateWrite returns the access wire for a write: all pending reads on the
// token lines complete first; the store's completion becomes the new tail.
func (ctx *stmtCtx) gateWrite(tokens []string) (gate src, complete func(accessOut src)) {
	wires := make([]src, 0, len(tokens))
	for _, t := range tokens {
		wires = append(wires, ctx.collapse(t))
	}
	gate = ctx.b.synchOf(wires, ctx.id, tokens[0])
	return gate, func(out src) {
		for _, t := range tokens {
			ctx.tails[t] = out
		}
	}
}

// loadScalar emits the (single) load of scalar variable v for this block.
func (ctx *stmtCtx) loadScalar(v string) {
	b := ctx.b
	toks := b.tokensOf[v]
	if len(toks) == 1 && b.isValueToken(toks[0]) {
		// §6.1: the token line carries the value; no load needed.
		ctx.vals[v] = ctx.tails[toks[0]]
		return
	}
	gate, complete := ctx.gateRead(toks)
	ld := b.out.Add(&dfg.Node{Kind: dfg.Load, Var: v, Stmt: ctx.id})
	b.out.Connect(gate.node, gate.port, ld.ID, 0, true)
	complete(src{ld.ID, 1})
	ctx.vals[v] = src{ld.ID, 0}
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
		c := b.out.Add(&dfg.Node{Kind: dfg.Const, Val: x.Value, Stmt: ctx.id})
		b.out.Connect(ctx.trigger.node, ctx.trigger.port, c.ID, 0, true)
		return src{c.ID, 0}, nil
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
			ld := b.out.Add(&dfg.Node{Kind: dfg.ILoad, Var: x.Name, Stmt: ctx.id})
			b.out.Connect(idx.node, idx.port, ld.ID, 0, false)
			return src{ld.ID, 0}, nil
		}
		gate, complete := ctx.gateRead(b.tokensOf[x.Name])
		ld := b.out.Add(&dfg.Node{Kind: dfg.LoadIdx, Var: x.Name, Stmt: ctx.id})
		b.out.Connect(idx.node, idx.port, ld.ID, 0, false)
		b.out.Connect(gate.node, gate.port, ld.ID, 1, true)
		complete(src{ld.ID, 1})
		return src{ld.ID, 0}, nil
	case *lang.BinExpr:
		l, err := ctx.compile(x.L)
		if err != nil {
			return src{}, err
		}
		r, err := ctx.compile(x.R)
		if err != nil {
			return src{}, err
		}
		op := b.out.Add(&dfg.Node{Kind: dfg.BinOp, Op: x.Op, Stmt: ctx.id})
		b.out.Connect(l.node, l.port, op.ID, 0, false)
		b.out.Connect(r.node, r.port, op.ID, 1, false)
		return src{op.ID, 0}, nil
	case *lang.UnExpr:
		v, err := ctx.compile(x.X)
		if err != nil {
			return src{}, err
		}
		op := b.out.Add(&dfg.Node{Kind: dfg.UnOp, Op: x.Op, Stmt: ctx.id})
		b.out.Connect(v.node, v.port, op.ID, 0, false)
		return src{op.ID, 0}, nil
	}
	return src{}, fmt.Errorf("translate: unknown expression %T", e)
}

func (b *builder) buildAssign(id int) error {
	n := b.g.Nodes[id]
	consumed := b.need(id)
	ctx, err := b.newStmtCtx(id, consumed)
	if err != nil {
		return err
	}

	// Read block: one load per distinct scalar variable read, in name
	// order ("the assignment schema begins by reading the values it will
	// reference", §3).
	for _, v := range sortedTokens(b.g.ReadSet(id)) {
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
	toks := b.tokensOf[target]
	switch {
	case n.TargetIndex == nil && len(toks) == 1 && b.isValueToken(toks[0]):
		// §6.1: the value rides the token line; no store.
		ctx.collapse(toks[0])
		ctx.tails[toks[0]] = val
	case n.TargetIndex == nil:
		gate, complete := ctx.gateWrite(toks)
		st := b.out.Add(&dfg.Node{Kind: dfg.Store, Var: target, Stmt: id})
		b.out.Connect(val.node, val.port, st.ID, 0, false)
		b.out.Connect(gate.node, gate.port, st.ID, 1, true)
		complete(src{st.ID, 0})
	case b.istructs[target]:
		// I-structure write: index and value in, no token, no output.
		st := b.out.Add(&dfg.Node{Kind: dfg.IStore, Var: target, Stmt: id})
		b.out.Connect(idxSrc.node, idxSrc.port, st.ID, 0, false)
		b.out.Connect(val.node, val.port, st.ID, 1, false)
	default:
		ps, parallel := b.pstores[id]
		st := b.out.Add(&dfg.Node{Kind: dfg.StoreIdx, Var: target, Stmt: id})
		b.out.Connect(idxSrc.node, idxSrc.port, st.ID, 0, false)
		b.out.Connect(val.node, val.port, st.ID, 1, false)
		if parallel {
			// §6.3 / Figure 14(b): the store receives a replica of the
			// access token, which passes to the next iteration
			// immediately; the store's completion joins the loop's
			// completion line.
			wires := make([]src, 0, len(toks))
			for _, t := range toks {
				wires = append(wires, ctx.collapse(t))
			}
			gate := b.synchOf(wires, id, ps.Array)
			b.out.Connect(gate.node, gate.port, st.ID, 2, true)
			d := ps.DoneToken()
			ctx.tails[d] = b.synchOf([]src{ctx.collapse(d), {st.ID, 0}}, id, d)
		} else {
			gate, complete := ctx.gateWrite(toks)
			b.out.Connect(gate.node, gate.port, st.ID, 2, true)
			complete(src{st.ID, 0})
		}
	}

	for _, tok := range consumed {
		b.setTap(b.tapT, id, tok, ctx.collapse(tok))
	}
	return nil
}

func (b *builder) buildFork(id int) error {
	n := b.g.Nodes[id]
	consumed := b.need(id)
	switched := b.placement.Tokens(id)
	consumedSet := map[string]bool{}
	for _, t := range consumed {
		consumedSet[t] = true
	}

	ctx, err := b.newStmtCtx(id, consumed)
	if err != nil {
		return err
	}
	// Switched-but-not-read tokens enter at the switch directly.
	swIn := map[string]src{}
	for _, tok := range switched {
		if consumedSet[tok] {
			continue
		}
		w, err := b.inputSrc(id, tok)
		if err != nil {
			return err
		}
		swIn[tok] = w
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
	for _, v := range sortedTokens(b.g.ReadSet(id)) {
		if !b.g.Prog.IsArray(v) {
			ctx.loadScalar(v)
		}
	}
	pval, err := ctx.compile(n.Cond)
	if err != nil {
		return err
	}

	for _, tok := range switched {
		var data src
		if consumedSet[tok] {
			data = ctx.collapse(tok)
		} else {
			data = swIn[tok]
		}
		sw := b.out.Add(&dfg.Node{Kind: dfg.Switch, Tok: tok, Stmt: id})
		b.out.Connect(data.node, data.port, sw.ID, 0, b.dummyFor(tok))
		b.out.Connect(pval.node, pval.port, sw.ID, 1, false)
		b.setTap(b.tapT, id, tok, src{sw.ID, 0})
		b.setTap(b.tapF, id, tok, src{sw.ID, 1})
	}
	// Read-but-unswitched tokens leave through the post-read tap.
	switchedSet := map[string]bool{}
	for _, t := range switched {
		switchedSet[t] = true
	}
	for _, tok := range consumed {
		if !switchedSet[tok] {
			b.setTap(b.tapR, id, tok, ctx.collapse(tok))
		}
	}
	return nil
}

func sortedTokens[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
