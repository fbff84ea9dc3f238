package vet

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/translate"
)

// This file keeps the analyses the dense solver replaced — the map-based
// guard lattice swept round-robin, one forward DFS per memory operation,
// and the gather trace memoized per output port — as the oracle the
// solver is diffed against. They are the former production code, renamed
// with a ref prefix and otherwise unchanged; nothing outside the tests
// uses them.

// OptionCombos hands the clean-sweep matrix to package vet_test.
var OptionCombos = optionCombos

// CheckAgainstReference vets g with the production analyses and with the
// reference ones and fails tb unless they agree on (a) the guard set of
// every output port, (b) reachability between every pair of memory
// operations the ordering check's line walk orders, (c) the tokens each
// memory operation fails to gather, and (d) the report: the production
// runner runs its passes concurrently, the reference calls them one after
// another (refRun), and the two must list the same diagnostics, ran and
// skipped passes in the same order. On a graph the translator built (g is
// res.Graph) the ordering check must not fall back to a search over the
// whole graph. It returns the production report. The differential tests
// live in package vet_test, which may import internal/opt (opt imports
// vet), and reach in through here.
func CheckAgainstReference(tb testing.TB, g *dfg.Graph, res *translate.Result) *Report {
	tb.Helper()
	u := newUnit(g, res)
	rep := u.run(Passes())
	if u.guardBuilds != 1 {
		tb.Errorf("guard table solved %d times in one run, want 1", u.guardBuilds)
	}

	got, want := u.guardTable(), newRefGuardTable(u)
	if !got.converged {
		tb.Fatalf("guard solver hit its step bound")
	}
	for _, n := range g.Nodes {
		for p := 0; p < n.OutPorts(); p++ {
			gs, ws := got.at(n.ID, int32(p)), want.at(n.ID, int32(p))
			if dec := decodeGuards(got, gs); !refGuardEqual(dec, ws) {
				tb.Errorf("%s port %d: guard set %v, reference %v", g.Label(n), p, dec, ws)
			}
		}
	}

	// Every pair the line walk orders is ordered by the graph, in that
	// direction; the pairs it leaves to the guards and to the fallback are
	// judged against the reference's by the report below.
	if u.Res != nil && u.Res.TokensOf != nil {
		ops := memoryOps(g)
		seen := make([][]bool, len(ops))
		for i, a := range ops {
			seen[i] = refForwardReach(u, a.ID)
		}
		elem, start, holders := coverElements(u, ops)
		w := newLineWalk(u, ops, elem)
		w.record = true
		for e := range len(elem) {
			held := holders[start[e]:start[e+1]]
			if w.unordered(int32(e), held); len(w.order) == 0 {
				continue // the walk skips an element held once or only read
			}
			for y := range int32(len(w.order)) {
				for x := range y {
					a, b := w.order[x], w.order[y]
					if w.ordered(x, y) && !seen[a][ops[b].ID] {
						tb.Errorf("the line orders %s before %s; no dataflow path does", g.Label(ops[a]), g.Label(ops[b]))
					}
				}
			}
		}
		if g == res.Graph && u.work.Fallbacks != 0 {
			tb.Errorf("the ordering check fell back to the reachability sweep %d times on a translator-built graph", u.work.Fallbacks)
		}
	}

	if u.hasMeta() {
		if got, want := gatherCheck(u), refGatherCheck(u); !reflect.DeepEqual(got, want) {
			tb.Errorf("gather check differs from the reference tracer\n got: %v\nwant: %v", got, want)
		}
	}

	passes := Passes()
	for i := range passes {
		switch passes[i].Name {
		case "determinacy":
			passes[i].run = refPassDeterminacy
		case "alias-cover":
			passes[i].run = refPassAliasCover
		}
	}
	if ref := refRun(newUnit(g, res), passes); !reflect.DeepEqual(rep, ref) {
		tb.Errorf("report differs from the reference analyses run in series\n got:\n%s\nwant:\n%s", rep, ref)
	}
	return rep
}

// ordered reports whether the last walk ordered holder x before holder
// y (numbers, x < y): a line path runs from x to y, or both lie in one
// component.
func (w *lineWalk) ordered(x, y int32) bool {
	if w.first[y] <= x {
		return true
	}
	in := w.in[y]
	for k := range in.n {
		if lo, hi := w.iv[in.off+2*k], w.iv[in.off+2*k+1]; lo <= x && x < hi {
			return true
		}
	}
	return false
}

// refRun is the former Unit.run: each pass called in turn on the caller's
// goroutine, its findings appended in registry order.
func refRun(u *Unit, passes []Pass) *Report {
	g := u.G
	rep := &Report{}
	for _, p := range passes {
		diags, skip := p.run(u)
		if skip != "" {
			rep.Skipped = append(rep.Skipped, SkippedPass{Pass: p.Name, Reason: skip})
			continue
		}
		rep.Ran = append(rep.Ran, p.Name)
		for i := range diags {
			diags[i].Pass = p.Name
			if diags[i].Paper == "" {
				diags[i].Paper = p.Paper
			}
			if diags[i].Node >= 0 && diags[i].Node < len(g.Nodes) && diags[i].Label == "" {
				diags[i].Label = g.Label(g.Nodes[diags[i].Node])
			}
		}
		rep.Diags = append(rep.Diags, diags...)
	}
	for _, d := range rep.Diags {
		if d.Severity == SevError {
			rep.Errors++
		} else {
			rep.Warnings++
		}
	}
	return rep
}

// decodeGuards turns a hash-consed guard back into the reference's arm set.
func decodeGuards(t *guardTable, gs guardSet) refGuardSet {
	if gs.top {
		return refGuardSet{top: true}
	}
	out := refGuardSet{set: map[refGuardKey]bool{}}
	for id := gs.id; id > 0; id = t.cells[id].next {
		arm := t.cells[id].arm
		w := t.wires[arm/2]
		out.set[refGuardKey{predNode: w.node, predPort: w.port, arm: arm%2 == 0}] = true
	}
	return out
}

// refPassDeterminacy is passDeterminacy's judgement of multi-arc ports
// over the reference guard table.
func refPassDeterminacy(u *Unit) ([]Diagnostic, string) {
	g := u.G
	guards := newRefGuardTable(u)
	var ds []Diagnostic
	for _, n := range g.Nodes {
		for p := 0; p < int(n.NIns); p++ {
			arcs := refArcs(u, u.In(n.ID, p))
			if len(arcs) < 2 {
				continue
			}
			switch {
			case n.Kind == dfg.Merge && p == 0:
				for i := 0; i < len(arcs); i++ {
					for j := i + 1; j < len(arcs); j++ {
						gi := guards.at(arcs[i].From, arcs[i].FromPort)
						gj := guards.at(arcs[j].From, arcs[j].FromPort)
						if gi.top || gj.top {
							continue
						}
						if !refDisjoint(gi, gj) {
							ds = append(ds, Diagnostic{
								Severity: SevError, Check: machcheck.Determinacy, Node: int(n.ID), Tok: g.Name(n.Tok),
								Msg: fmt.Sprintf("merge inputs from d%d.%d and d%d.%d are not on disjoint predicate paths: one execution can deliver both tokens under one tag",
									arcs[i].From, arcs[i].FromPort, arcs[j].From, arcs[j].FromPort),
							})
						}
					}
				}
			case n.Kind == dfg.Param:
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

func refPassAliasCover(u *Unit) ([]Diagnostic, string) {
	if !u.hasMeta() {
		return nil, noMetaReason
	}
	return append(refOrderingCheck(u), refGatherCheck(u)...), ""
}

// refGatherCheck is the former gatherCheck: a memoized trace per output
// port, backwards through synchs to the token lines each port carries.
func refGatherCheck(u *Unit) []Diagnostic {
	var ds []Diagnostic
	tr := newRefTokenTracer(u)
	for _, n := range u.G.Nodes {
		var accessIn int
		switch n.Kind {
		case dfg.Load:
			accessIn = 0
		case dfg.Store, dfg.LoadIdx:
			accessIn = 1
		case dfg.StoreIdx:
			accessIn = 2
		default:
			// ILoad/IStore operate on tokenless I-structures (§6.3).
			continue
		}
		got := tr.portTokens(n.ID, accessIn)
		for _, tok := range u.Res.TokensOf[u.G.Name(n.Var)] {
			if _, ok := slices.BinarySearch(got, tr.id(tok)); !ok {
				ds = append(ds, Diagnostic{
					Severity: SevError, Check: machcheck.Determinacy, Node: int(n.ID), Tok: tok,
					Msg: fmt.Sprintf("access input does not gather token %s: cover element [%s] intersects [%s], so operations on the two are unordered", tok, tok, u.G.Name(n.Var)),
				})
			}
		}
	}
	return ds
}

// refTokenTracer memoizes, per output port, the set of access-token lines
// flowing through it, as ascending token numbers.
type refTokenTracer struct {
	u *Unit
	// memo and state hold one entry per output row of the graph's index.
	// A port being expanded contributes nothing when a cycle leads back to
	// it — a token line cannot originate inside a cycle that never reaches
	// start.
	memo  [][]int32
	state []uint8 // refTraceNew, refTraceExpanding, refTraceDone
	// parallel marks §6.3-parallelized store statements, whose StoreIdx
	// emits the loop's completion token rather than the array tokens.
	parallel map[int]string
	// ids numbers the tokens, the universe's first; all is the universe.
	ids   map[string]int32
	all   []int32
	ofVar map[string][]int32
	// calls indexes the call linkage by Apply node.
	calls map[int]*dfg.CallInfo
}

const (
	refTraceNew uint8 = iota
	refTraceExpanding
	refTraceDone
)

func newRefTokenTracer(u *Unit) *refTokenTracer {
	rows := u.adj.OutRow(int32(len(u.G.Nodes)))
	tr := &refTokenTracer{
		u:        u,
		memo:     make([][]int32, rows),
		state:    make([]uint8, rows),
		parallel: map[int]string{},
		ids:      map[string]int32{},
		ofVar:    map[string][]int32{},
		calls:    map[int]*dfg.CallInfo{},
	}
	for _, ps := range u.Res.ParallelStores {
		tr.parallel[ps.StoreStmt] = ps.DoneToken()
	}
	for _, tok := range u.Res.Universe {
		tr.all = append(tr.all, tr.id(tok))
	}
	slices.Sort(tr.all)
	tr.all = slices.Compact(tr.all)
	for i := len(u.G.Calls) - 1; i >= 0; i-- { // backwards: the first entry for an Apply wins
		tr.calls[int(u.G.Calls[i].Apply)] = &u.G.Calls[i]
	}
	return tr
}

// id returns token tok's number, numbering it at first sight.
func (tr *refTokenTracer) id(tok string) int32 {
	t, ok := tr.ids[tok]
	if !ok {
		t = int32(len(tr.ids))
		tr.ids[tok] = t
	}
	return t
}

// portTokens is the union over the arcs entering (node, port) of the
// tokens each source emits. Token sets are read, never written, once
// returned, so a port fed by one arc shares its source's.
func (tr *refTokenTracer) portTokens(node int32, port int) []int32 {
	in := tr.u.In(node, port)
	if len(in) == 1 {
		a := &tr.u.G.Arcs[in[0]]
		return tr.outTokens(a.From, int(a.FromPort))
	}
	var out []int32
	for _, ai := range in {
		a := &tr.u.G.Arcs[ai]
		out = refUnion(out, tr.outTokens(a.From, int(a.FromPort)))
	}
	return out
}

// refUnion returns the ascending numbers a or b holds; a itself when b adds
// none.
func refUnion(a, b []int32) []int32 {
	if len(a) == 0 {
		return b
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(append(out, a[i:]...), b[j:]...)
	if len(out) == len(a) {
		return a
	}
	return out
}

// outTokens is the set of token lines emitted from (node, port).
func (tr *refTokenTracer) outTokens(node int32, port int) []int32 {
	if node < 0 || int(node) >= len(tr.u.G.Nodes) {
		return nil
	}
	row := tr.u.adj.OutRow(node) + port
	if port < 0 || row >= tr.u.adj.OutRow(node+1) || tr.state[row] == refTraceExpanding {
		return nil
	}
	if tr.state[row] == refTraceNew {
		tr.state[row] = refTraceExpanding
		tr.memo[row] = tr.compute(tr.u.G.Nodes[node], port)
		tr.state[row] = refTraceDone
	}
	return tr.memo[row]
}

func (tr *refTokenTracer) compute(n *dfg.Node, port int) []int32 {
	single := func(tok string) []int32 { return []int32{tr.id(tok)} }
	switch n.Kind {
	case dfg.Start:
		// Start fans every initial token out of one port; which line each
		// arc begins is only visible downstream, so the port is ⊤.
		return tr.all
	case dfg.Switch, dfg.Merge, dfg.LoopEntry, dfg.LoopExit:
		// Routing operators carry exactly the line they are labelled with;
		// the structure pass and determinacy pass police their wiring.
		return single(tr.u.G.Name(n.Tok))
	case dfg.Synch:
		// A synch holds every line of its operands (Figure 13's gather
		// tree). Never trust Synch.Tok — it names only the first line.
		var out []int32
		for p := 0; p < int(n.NIns); p++ {
			out = refUnion(out, tr.portTokens(n.ID, p))
		}
		return out
	case dfg.Load, dfg.LoadIdx:
		if port == 1 {
			return tr.tokensOfVar(tr.u.G.Name(n.Var))
		}
	case dfg.Store:
		if port == 0 {
			return tr.tokensOfVar(tr.u.G.Name(n.Var))
		}
	case dfg.StoreIdx:
		if port == 0 {
			if done, ok := tr.parallel[int(n.Stmt)]; ok {
				// §6.3 / Figure 14(b): a parallelized store replicates the
				// array token on entry and emits a completion instead.
				return single(done)
			}
			return tr.tokensOfVar(tr.u.G.Name(n.Var))
		}
	case dfg.Param:
		return single(tr.u.G.Name(n.Tok))
	case dfg.Apply:
		if c := tr.calls[int(n.ID)]; c != nil {
			if port < len(c.InTokens) {
				return single(c.InTokens[port])
			}
			if j := port - len(c.InTokens); j < len(c.ParamIn) {
				return single(c.InTokens[c.ParamIn[j]])
			}
		}
	}
	// Value ports (const, binop, load values, …) carry no access line.
	return nil
}

func (tr *refTokenTracer) tokensOfVar(v string) []int32 {
	out, ok := tr.ofVar[v]
	if !ok {
		for _, tok := range tr.u.Res.TokensOf[v] {
			out = append(out, tr.id(tok))
		}
		slices.Sort(out)
		out = slices.Compact(out)
		tr.ofVar[v] = out
	}
	return out
}

// refOrderingCheck is the former orderingCheck: every pair of memory
// operations, a DFS per operation, a token map per pair. One departure:
// the old loop named whichever shared token Go's map iteration met first,
// so two runs could disagree on a pair sharing several; both sides now
// name the first in TokensOf order.
func refOrderingCheck(u *Unit) []Diagnostic {
	var ops []*dfg.Node
	for _, n := range u.G.Nodes {
		switch n.Kind {
		case dfg.Load, dfg.Store, dfg.LoadIdx, dfg.StoreIdx:
			ops = append(ops, n)
		}
	}
	if len(ops) < 2 {
		return nil
	}
	reach := map[int32][]bool{}
	for _, n := range ops {
		reach[n.ID] = refForwardReach(u, n.ID)
	}
	toks := func(n *dfg.Node) map[string]bool {
		set := map[string]bool{}
		for _, t := range u.Res.TokensOf[u.G.Name(n.Var)] {
			set[t] = true
		}
		return set
	}
	isStore := func(n *dfg.Node) bool { return n.Kind == dfg.Store || n.Kind == dfg.StoreIdx }
	guards := newRefGuardTable(u)

	var ds []Diagnostic
	for i, a := range ops {
		for _, b := range ops[i+1:] {
			if !isStore(a) && !isStore(b) {
				continue // reads never race
			}
			shared := ""
			bt := toks(b)
			for _, t := range u.Res.TokensOf[u.G.Name(a.Var)] {
				if bt[t] {
					shared = t
					break
				}
			}
			if shared == "" {
				continue
			}
			if reach[a.ID][b.ID] || reach[b.ID][a.ID] {
				continue
			}
			ga, gb := guards.firingGuard(a), guards.firingGuard(b)
			if ga.top || gb.top {
				continue // a starved operation cannot race (token-balance reports it)
			}
			if refDisjoint(ga, gb) {
				continue
			}
			ds = append(ds, Diagnostic{
				Severity: SevError, Check: machcheck.Determinacy, Node: int(a.ID), Tok: shared,
				Msg: fmt.Sprintf("no dataflow ordering against %s: both hold cover element [%s], so the two operations race", u.G.Label(b), shared),
			})
		}
	}
	return ds
}

// refGuardKey is one predicate arm. The predicate is identified by the wire
// feeding the switch's control input, not by the switch node: one fork
// emits one switch per routed token, all fed by the same predicate value,
// and arms of DIFFERENT switches on the SAME wire are still the same
// predicate decision (the diamond's merge receives switch-a's false arm
// and switch-b's true arm — refDisjoint because both switches test a<b).
type refGuardKey struct {
	predNode int32
	predPort int32
	arm      bool
}

// refGuardSet is a set of switch arms, or ⊤ (the port provably never emits).
type refGuardSet struct {
	top bool
	set map[refGuardKey]bool
}

func (s refGuardSet) has(k refGuardKey) bool { return s.top || s.set[k] }

// refDisjoint reports whether some predicate routes the two guard sets down
// opposite arms.
func refDisjoint(a, b refGuardSet) bool {
	for k := range a.set {
		if b.set[refGuardKey{predNode: k.predNode, predPort: k.predPort, arm: !k.arm}] {
			return true
		}
	}
	return false
}

// refGuardTable holds the per-output-port guard sets.
type refGuardTable struct {
	u *Unit
	// byNode[n][p] is the guard of output port p of node n.
	byNode [][]refGuardSet
}

func (t *refGuardTable) at(node, port int32) refGuardSet {
	if node < 0 || int(node) >= len(t.byNode) || port < 0 || int(port) >= len(t.byNode[node]) {
		return refGuardSet{top: true}
	}
	return t.byNode[node][port]
}

// newRefGuardTable runs the descending fixpoint. All ports start at ⊤; every
// transfer function is monotone under ⊇ (intersection across a port's
// arcs, union across a node's ports), so iteration from ⊤ converges to the
// greatest fixpoint over the finite lattice of switch-arm sets.
func newRefGuardTable(u *Unit) *refGuardTable {
	g := u.G
	t := &refGuardTable{u: u, byNode: make([][]refGuardSet, len(g.Nodes))}
	for i, n := range g.Nodes {
		t.byNode[i] = make([]refGuardSet, n.OutPorts())
		for p := range t.byNode[i] {
			t.byNode[i][p] = refGuardSet{top: true}
		}
	}
	changed := true
	for rounds := 0; changed && rounds < 4*len(g.Nodes)+16; rounds++ {
		changed = false
		for _, n := range g.Nodes {
			if t.update(n) {
				changed = true
			}
		}
	}
	return t
}

// update recomputes node n's output guards; reports whether they changed.
func (t *refGuardTable) update(n *dfg.Node) bool {
	fire := t.firingGuard(n)
	changed := false
	set := func(port int, gs refGuardSet) {
		if !refGuardEqual(t.byNode[n.ID][port], gs) {
			t.byNode[n.ID][port] = gs
			changed = true
		}
	}
	switch n.Kind {
	case dfg.Switch:
		pred := t.predKey(n)
		pred.arm = true
		set(0, refAddGuard(fire, pred))
		pred.arm = false
		set(1, refAddGuard(fire, pred))
	case dfg.LoopEntry:
		// Any-arrival: either the initial or the back port fires the entry,
		// so tokens leaving it carry only the guards common to both — the
		// outer-path arms the initial token passed (an iteration token is
		// the same token under an advanced tag), never loop-internal arms.
		set(0, refIntersect(t.portGuard(n, 0), t.portGuard(n, 1)))
	default:
		for p := range t.byNode[n.ID] {
			set(p, fire)
		}
	}
	return changed
}

// predKey identifies switch n's predicate by its control-input wire; a
// switch with a malformed control port (no arc, or several) falls back to
// its own identity so its arms at least exclude each other.
func (t *refGuardTable) predKey(n *dfg.Node) refGuardKey {
	if arcs := refArcs(t.u, t.u.In(n.ID, 1)); len(arcs) == 1 {
		return refGuardKey{predNode: arcs[0].From, predPort: arcs[0].FromPort}
	}
	return refGuardKey{predNode: -n.ID - 1, predPort: -1}
}

// portGuard is the guard of one input port: the intersection over its
// arcs (a multi-arc port is a merge point — only common guards survive).
// An unfed port is ⊤: it never matches.
func (t *refGuardTable) portGuard(n *dfg.Node, p int) refGuardSet {
	arcs := refArcs(t.u, t.u.In(n.ID, p))
	if len(arcs) == 0 {
		return refGuardSet{top: true}
	}
	out := t.at(arcs[0].From, arcs[0].FromPort)
	for _, a := range arcs[1:] {
		out = refIntersect(out, t.at(a.From, a.FromPort))
	}
	return out
}

// firingGuard is the union over the node's input ports of each port's
// guard: the node fires only when every port delivers, so its tokens
// passed every arm any operand passed. Start and Param fire
// unconditionally (per program / per activation).
func (t *refGuardTable) firingGuard(n *dfg.Node) refGuardSet {
	if n.Kind == dfg.Start || n.Kind == dfg.Param {
		return refGuardSet{set: map[refGuardKey]bool{}}
	}
	out := refGuardSet{set: map[refGuardKey]bool{}}
	for p := 0; p < int(n.NIns); p++ {
		port := t.portGuard(n, p)
		if port.top {
			return refGuardSet{top: true}
		}
		for k := range port.set {
			out.set[k] = true
		}
	}
	return out
}

func refAddGuard(gs refGuardSet, k refGuardKey) refGuardSet {
	if gs.top {
		return gs
	}
	out := refGuardSet{set: make(map[refGuardKey]bool, len(gs.set)+1)}
	for g := range gs.set {
		out.set[g] = true
	}
	out.set[k] = true
	return out
}

func refIntersect(a, b refGuardSet) refGuardSet {
	if a.top {
		return b
	}
	if b.top {
		return a
	}
	out := refGuardSet{set: map[refGuardKey]bool{}}
	for k := range a.set {
		if b.set[k] {
			out.set[k] = true
		}
	}
	return out
}

func refGuardEqual(a, b refGuardSet) bool {
	if a.top != b.top {
		return false
	}
	if a.top {
		return true
	}
	if len(a.set) != len(b.set) {
		return false
	}
	for k := range a.set {
		if !b.set[k] {
			return false
		}
	}
	return true
}

// refForwardReach marks every node reachable from src over any arc.
func refForwardReach(u *Unit, src int32) []bool {
	seen := make([]bool, len(u.G.Nodes))
	seen[src] = true
	stack := []int32{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := 0; p < u.G.Nodes[n].OutPorts(); p++ {
			for _, a := range refArcs(u, u.Out(n, p)) {
				if !seen[a.To] {
					seen[a.To] = true
					stack = append(stack, a.To)
				}
			}
		}
	}
	return seen
}

// refArcs resolves a row of the graph's index to arc values, the form the
// reference was written against.
func refArcs(u *Unit, ids []int32) []dfg.Arc {
	arcs := make([]dfg.Arc, len(ids))
	for i, ai := range ids {
		arcs[i] = u.G.Arcs[ai]
	}
	return arcs
}
