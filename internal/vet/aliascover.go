package vet

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
)

// passAliasCover proves the §5 soundness condition on aliased storage: a
// memory operation on x must hold the access token of every cover element
// intersecting [x] before it fires — TokensOf[x] under the translation's
// cover — and the tokens reach it through a synch tree (Figure 13).
//
// Two complementary checks:
//
//   - gather trace: each memory operation's access input is traced
//     backwards through synchs, switches, merges, and loop operators to
//     the token lines it gathers, which must cover TokensOf[x]. The trace
//     never trusts a synch's Tok label (mutated graphs lie), but it does
//     re-anchor at upstream memory operations, so it localizes the defect
//     rather than proving absence;
//   - pairwise ordering: the condition the gather exists to establish.
//     Any two operations whose access sets intersect, at least one a
//     store, race unless a dataflow path orders them — or no execution
//     fires both (disjoint predicate guards, §2.2).
func passAliasCover(u *Unit) ([]Diagnostic, string) {
	if !u.hasMeta() {
		return nil, noMetaReason
	}
	return append(orderingCheck(u), gatherCheck(u)...), ""
}

// gatherCheck is the gather-trace half of passAliasCover.
func gatherCheck(u *Unit) []Diagnostic {
	var ds []Diagnostic
	tr := newTokenTracer(u)
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
		for _, tok := range u.Res.TokensOf[n.Var] {
			if !got[tok] {
				ds = append(ds, Diagnostic{
					Severity: SevError, Check: machcheck.Determinacy, Node: n.ID, Tok: tok,
					Msg: fmt.Sprintf("access input does not gather token %s: cover element [%s] intersects [%s], so operations on the two are unordered", tok, tok, n.Var),
				})
			}
		}
	}
	return ds
}

// orderingCheck enforces the race-freedom reading of §5: for every pair
// of memory operations whose access sets TokensOf[x] intersect, at least
// one of them a store, some dataflow path must run from one to the other
// (the shared cover element's token line serializes them). Pairs whose
// firing guards are predicate-disjoint never fire in one execution and
// are exempt; a §6.3-parallelized store is exempt against itself, since
// the transformation's whole point is to prove its iterations
// independent and unorder them (Figure 14(b)).
//
// Reachability is decided one cover element at a time, over that
// element's own operations only: a pair sharing no element is never
// asked about.
func orderingCheck(u *Unit) []Diagnostic {
	ops := memoryOps(u.G)
	if len(ops) < 2 {
		return nil
	}
	// holders lists, per cover element, the operations whose access set
	// holds it, in operation order: element e's are
	// holders[start[e]:start[e+1]].
	elem := map[string]int32{}
	var elems, holding []int32 // (element, operation) pairs in operation order
	for i, n := range ops {
		for _, t := range u.Res.TokensOf[n.Var] {
			e, ok := elem[t]
			if !ok {
				e = int32(len(elem))
				elem[t] = e
			}
			elems, holding = append(elems, e), append(holding, int32(i))
		}
	}
	start, holders := csr(len(elem), elems, holding)

	r := newOpReach(u)
	guards := u.guardTable()
	var races [][2]int32 // racing pairs (earlier, later operation)
	var nodes []int32
	var stores []uint64
	for e := range len(elem) {
		held := holders[start[e]:start[e+1]]
		nodes, stores = nodes[:0], append(stores[:0], make([]uint64, (len(held)+63)/64)...)
		for x, i := range held {
			nodes = append(nodes, int32(ops[i].ID))
			if k := ops[i].Kind; k == dfg.Store || k == dfg.StoreIdx {
				stores[x/64] |= 1 << (x % 64)
			}
		}
		r.solve(nodes)
		for c := range stores {
			r.chunk(c)
			for x, i := range held[:min(len(held), 64*c+63)] {
				// Candidates: later holders in the chunk, one of the pair a
				// store (reads never race), neither reaching the other.
				set := ^(r.to(x) | r.from(x))
				if y := x - 64*c; y >= 0 {
					set &^= 1<<(y+1) - 1
				}
				if len(held) < 64*(c+1) {
					set &= 1<<(len(held)-64*c) - 1
				}
				if stores[x/64]&(1<<(x%64)) == 0 {
					set &= stores[c]
				}
				for ; set != 0; set &= set - 1 {
					// Memory operations put their firing guard on every
					// output. A starved operation cannot race (token-balance
					// reports it); an unconverged table overstates guards and
					// exempts no pair.
					j := held[64*c+bits.TrailingZeros64(set)]
					ga, gb := guards.at(ops[i].ID, 0), guards.at(ops[j].ID, 0)
					if guards.converged && (ga.top || gb.top || guards.disjoint(ga, gb)) {
						continue
					}
					races = append(races, [2]int32{i, j})
				}
			}
		}
	}
	// A pair sharing several elements races under each: report it once,
	// in operation order.
	slices.SortFunc(races, func(p, q [2]int32) int { return cmp.Or(cmp.Compare(p[0], q[0]), cmp.Compare(p[1], q[1])) })
	races = slices.Compact(races)

	var ds []Diagnostic
	for _, p := range races {
		a, b := ops[p[0]], ops[p[1]]
		shared := ""
		for _, t := range u.Res.TokensOf[a.Var] {
			if slices.Contains(u.Res.TokensOf[b.Var], t) {
				shared = t
				break
			}
		}
		ds = append(ds, Diagnostic{
			Severity: SevError, Check: machcheck.Determinacy, Node: a.ID, Tok: shared,
			Msg: fmt.Sprintf("no dataflow ordering against %s: both hold cover element [%s], so the two operations race", u.G.Nodes[b.ID], shared),
		})
	}
	return ds
}

// memoryOps lists the operations that hold access tokens, in node order.
func memoryOps(g *dfg.Graph) []*dfg.Node {
	var ops []*dfg.Node
	for _, n := range g.Nodes {
		switch n.Kind {
		case dfg.Load, dfg.Store, dfg.LoadIdx, dfg.StoreIdx:
			ops = append(ops, n)
		}
	}
	return ops
}

// opReach decides which of a set of nodes reach which through one or more
// arcs. The graph's strongly connected components are condensed once,
// numbered so that every component a component reaches has a smaller
// number (the order Tarjan's algorithm finishes them in). For a set of
// nodes, only the components between the lowest and the highest holding
// one of them matter: a path between two members stays in that range.
// The set is decided 64 members at a time, by a sweep of the range in
// each direction through two buffers of one word per component, reused
// from chunk to chunk and from set to set.
type opReach struct {
	comp []int32 // component of each node
	// The components component c has an arc to are succ[first[c]:first[c+1]],
	// those with an arc to c pred[firstPred[c]:firstPred[c+1]].
	first, succ, firstPred, pred []int32

	nodes    []int32 // the set being decided
	lo, hi   int32   // its lowest and highest component
	fwd, bwd []uint64
}

// newOpReach condenses u's graph along the components its search found.
func newOpReach(u *Unit) *opReach {
	var from, to []int32 // the arcs between components
	for v, c := range u.comp {
		for _, ai := range u.adj.OutOf(v) {
			if d := u.comp[u.G.Arcs[ai].To]; d != c {
				from, to = append(from, c), append(to, d)
			}
		}
	}
	r := &opReach{comp: u.comp}
	r.first, r.succ = csr(u.comps, from, to)
	r.firstPred, r.pred = csr(u.comps, to, from)
	r.fwd, r.bwd = make([]uint64, u.comps), make([]uint64, u.comps)
	return r
}

// csr groups vals by their keys, which lie in 0…n-1: key k's values are
// out[start[k]:start[k+1]], in the order they come.
func csr(n int, keys, vals []int32) (start, out []int32) {
	start = make([]int32, n+1)
	for _, k := range keys {
		start[k+1]++
	}
	for k := range n {
		start[k+1] += start[k]
	}
	out = make([]int32, len(vals))
	at := slices.Clone(start[:n])
	for i, k := range keys {
		out[at[k]] = vals[i]
		at[k]++
	}
	return start, out
}

// solve starts deciding reachability among nodes, a chunk at a time.
func (r *opReach) solve(nodes []int32) {
	r.nodes, r.lo, r.hi = nodes, int32(len(r.fwd)), -1
	for _, v := range nodes {
		r.lo, r.hi = min(r.lo, r.comp[v]), max(r.hi, r.comp[v])
	}
}

// chunk decides reachability between every member and the members
// 64c to 64c+63, the chunk: afterwards to and from read it.
func (r *opReach) chunk(c int) {
	clear(r.fwd[r.lo : r.hi+1])
	clear(r.bwd[r.lo : r.hi+1])
	for y, v := range r.nodes[64*c : min(len(r.nodes), 64*c+64)] {
		r.fwd[r.comp[v]] |= 1 << y
		r.bwd[r.comp[v]] |= 1 << y
	}
	// A component reaches what its successors hold or reach; one outside
	// the range reaches no member.
	for k := r.lo; k <= r.hi; k++ {
		for _, d := range r.succ[r.first[k]:r.first[k+1]] {
			if d >= r.lo {
				r.fwd[k] |= r.fwd[d]
			}
		}
	}
	for k := r.hi; k >= r.lo; k-- {
		for _, p := range r.pred[r.firstPred[k]:r.firstPred[k+1]] {
			if p <= r.hi {
				r.bwd[k] |= r.bwd[p]
			}
		}
	}
}

// to is the set of chunk members nodes[x] reaches, bit y for member
// 64c+y; it holds x itself too when x is in the chunk.
func (r *opReach) to(x int) uint64 { return r.fwd[r.comp[r.nodes[x]]] }

// from is the set of chunk members that reach nodes[x], read as to is.
func (r *opReach) from(x int) uint64 { return r.bwd[r.comp[r.nodes[x]]] }

// tokenTracer memoizes, per output port, the set of access-token lines
// flowing through it.
type tokenTracer struct {
	u *Unit
	// memo and state hold one entry per output row of the graph's index.
	// A port being expanded contributes nothing when a cycle leads back to
	// it — a token line cannot originate inside a cycle that never reaches
	// start.
	memo  []map[string]bool
	state []uint8 // traceNew, traceExpanding, traceDone
	// parallel marks §6.3-parallelized store statements, whose StoreIdx
	// emits the loop's completion token rather than the array tokens.
	parallel map[int]string
	all      map[string]bool
	// calls indexes the call linkage by Apply node.
	calls map[int]*dfg.CallInfo
}

const (
	traceNew uint8 = iota
	traceExpanding
	traceDone
)

func newTokenTracer(u *Unit) *tokenTracer {
	rows := u.adj.OutRow(len(u.G.Nodes))
	tr := &tokenTracer{
		u:        u,
		memo:     make([]map[string]bool, rows),
		state:    make([]uint8, rows),
		parallel: map[int]string{},
		all:      map[string]bool{},
		calls:    map[int]*dfg.CallInfo{},
	}
	for _, ps := range u.Res.ParallelStores {
		tr.parallel[ps.StoreStmt] = ps.DoneToken()
	}
	for _, tok := range u.Res.Universe {
		tr.all[tok] = true
	}
	for i := len(u.G.Calls) - 1; i >= 0; i-- { // backwards: the first entry for an Apply wins
		tr.calls[u.G.Calls[i].Apply] = &u.G.Calls[i]
	}
	return tr
}

// portTokens is the union over the arcs entering (node, port) of the
// tokens each source emits. Token sets are read, never written, once
// returned, so a port fed by one arc shares its source's.
func (tr *tokenTracer) portTokens(node, port int) map[string]bool {
	in := tr.u.In(node, port)
	if len(in) == 1 {
		a := &tr.u.G.Arcs[in[0]]
		return tr.outTokens(a.From, a.FromPort)
	}
	out := map[string]bool{}
	for _, ai := range in {
		a := &tr.u.G.Arcs[ai]
		for tok := range tr.outTokens(a.From, a.FromPort) {
			out[tok] = true
		}
	}
	return out
}

// outTokens is the set of token lines emitted from (node, port).
func (tr *tokenTracer) outTokens(node, port int) map[string]bool {
	if node < 0 || node >= len(tr.u.G.Nodes) {
		return nil
	}
	row := tr.u.adj.OutRow(node) + port
	if port < 0 || row >= tr.u.adj.OutRow(node+1) || tr.state[row] == traceExpanding {
		return nil
	}
	if tr.state[row] == traceNew {
		tr.state[row] = traceExpanding
		tr.memo[row] = tr.compute(tr.u.G.Nodes[node], port)
		tr.state[row] = traceDone
	}
	return tr.memo[row]
}

func (tr *tokenTracer) compute(n *dfg.Node, port int) map[string]bool {
	single := func(tok string) map[string]bool { return map[string]bool{tok: true} }
	switch n.Kind {
	case dfg.Start:
		// Start fans every initial token out of one port; which line each
		// arc begins is only visible downstream, so the port is ⊤.
		return tr.all
	case dfg.Switch, dfg.Merge, dfg.LoopEntry, dfg.LoopExit:
		// Routing operators carry exactly the line they are labelled with;
		// the structure pass and determinacy pass police their wiring.
		return single(n.Tok)
	case dfg.Synch:
		// A synch holds every line of its operands (Figure 13's gather
		// tree). Never trust Synch.Tok — it names only the first line.
		out := map[string]bool{}
		for p := 0; p < n.NIns; p++ {
			for tok := range tr.portTokens(n.ID, p) {
				out[tok] = true
			}
		}
		return out
	case dfg.Load, dfg.LoadIdx:
		if port == 1 {
			return tr.tokensOfVar(n.Var)
		}
	case dfg.Store:
		if port == 0 {
			return tr.tokensOfVar(n.Var)
		}
	case dfg.StoreIdx:
		if port == 0 {
			if done, ok := tr.parallel[n.Stmt]; ok {
				// §6.3 / Figure 14(b): a parallelized store replicates the
				// array token on entry and emits a completion instead.
				return single(done)
			}
			return tr.tokensOfVar(n.Var)
		}
	case dfg.Param:
		return single(n.Tok)
	case dfg.Apply:
		if c := tr.calls[n.ID]; c != nil {
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

func (tr *tokenTracer) tokensOfVar(v string) map[string]bool {
	out := map[string]bool{}
	for _, tok := range tr.u.Res.TokensOf[v] {
		out[tok] = true
	}
	return out
}
