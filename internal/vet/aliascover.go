package vet

import (
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
func orderingCheck(u *Unit) []Diagnostic {
	ops, opOf := memoryOps(u.G)
	if len(ops) < 2 {
		return nil
	}
	// Sets of operations are bitsets over ops: the stores, and per cover
	// element the operations whose access set holds it.
	words := (len(ops) + 63) / 64
	stores := make([]uint64, words)
	holders := map[string][]uint64{}
	for i, n := range ops {
		if n.Kind == dfg.Store || n.Kind == dfg.StoreIdx {
			stores[i/64] |= 1 << (i % 64)
		}
		for _, t := range u.Res.TokensOf[n.Var] {
			if holders[t] == nil {
				holders[t] = make([]uint64, words)
			}
			holders[t][i/64] |= 1 << (i % 64)
		}
	}
	reach := reachOps(u, opOf, words)
	guards := u.guardTable()

	var ds []Diagnostic
	cand := make([]uint64, words)
	for i, a := range ops {
		// Candidates: operations sharing a cover element with a, one of the
		// pair a store (reads never race), that a does not reach.
		isStore := stores[i/64]&(1<<(i%64)) != 0
		clear(cand)
		for _, t := range u.Res.TokensOf[a.Var] {
			for w, set := range holders[t] {
				cand[w] |= set
			}
		}
		for w, set := range reach[a.ID*words : (a.ID+1)*words] {
			cand[w] &^= set
			if !isStore {
				cand[w] &= stores[w]
			}
		}
		// Each pair is judged once, from its earlier operation.
		for w := i / 64; w < words; w++ {
			set := cand[w]
			if w == i/64 {
				set &^= 1<<(i%64+1) - 1
			}
			for ; set != 0; set &= set - 1 {
				b := ops[w*64+bits.TrailingZeros64(set)]
				if reach[b.ID*words+i/64]&(1<<(i%64)) != 0 {
					continue
				}
				// Memory operations put their firing guard on every output. A
				// starved operation cannot race (token-balance reports it); an
				// unconverged table overstates guards and exempts no pair.
				ga, gb := guards.at(a.ID, 0), guards.at(b.ID, 0)
				if guards.converged && (ga.top || gb.top || disjoint(ga, gb)) {
					continue
				}
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
		}
	}
	return ds
}

// memoryOps lists the operations that hold access tokens, in node order,
// and maps each node to its index in that list, or -1.
func memoryOps(g *dfg.Graph) (ops []*dfg.Node, opOf []int) {
	opOf = make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		opOf[n.ID] = -1
		switch n.Kind {
		case dfg.Load, dfg.Store, dfg.LoadIdx, dfg.StoreIdx:
			opOf[n.ID] = len(ops)
			ops = append(ops, n)
		}
	}
	return ops, opOf
}

// reachOps computes, for every node, the set of memory operations some
// path of one or more arcs leads to, as one row of words uint64s per node
// over the operation numbering opOf. It is the least solution of
// row(n) = ∪ over arcs n→s of row(s) ∪ {s}, found by sweeping the nodes in
// post-order — successors first, so only arcs closing a cycle leave work
// for the next sweep — until a sweep changes nothing.
func reachOps(u *Unit, opOf []int, words int) []uint64 {
	arcs := u.G.Arcs
	rows := make([]uint64, len(u.G.Nodes)*words)
	for n := range u.G.Nodes {
		for _, ai := range u.adj.OutOf(n) {
			if k := opOf[arcs[ai].To]; k >= 0 {
				rows[n*words+k/64] |= 1 << (k % 64)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range u.post {
			row := rows[n*words : (n+1)*words]
			for _, ai := range u.adj.OutOf(n) {
				to := arcs[ai].To
				for i, w := range rows[to*words : (to+1)*words] {
					if row[i]|w != row[i] {
						row[i] |= w
						changed = true
					}
				}
			}
		}
	}
	return rows
}

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
