package vet

import (
	"cmp"
	"fmt"
	"math"
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
//   - gather: each memory operation's synch tree is walked back from its
//     access input to the ports that begin token lines — start, switches,
//     merges, loop operators and other memory operations — and the lines
//     they begin must cover TokensOf[x]. The walk never trusts a synch's
//     Tok label (mutated graphs lie), but it stops at upstream memory
//     operations, so it localizes the defect rather than proving absence;
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

// gatherCheck is the gather half of passAliasCover: one backward walk per
// memory operation, through synchs only, from its access input. A port
// the walk reaches begins lines by its kind: start begins every line of
// the universe; a switch, merge or loop operator the line of its label; a
// memory operation's access output the lines of its variable's TokensOf,
// except that a §6.3 parallelized store's begins its loop's completion
// token (Figure 14(b)). Each token of TokensOf[x] that no reached port
// begins is reported.
func gatherCheck(u *Unit) []Diagnostic {
	// begun[tok] holds the last walk to gather line tok — walks are
	// numbered by operation id + 1 — and whether start begins it.
	type mark struct {
		walk  int32
		start bool
	}
	begun := map[string]mark{}
	for _, tok := range u.Res.Universe {
		begun[tok] = mark{start: true}
	}
	done := map[int]string{} // completion tokens of parallelized stores, by statement
	for _, ps := range u.Res.ParallelStores {
		done[ps.StoreStmt] = ps.DoneToken()
	}
	passed := make([]int32, len(u.G.Nodes)) // the last walk through each synch
	var stack []int32                       // arcs the walk has still to follow back
	var ds []Diagnostic
	for _, n := range u.G.Nodes {
		in, _ := accessPorts(n.Kind)
		toks := u.Res.TokensOf[u.G.Name(n.Var)]
		if in < 0 || len(toks) == 0 {
			continue // not a memory operation, or one on a tokenless array (§6.3)
		}
		walk, fromStart := n.ID+1, false
		begin := func(tok string) {
			m := begun[tok]
			m.walk = walk
			begun[tok] = m
		}
		stack = append(stack[:0], u.In(n.ID, in)...)
		for len(stack) > 0 {
			a := &u.G.Arcs[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			src := u.G.Nodes[a.From]
			switch src.Kind {
			case dfg.Synch:
				if passed[a.From] != walk {
					passed[a.From] = walk
					stack = append(stack, u.adj.InTo(a.From)...)
				}
			case dfg.Start:
				fromStart = true
			case dfg.Switch, dfg.Merge, dfg.LoopEntry, dfg.LoopExit:
				begin(u.G.Name(src.Tok))
			default:
				if _, out := accessPorts(src.Kind); int(a.FromPort) != out {
					break // value ports carry no access line
				}
				if tok, ok := done[int(src.Stmt)]; ok && src.Kind == dfg.StoreIdx {
					begin(tok)
					break
				}
				for _, tok := range u.Res.TokensOf[u.G.Name(src.Var)] {
					begin(tok)
				}
			}
		}
		for _, tok := range toks {
			if m := begun[tok]; m.walk != walk && !(fromStart && m.start) {
				ds = append(ds, Diagnostic{
					Severity: SevError, Check: machcheck.Determinacy, Node: int(n.ID), Tok: tok,
					Msg: fmt.Sprintf("access input does not gather token %s: cover element [%s] intersects [%s], so operations on the two are unordered", tok, tok, u.G.Name(n.Var)),
				})
			}
		}
	}
	return ds
}

// accessPorts returns the input port at which a memory operation of kind k
// takes its access tokens and the output port at which it passes them on;
// -1, -1 for any other kind.
func accessPorts(k dfg.Kind) (in, out int) {
	switch k {
	case dfg.Load:
		return 0, 1
	case dfg.LoadIdx:
		return 1, 1
	case dfg.Store:
		return 1, 0
	case dfg.StoreIdx:
		return 2, 0
	}
	return -1, -1
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
// Order is read off each cover element's token line (Figure 13), walked
// once per element: two operations on one path of the line are ordered by
// construction, and so are two in one strongly connected component of the
// graph. What the line leaves unordered — operations on opposite switch
// arms — is judged by the guards. A pair the guards do not part either is
// decided by a search over the whole graph from the operations of such
// pairs; in a graph the translator built there are none.
func orderingCheck(u *Unit) []Diagnostic {
	ops := memoryOps(u.G)
	if len(ops) < 2 {
		return nil
	}
	elem, start, holders := coverElements(u, ops)
	w := newLineWalk(u, ops, elem)
	var races [][2]int32 // racing pairs (earlier, later operation)
	for e := range len(elem) {
		pairs := w.unordered(int32(e), holders[start[e]:start[e+1]])
		if len(pairs) == 0 {
			continue
		}
		u.work.Fallbacks++
		races = append(races, w.unreached(pairs)...)
	}
	u.work.OrderSteps += w.steps

	// A pair sharing several elements races under each: report it once,
	// in operation order.
	slices.SortFunc(races, func(p, q [2]int32) int { return cmp.Or(cmp.Compare(p[0], q[0]), cmp.Compare(p[1], q[1])) })
	races = slices.Compact(races)

	var ds []Diagnostic
	for _, p := range races {
		a, b := ops[p[0]], ops[p[1]]
		shared := ""
		for _, t := range u.Res.TokensOf[u.G.Name(a.Var)] {
			if slices.Contains(u.Res.TokensOf[u.G.Name(b.Var)], t) {
				shared = t
				break
			}
		}
		ds = append(ds, Diagnostic{
			Severity: SevError, Check: machcheck.Determinacy, Node: int(a.ID), Tok: shared,
			Msg: fmt.Sprintf("no dataflow ordering against %s: both hold cover element [%s], so the two operations race", u.G.Label(b), shared),
		})
	}
	return ds
}

// coverElements numbers the cover elements the operations hold and
// lists, per element, the operations whose access set holds it, in
// operation order: element e's are holders[start[e]:start[e+1]].
func coverElements(u *Unit, ops []*dfg.Node) (elem map[string]int32, start, holders []int32) {
	elem = map[string]int32{}
	var elems, holding []int32 // (element, operation) pairs in operation order
	for i, n := range ops {
		for _, t := range u.Res.TokensOf[u.G.Name(n.Var)] {
			e, ok := elem[t]
			if !ok {
				e = int32(len(elem))
				elem[t] = e
			}
			elems, holding = append(elems, e), append(holding, int32(i))
		}
	}
	start, holders = csr(len(elem), elems, holding)
	return elem, start, holders
}

// lineWalk orders the operations holding one cover element along the
// element's token line. The walk starts at the holders and follows the
// arcs leaving access outputs into the nodes that carry the element on:
// another holder, a switch, merge or loop operator labelled with the
// element's token (or with the completion token of a §6.3 store on it),
// and the nodes that pass whatever they gather (synch, end). Every arc it
// follows is an arc of the graph, so a line path is a dataflow path.
//
// The line's nodes are then taken in the order of the graph's components
// (Unit.search: a component reaches only lower-numbered ones), the
// holders numbered in that order, and each component is given the set of
// holders with a line path into it, as sorted intervals of those numbers.
// A holder is ordered after those and against the holders of its own
// component; the holders numbered below it outside the set are the ones
// the line leaves unordered with it.
type lineWalk struct {
	u      *Unit
	ops    []*dfg.Node
	guards *guardTable
	// name[e] is element e's token, done[e] the completion token of a
	// §6.3 store on it, as numbered in the graph's name table (-1 where
	// it has none): the tokens of the routing nodes on its line.
	name, done []int32

	// The walk of one element. seen and holds mark, with the walk's
	// epoch, the nodes on the line and the holders; nodes lists the
	// former, and opOf[n] is holder n's index in ops. unreached's
	// searches take epochs of their own, seen as their mark and nodes as
	// their stack.
	epoch             int32
	seen, holds, opOf []int32
	nodes             []int32
	// num[n] is the number of holder node n, order[k] the operation
	// numbered k; stores lists, ascending, the numbers of the stores.
	num, order, stores []int32
	// pend[c] (valid where pendAt[c] is the epoch) is the interval list
	// of the holders with a line path into component c: the pairs
	// iv[off : off+2n].
	pendAt  []int32
	pend    []ivList
	iv, scr []int32
	pairs   [][2]int32
	steps   int
	isStore []bool // per operation
	// succ[lo[n]:hi[n]] are the components outside its own that line
	// node n leads to; keys sorts the line's nodes.
	succ, lo, hi []int32
	keys         []uint64
	// With record set, in[k] is the interval list of the holders with a
	// line path into the component of holder k, and first[k] the lowest
	// number in that component (the reference test reads them).
	record bool
	in     []ivList
	first  []int32
}

type ivList struct{ off, n int32 }

func newLineWalk(u *Unit, ops []*dfg.Node, elem map[string]int32) *lineWalk {
	n := len(u.searched().G.Nodes)
	w := &lineWalk{
		u: u, ops: ops, guards: u.guardTable(),
		name: make([]int32, len(elem)), done: make([]int32, len(elem)),
		seen: make([]int32, n), holds: make([]int32, n), opOf: make([]int32, n), num: make([]int32, n),
		lo: make([]int32, n), hi: make([]int32, n),
		pendAt: make([]int32, u.comps), pend: make([]ivList, u.comps),
		isStore: make([]bool, len(ops)),
	}
	for tok, e := range elem {
		w.name[e], w.done[e] = u.tokID(tok), -1
	}
	for _, ps := range u.Res.ParallelStores {
		if toks := u.Res.TokensOf[ps.Array]; len(toks) > 0 {
			if e, ok := elem[toks[0]]; ok {
				w.done[e] = u.tokID(ps.DoneToken())
			}
		}
	}
	for i, n := range ops {
		w.isStore[i] = n.Kind == dfg.Store || n.Kind == dfg.StoreIdx
	}
	return w
}

// next calls f for every node the line of the walk's element runs on to
// from node n.
func (w *lineWalk) next(n int32, e int32, f func(to int32)) {
	nd := w.u.G.Nodes[n]
	lo, hi := 0, 0 // the output ports carrying access tokens
	switch nd.Kind {
	case dfg.Load, dfg.LoadIdx:
		lo, hi = 1, 2
	case dfg.Store, dfg.StoreIdx, dfg.Merge, dfg.LoopEntry, dfg.LoopExit, dfg.Synch:
		lo, hi = 0, 1
	case dfg.Switch:
		lo, hi = 0, 2
	}
	for p := lo; p < hi; p++ {
		for _, ai := range w.u.Out(n, p) {
			w.steps++
			to := w.u.G.Arcs[ai].To
			switch w.u.G.Nodes[to].Kind {
			case dfg.Synch, dfg.End:
			case dfg.Switch, dfg.Merge, dfg.LoopEntry, dfg.LoopExit:
				if tok := w.u.G.Nodes[to].Tok; tok != w.name[e] && tok != w.done[e] {
					continue
				}
			default:
				if w.holds[to] != w.epoch {
					continue
				}
			}
			f(to)
		}
	}
}

// unordered walks element e's line from its holders held (indices into
// ops) and returns the pairs of holders, at least one a store, that the
// line leaves unordered and the guards do not part, as (lower, higher)
// operation indices.
func (w *lineWalk) unordered(e int32, held []int32) [][2]int32 {
	w.pairs, w.order = w.pairs[:0], w.order[:0]
	if len(held) < 2 || !slices.ContainsFunc(held, func(i int32) bool { return w.isStore[i] }) {
		return nil // reads never race
	}
	w.epoch++
	w.nodes, w.succ = w.nodes[:0], w.succ[:0]
	for _, i := range held {
		n := w.ops[i].ID
		w.holds[n], w.opOf[n] = w.epoch, i
		w.seen[n] = w.epoch
		w.nodes = append(w.nodes, n)
	}
	// The walk keeps, per line node, the components of its line
	// successors outside its own: succ[lo[n]:hi[n]].
	comp := w.u.comp
	for k := 0; k < len(w.nodes); k++ {
		n := w.nodes[k]
		w.lo[n] = int32(len(w.succ))
		w.next(n, e, func(to int32) {
			if w.seen[to] != w.epoch {
				w.seen[to] = w.epoch
				w.nodes = append(w.nodes, to)
			}
			if comp[to] != comp[n] {
				w.succ = append(w.succ, comp[to])
			}
		})
		w.hi[n] = int32(len(w.succ))
	}
	// Components in descending number: a component reaches only lower ones.
	w.keys = w.keys[:0]
	for _, n := range w.nodes {
		w.keys = append(w.keys, uint64(math.MaxInt32-comp[n])<<32|uint64(n))
	}
	slices.Sort(w.keys)
	for i, k := range w.keys {
		w.nodes[i] = int32(uint32(k))
	}

	// Number the holders in component order.
	w.stores = w.stores[:0]
	for _, n := range w.nodes {
		if w.holds[n] != w.epoch {
			continue
		}
		w.num[n] = int32(len(w.order))
		if w.isStore[w.opOf[n]] {
			w.stores = append(w.stores, int32(len(w.order)))
		}
		w.order = append(w.order, w.opOf[n])
	}

	w.iv, w.in, w.first = w.iv[:0], w.in[:0], w.first[:0]
	for lo := 0; lo < len(w.nodes); {
		c := comp[w.nodes[lo]]
		hi := lo
		first, last := int32(-1), int32(-1)
		for ; hi < len(w.nodes) && comp[w.nodes[hi]] == c; hi++ {
			if n := w.nodes[hi]; w.holds[n] == w.epoch {
				k := w.num[n]
				if first < 0 {
					first = k
				}
				last = k
			}
		}
		in := ivList{}
		if w.pendAt[c] == w.epoch {
			in = w.pend[c]
		}
		out := in
		if first >= 0 {
			w.judge(in, first, last)
			out = w.extend(in, first, last+1)
			if w.record {
				for range last - first + 1 {
					w.in, w.first = append(w.in, in), append(w.first, first)
				}
			}
		}
		for _, n := range w.nodes[lo:hi] {
			for _, d := range w.succ[w.lo[n]:w.hi[n]] {
				w.push(d, out)
			}
		}
		lo = hi
	}
	return w.pairs
}

// extend returns list with the interval [lo, hi) added; every number in
// list is below lo.
func (w *lineWalk) extend(list ivList, lo, hi int32) ivList {
	off := int32(len(w.iv))
	w.iv = append(w.iv, w.iv[list.off:list.off+2*list.n]...)
	w.steps += int(list.n)
	if n := len(w.iv); n > int(off) && w.iv[n-1] == lo {
		w.iv[n-1] = hi
		return ivList{off, list.n}
	}
	w.iv = append(w.iv, lo, hi)
	return ivList{off, list.n + 1}
}

// push adds the holders of list to those with a line path into
// component c.
func (w *lineWalk) push(c int32, list ivList) {
	if list.n == 0 {
		return
	}
	if w.pendAt[c] != w.epoch || w.pend[c].n == 0 {
		w.pendAt[c], w.pend[c] = w.epoch, list
		return
	}
	cur := w.pend[c]
	if cur == list {
		return
	}
	// Merge the two sorted interval lists, joining what overlaps or
	// touches.
	w.scr = w.scr[:0]
	a, b := w.iv[cur.off:cur.off+2*cur.n], w.iv[list.off:list.off+2*list.n]
	for len(a) > 0 || len(b) > 0 {
		w.steps++
		var lo, hi int32
		if len(b) == 0 || len(a) > 0 && a[0] <= b[0] {
			lo, hi, a = a[0], a[1], a[2:]
		} else {
			lo, hi, b = b[0], b[1], b[2:]
		}
		if k := len(w.scr); k > 0 && lo <= w.scr[k-1] {
			w.scr[k-1] = max(w.scr[k-1], hi)
		} else {
			w.scr = append(w.scr, lo, hi)
		}
	}
	off := int32(len(w.iv))
	w.iv = append(w.iv, w.scr...)
	w.pendAt[c], w.pend[c] = w.epoch, ivList{off, int32(len(w.scr) / 2)}
}

// judge pairs each holder numbered first…last, one component, with every
// holder numbered below first outside in — those the line leaves
// unordered with it — and keeps the pairs the guards do not exempt.
func (w *lineWalk) judge(in ivList, first, last int32) {
	gap := func(lo, hi int32) {
		for x := first; x <= last; x++ {
			a := w.order[x]
			if w.isStore[a] {
				for y := lo; y < hi; y++ {
					w.pair(a, w.order[y])
				}
				continue
			}
			// A read races only with a store.
			i, _ := slices.BinarySearch(w.stores, lo)
			for ; i < len(w.stores) && w.stores[i] < hi; i++ {
				w.pair(a, w.order[w.stores[i]])
			}
		}
	}
	prev := int32(0)
	for k := range in.n {
		lo, hi := w.iv[in.off+2*k], w.iv[in.off+2*k+1]
		if lo > prev {
			gap(prev, lo)
		}
		prev = hi
	}
	if prev < first {
		gap(prev, first)
	}
}

// pair keeps operations a and b, unordered on the line, unless their
// guards exempt them. Memory operations put their firing guard on every
// output. A starved operation cannot race (token-balance reports it); an
// unconverged table overstates guards and exempts no pair.
func (w *lineWalk) pair(a, b int32) {
	w.steps++
	t := w.guards
	ga, gb := t.at(w.ops[a].ID, 0), t.at(w.ops[b].ID, 0)
	if t.converged && (ga.top || gb.top || t.disjoint(ga, gb)) {
		return
	}
	w.pairs = append(w.pairs, [2]int32{min(a, b), max(a, b)})
}

// unreached returns the pairs of which neither operation reaches the
// other through the graph, searched forward from each operation of the
// pairs.
func (w *lineWalk) unreached(pairs [][2]int32) [][2]int32 {
	var from []int32 // the pairs' operations, ascending
	for _, p := range pairs {
		from = append(from, p[0], p[1])
	}
	slices.Sort(from)
	from = slices.Compact(from)
	ordered := make([]bool, len(pairs))
	for _, a := range from {
		w.reach(int32(w.ops[a].ID))
		for k, p := range pairs {
			if p[0] == a && w.seen[w.ops[p[1]].ID] == w.epoch || p[1] == a && w.seen[w.ops[p[0]].ID] == w.epoch {
				ordered[k] = true
			}
		}
	}
	var out [][2]int32
	for k, p := range pairs {
		if !ordered[k] {
			out = append(out, p)
		}
	}
	return out
}

// reach marks, with a new epoch in seen, every node n reaches through one
// or more arcs, and n itself.
func (w *lineWalk) reach(n int32) {
	w.epoch++
	w.seen[n] = w.epoch
	w.nodes = append(w.nodes[:0], n)
	for len(w.nodes) > 0 {
		v := w.nodes[len(w.nodes)-1]
		w.nodes = w.nodes[:len(w.nodes)-1]
		for _, ai := range w.u.adj.OutOf(v) {
			w.steps++
			if to := int32(w.u.G.Arcs[ai].To); w.seen[to] != w.epoch {
				w.seen[to] = w.epoch
				w.nodes = append(w.nodes, to)
			}
		}
	}
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
