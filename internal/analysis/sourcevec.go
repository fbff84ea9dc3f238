package analysis

import (
	"fmt"
	mbits "math/bits"
	"slices"
	"sync"

	"ctdf/internal/cfg"
)

// Source identifies where an access token comes from: a dataflow-producing
// CFG node and the out-direction along which the token leaves it (paper
// §4.2: "If the source node has only a single out-direction then we simply
// use true as the out-direction"). Read distinguishes the post-read tap of
// a fork: a fork is also a memory operation (it loads its predicate
// variables), and a token it reads but does not switch leaves the fork's
// read block before any switch, independent of the branch taken.
type Source struct {
	Node int32 // 32 bits: the vectors keep one per (CFG node, token)
	Dir  bool
	Read bool
}

func (s Source) String() string {
	d := "t"
	if !s.Dir {
		d = "f"
	}
	if s.Read {
		d = "r"
	}
	return fmt.Sprintf("⟨n%d,%s⟩", s.Node, d)
}

// compareSources orders sources by node, then taps before post-read
// taps, then the true out-direction before the false one.
func compareSources(a, b Source) int {
	switch {
	case a.Node != b.Node:
		return int(a.Node - b.Node)
	case a.Read != b.Read:
		if b.Read {
			return -1
		}
		return 1
	case a.Dir != b.Dir:
		if a.Dir {
			return -1
		}
		return 1
	}
	return 0
}

// SourceVectors is the result of the Figure 11 computation: for every node
// N and token, the sources access tokens arrive from. Deviating slightly
// from the figure for convenience, a join with a single source is resolved
// at propagation time (the paper resolves it when building the graph: "A
// join with a single source is equivalent to no operator"), so an entry
// with more than one source appears only at joins, at end, and at
// loop-entry ports — exactly the places where dataflow merges may be
// created.
//
// The vectors are propagated one token at a time, and only the entries
// the graph builder reads are kept: at the nodes that consume, regenerate
// or switch the token, at merges, at end and at loop-entry back ports.
// Their number is the size of the graph built from them, not nodes ×
// tokens. Any other entry is recomputed on request (Sources).
type SourceVectors struct {
	// Universe is the full token name universe, sorted: token id t is
	// Universe[t].
	Universe []string
	// Order is the topological order (cfg.Graph.TopoOrder) the vectors
	// were propagated in; the graph builder emits nodes in the same order.
	Order []int

	// The kept entries. Rows number the ports sources arrive on: a row per
	// CFG node — for loop entries the initial (entry-side) port — then one
	// per loop entry for its back-edge (iteration) port, found through
	// backRow. Row r's entries are cells[rowOff[r]:rowOff[r+1]], sorted by
	// token; an entry's sorted sources are srcs[c.off : c.off+c.n].
	rowOff  []int32
	cells   []cell
	srcs    []Source
	backRow map[int]int

	prop *propagation
	// col holds the whole column of token colTok (-1: none), the last one
	// recomputed: an entry that was not kept is read from it, after
	// recomputing it for its token if need be. mu serializes the
	// recomputation.
	mu     sync.Mutex
	col    column
	colTok int32
}

// cell is a kept entry: its token, or its row while the entries are
// gathered token by token, and its sources.
type cell struct{ key, off, n int32 }

const (
	noSource    = -1
	manySources = -2
)

// Sources returns the sorted source list of token id t at node n; for a
// loop entry, those of the initial port.
func (s *SourceVectors) Sources(n int, t int32) []Source { return s.at(n, t) }

// BackSources returns the sorted sources of token id t at the back-edge
// port of loop entry n.
func (s *SourceVectors) BackSources(n int, t int32) []Source {
	if row, ok := s.backRow[n]; ok {
		return s.at(row, t)
	}
	return nil
}

// Merges appends to buf, ascending, the ids of the tokens with more than
// one source at node n (for a loop entry, at its initial port): the
// tokens a dataflow merge collects there.
func (s *SourceVectors) Merges(n int, buf []int32) []int32 {
	for _, c := range s.cells[s.rowOff[n]:s.rowOff[n+1]] {
		if c.n > 1 {
			buf = append(buf, c.key)
		}
	}
	return buf
}

// LoopNeed returns, for a loop-entry or loop-exit node n, the ids of the
// tokens that must circulate through the loop, ascending (everything
// else bypasses it); nil for any other node.
func (s *SourceVectors) LoopNeed(n int) []int32 {
	if k := s.prop.kind[n]; k == cfg.KindLoopEntry || k == cfg.KindLoopExit {
		return s.prop.regen.Row(n)
	}
	return nil
}

// Wires counts the sources of the kept entries: the wires the graph
// built from the vectors runs into the nodes that read them.
func (s *SourceVectors) Wires() int { return len(s.srcs) }

func (s *SourceVectors) at(row int, t int32) []Source {
	if list, ok := s.kept(row, t); ok {
		return list
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.colTok != t {
		s.prop.sweep(int(t), &s.col)
		s.colTok = t
	}
	return slices.Clone(s.col.list(row))
}

// kept returns the kept sources of token t on row, if the entry was kept.
func (s *SourceVectors) kept(row int, t int32) ([]Source, bool) {
	cells := s.cells[s.rowOff[row]:s.rowOff[row+1]]
	i, found := slices.BinarySearchFunc(cells, t, func(c cell, t int32) int { return int(c.key - t) })
	if !found {
		return nil, false
	}
	c := cells[i]
	return s.srcs[c.off : c.off+c.n : c.off+c.n], true
}

// column is one token's source lists over every row during propagation:
// a list is almost always one source and is kept in the cell itself; Node
// is noSource for an empty list and manySources for one kept, sorted, in
// many[row]. filled lists the rows whose list is not empty. The rest is
// the sweep's scratch over CFG nodes: the nodes that regenerate or switch
// the token are marked with the sweep's epoch, and pending is the set of
// positions in the order still to visit past at, the one being visited,
// in words up to pendingEnd.
type column struct {
	cell   []Source
	many   [][]Source
	filled []int32

	epoch      int32
	takes, sw  []int32
	pending    []uint64
	pendingEnd int
	at         int32
	// With skip set, add hands a source straight to the next row on its
	// way that can do more than pass it on (stop); marks are the sweep's
	// takers and switchers on the chains it skips along, ascending by
	// chainKey. Two sources that skip a row in common skip on to one stop:
	// the first source to skip to each (a row per mark, a chain per chain
	// end) is kept, with the epoch, in skipSrc and skipAt, and collided
	// records that a second, different one came.
	skip            bool
	marks           []uint64
	skipAt, endAt   []int32
	skipSrc, endSrc []Source
	collided        bool
	visits          int // rows add reached, chains it skipped and nodes step visited, over every sweep
}

func chainKey(chain, idx int32) uint64 { return uint64(chain)<<32 | uint64(idx) }

func newColumn(rows, nodes int) column {
	c := column{cell: make([]Source, rows), many: make([][]Source, rows)}
	for i := range c.cell {
		c.cell[i].Node = noSource
	}
	c.takes, c.sw, c.pending = make([]int32, nodes), make([]int32, nodes), make([]uint64, (nodes+63)/64)
	return c
}

func (c *column) list(row int) []Source {
	switch c.cell[row].Node {
	case noSource:
		return nil
	case manySources:
		return c.many[row]
	}
	return c.cell[row : row+1 : row+1]
}

// add puts src on the list of row. A node that only passes the token on
// — it neither regenerates nor switches it, and is no join — hands src
// on at once, as its visit would, so the sweep never visits it; with skip
// set, src goes past such nodes on a chain without being put on their
// lists, which nothing reads.
func (c *column) add(row int32, src Source, p *propagation) {
	for {
		if c.skip {
			row = c.stop(row, src, p)
		}
		c.visits++
		if c.cell[row].Node == noSource {
			c.cell[row] = src
			c.filled = append(c.filled, row)
		} else if !c.addMore(row, src) {
			return
		}
		if int(row) >= len(p.pos) {
			return // a back port: read, never visited
		}
		to := p.pass[row]
		if to < 0 || c.takes[row] == c.epoch || c.sw[row] == c.epoch {
			c.visit(p.pos[row])
			return
		}
		if p.pos[row] <= c.at {
			return // the order never revisits a node
		}
		row = to
	}
}

// stop returns the first row from row on that does more than pass the
// swept token on: the first row along row's chain that takes or switches
// it, or else, past the chain's end, the first such row along the chains
// that end joins; row itself when it is on no chain. A row src skips
// would have held src alone unless another source skips it too, and then
// both skip on to the same stop: stop notes whether a different source
// came there before.
func (c *column) stop(row int32, src Source, p *propagation) int32 {
	for int(row) < len(p.chain) && p.chain[row] >= 0 {
		c.visits++
		ch, a := p.chain[row], p.idx[row]
		i, _ := slices.BinarySearch(c.marks, chainKey(ch, a))
		if i < len(c.marks) && c.marks[i]>>32 == uint64(ch) {
			b := int32(uint32(c.marks[i]))
			m := p.onChain[p.chainOff[ch]+b]
			if b > a {
				c.meet(c.skipAt, c.skipSrc, m, src)
			}
			return m
		}
		c.meet(c.endAt, c.endSrc, ch, src)
		row = p.chainEnd[ch]
	}
	return row
}

// meet notes that src skipped on to stop k of at and srcs.
func (c *column) meet(at []int32, srcs []Source, k int32, src Source) {
	switch {
	case at[k] != c.epoch:
		at[k], srcs[k] = c.epoch, src
	case srcs[k] != src:
		c.collided = true
	}
}

// addMore puts src on the list of row, which is not empty, and reports
// whether it was not there yet.
func (c *column) addMore(row int32, src Source) bool {
	cur := &c.cell[row]
	if cur.Node != manySources {
		if *cur == src {
			return false
		}
		c.many[row] = append(c.many[row][:0], *cur)
		cur.Node = manySources
	}
	list := c.many[row]
	i, found := slices.BinarySearchFunc(list, src, compareSources)
	if !found {
		c.many[row] = slices.Insert(list, i, src)
	}
	return !found
}

// forward puts every source of row from on the list of row to.
func (c *column) forward(from int, to int32, p *propagation) {
	if src := c.cell[from]; src.Node >= 0 {
		c.add(to, src, p)
		return
	}
	for _, src := range c.list(from) {
		c.add(to, src, p)
	}
}

// visit has the sweep visit position pos of the order, unless it is
// already past it: the order never revisits a node.
func (c *column) visit(pos int32) {
	if pos > c.at {
		c.pending[pos/64] |= 1 << (pos % 64)
		c.pendingEnd = max(c.pendingEnd, int(pos/64)+1)
	}
}

// propagation is what one token's column is computed from: the order, the
// per-node token sets, and per CFG node the rows its outputs arrive on.
type propagation struct {
	kind  []cfg.NodeKind // of each CFG node
	order []int
	pos   []int32 // position of each CFG node in order
	// regen[id] is what node id consumes and regenerates: the tokens an
	// assignment, call or fork needs, the tokens a loop's control
	// statements circulate. switched[id] is what fork id switches. takers
	// and switchers are the same sets by token.
	regen, switched, takers, switchers Rows
	// next[id] is the row of node id's (true) successor port; alt[id] the
	// row of a fork's false successor; past[id] the row a fork sends the
	// tokens it does not switch to, and a loop entry the tokens it
	// bypasses.
	next, alt, past []int32
	// pass[id] is where node id sends a token it neither regenerates nor
	// switches — next for a statement or loop exit, past for a fork or
	// loop entry — or -1 for start, end and joins.
	pass []int32
	// The rows that can pass a token on (joins too, to their successor)
	// form a forest; chain[r] numbers the path of its heavy-path
	// decomposition row r lies on (-1: none), idx[r] is r's place on it,
	// and chainEnd the row the path runs on to past its last. Path ch's
	// rows are onChain[chainOff[ch]:], in order.
	chain, idx, chainEnd []int32
	onChain, chainOff    []int32
	rows                 int
	starts               []int32 // the start nodes
}

// SourceVectors runs the worklist algorithm of Figure 11,
// generalized to abstract tokens and to the loop control statements of §3:
//
//   - start sources every token to its successor;
//   - a memory-operation node (assignment or fork predicate evaluation)
//     consumes and regenerates the tokens it needs, and passes all other
//     token sources through unchanged;
//   - a fork creates a switch for every token placed at it, and for every
//     other token propagates the sources non-locally to the fork's
//     immediate postdominator (the bypass of §4) — to its back-edge port
//     when that is the entry of a loop holding the fork;
//   - a join merges: with two or more sources it becomes a dataflow merge
//     (and thus a new source); with one source it is no operator;
//   - a loop entry consumes and regenerates every token the loop needs
//     (giving iterations fresh tags) and bypasses all others to the first
//     postdominator outside the loop;
//   - a loop exit consumes and regenerates the loop's tokens.
//
// Nodes are processed in topological order ignoring loop back edges, so
// every source vector is complete before its node is processed; back-edge
// contributions to loop-entry ports are recorded for wiring but never
// influence propagation (a loop entry regenerates its tokens). Each token
// is propagated on its own, through one column of scratch reused from
// token to token.
//
// It runs on the plan's own rows, under its placement and with its need,
// and on the postdominators of the plan's control dependences.
func (pl *Plan) SourceVectors() (*SourceVectors, error) {
	g, loops, needs, switched := pl.g, pl.loops, pl.need, pl.switched
	n := g.Len()
	out := &SourceVectors{
		Universe: pl.universe,
		backRow:  map[int]int{},
		colTok:   -1,
	}
	v := len(out.Universe)
	p := &propagation{kind: make([]cfg.NodeKind, n)}
	out.prop = p
	loopRows := pl.loopRows(needs, switched)
	pdom := pl.cd.pdom
	loopOf := map[int]int{} // loop entry or exit → the (last) loop it controls

	// Bypass target per loop entry: the first node on the entry's
	// postdominator chain that is outside the loop body and not one of its
	// exit statements.
	bypass := map[int]int{}
	for i, l := range loops {
		t := pdom.Idom[l.Entry]
		for t != -1 && (l.Body[t] || isExit(l, t)) {
			t = pdom.Idom[t]
		}
		if t == -1 {
			return nil, fmt.Errorf("analysis: loop at n%d has no postdominator outside its body", l.Entry)
		}
		bypass[l.Entry] = t
		loopOf[l.Entry] = i
		for _, x := range l.Exits {
			loopOf[x] = i
		}
	}
	// Loop control statements regenerate what their loop circulates.
	p.regen = Rows{off: make([]int32, n+1), ids: make([]int32, 0, len(needs.ids)+len(loopRows.ids))}
	for id := range n {
		row := needs.Row(id)
		if i, ok := loopOf[id]; ok {
			row = loopRows.Row(i)
		}
		p.regen.ids = append(p.regen.ids, row...)
		p.regen.off[id+1] = int32(len(p.regen.ids))
	}
	p.switched = switched
	p.takers, p.switchers = p.regen.transpose(v), switched.transpose(v)
	for id, nd := range g.Nodes {
		if nd.Kind == cfg.KindLoopEntry {
			out.backRow[id] = n + len(out.backRow)
		}
	}
	p.rows = n + len(out.backRow)

	var ok bool
	if out.Order, ok = g.TopoOrder(); !ok {
		return nil, fmt.Errorf("analysis: no topological order (cycle not broken by loop entries)")
	}
	p.order = out.Order
	p.pos = make([]int32, n)
	for i, id := range out.Order {
		p.pos[id] = int32(i)
	}
	// port returns the row that tokens sent from node from arrive on at
	// node to: the back port of a loop entry when from is one of its back
	// predecessors. Tokens sent around intervening nodes (from < 0) always
	// arrive on the initial port.
	port := func(to, from int) int32 {
		if from >= 0 && g.Nodes[to].BackPreds[from] {
			return int32(out.backRow[to])
		}
		return int32(to)
	}
	p.next, p.alt, p.past = make([]int32, n), make([]int32, n), make([]int32, n)
	for id, nd := range g.Nodes {
		p.kind[id] = nd.Kind
		if nd.Kind == cfg.KindStart {
			p.starts = append(p.starts, int32(id))
		}
		if len(nd.Succs) > 0 {
			p.next[id] = port(nd.Succs[0], id)
		}
		switch nd.Kind {
		case cfg.KindFork:
			ip := pdom.Idom[id]
			p.alt[id], p.past[id] = port(nd.Succs[1], id), port(ip, -1)
			if ip >= 0 && g.Nodes[ip].Kind == cfg.KindLoopEntry {
				for _, l := range loops {
					if l.Entry == ip && l.Body[id] {
						// The fork's arms part the loop's back-edges: what it
						// does not switch reaches the entry on the next
						// iteration.
						p.past[id] = int32(out.backRow[ip])
					}
				}
			}
		case cfg.KindLoopEntry:
			p.past[id] = port(bypass[id], -1)
		}
	}
	p.pass = make([]int32, n)
	for id, k := range p.kind {
		switch k {
		case cfg.KindAssign, cfg.KindCall, cfg.KindLoopExit:
			p.pass[id] = p.next[id]
		case cfg.KindFork, cfg.KindLoopEntry:
			p.pass[id] = p.past[id]
		default:
			p.pass[id] = -1
		}
	}

	// Propagate token by token, keeping the entries the builder reads —
	// most are the regenerating nodes' and end's, so those size the table
	// — then sort them by row.
	gathered := make([]cell, 0, len(p.regen.ids)+len(switched.ids)+v)
	out.srcs = make([]Source, 0, cap(gathered))
	out.rowOff = make([]int32, p.rows+1)
	ends := make([]int32, v+1) // token t's are gathered[ends[t]:ends[t+1]]
	col := &out.col
	*col = newColumn(p.rows, n)
	p.chains()
	col.skipAt, col.skipSrc = make([]int32, n), make([]Source, n)
	col.endAt, col.endSrc = make([]int32, len(p.chainEnd)), make([]Source, len(p.chainEnd))
	for t := range v {
		col.skip = true
		if p.sweep(t, col); col.collided {
			col.skip = false
			p.sweep(t, col)
		}
		// Read the column's filled rows, emptying it for the next token.
		for _, row := range col.filled {
			if list := col.list(int(row)); int(row) >= n || len(list) > 1 || col.reads(p, int(row)) {
				gathered = append(gathered, cell{row, int32(len(out.srcs)), int32(len(list))})
				out.srcs = append(out.srcs, list...)
				out.rowOff[row+1]++
			}
			col.cell[row].Node = noSource
		}
		col.filled = col.filled[:0]
		ends[t+1] = int32(len(gathered))
	}
	col.skip = false // a recomputed column is read at every row
	for row := range p.rows {
		out.rowOff[row+1] += out.rowOff[row]
	}
	out.cells = make([]cell, len(gathered))
	at := slices.Clone(out.rowOff[:p.rows])
	for t := range v {
		for _, c := range gathered[ends[t]:ends[t+1]] {
			out.cells[at[c.key]] = cell{int32(t), c.off, c.n}
			at[c.key]++
		}
	}
	pl.Work.Cells += col.visits
	if err := out.validate(g, p.regen, switched); err != nil {
		return nil, err
	}
	return out, nil
}

// reads reports whether the builder reads the swept token's sources at
// node id: the node consumes, regenerates or switches it, or it is end.
func (c *column) reads(p *propagation, id int) bool {
	return c.takes[id] == c.epoch || c.sw[id] == c.epoch || p.kind[id] == cfg.KindEnd
}

// sweep computes token t's column: the sources of t on every row. It
// visits, in the order, start, the nodes that regenerate or switch t and
// the joins t's sources reach; add hands t on through the nodes that
// only pass it.
func (p *propagation) sweep(t int, c *column) {
	for _, row := range c.filled {
		c.cell[row].Node = noSource
	}
	c.filled = c.filled[:0]
	c.epoch, c.at = c.epoch+1, -1
	c.marks, c.collided = c.marks[:0], false
	mark := func(id int32) {
		if ch := p.chain[id]; ch >= 0 && c.skip {
			c.marks = append(c.marks, chainKey(ch, p.idx[id]))
		}
	}
	for _, id := range p.takers.Row(t) {
		mark(id)
	}
	for _, id := range p.switchers.Row(t) {
		// The join past a fork switching the token merges its arms.
		mark(id)
		if j := p.past[id]; int(j) < len(p.pos) && p.kind[j] == cfg.KindJoin {
			mark(j)
		}
	}
	slices.Sort(c.marks)
	for _, id := range p.takers.Row(t) {
		c.takes[id] = c.epoch
		c.visit(p.pos[id])
	}
	for _, id := range p.switchers.Row(t) {
		c.sw[id] = c.epoch
		c.visit(p.pos[id])
	}
	for _, id := range p.starts {
		c.visit(p.pos[id])
	}
	for w := 0; w < c.pendingEnd; w++ {
		for c.pending[w] != 0 {
			b := mbits.TrailingZeros64(c.pending[w])
			c.pending[w] &^= 1 << b
			c.at = int32(w*64 + b)
			p.step(c)
		}
	}
	c.pendingEnd = 0
}

// chains lays the chains out. The rows that pass tokens on (pass is set)
// form a forest along pass, the rows that do not, or are back ports, its
// roots; a chain is a path of it taken from the heavy-path decomposition,
// so that from any row the way to a root crosses few chains.
func (p *propagation) chains() {
	n := len(p.pos)
	// A join passes a token on to its successor when one source arrives;
	// where several do, the sweep marks it (merges) or finds the sources
	// collide on the chain.
	flow := slices.Clone(p.pass)
	for id, k := range p.kind {
		if k == cfg.KindJoin {
			flow[id] = p.next[id]
		}
	}
	on := func(r int32) bool { return int(r) < n && flow[r] >= 0 }
	// size[r] counts the rows whose way runs through r; every row's pass
	// lies later in the order.
	size := make([]int32, n)
	heavy := make([]int32, n) // the child whose way is the largest, or -1
	for i := range heavy {
		heavy[i] = -1
	}
	for _, id := range p.order {
		r := int32(id)
		size[r]++
		if !on(r) || !on(flow[r]) {
			continue
		}
		up := flow[r]
		size[up] += size[r]
		if h := heavy[up]; h < 0 || size[r] > size[h] {
			heavy[up] = r
		}
	}
	p.chain, p.idx = make([]int32, n), make([]int32, n)
	for r := range p.chain {
		p.chain[r] = -1
	}
	for _, id := range p.order {
		top := int32(id)
		if !on(top) || p.chain[top] >= 0 {
			continue
		}
		ch, r := int32(len(p.chainEnd)), top
		p.chainOff = append(p.chainOff, int32(len(p.onChain)))
		for k := int32(0); ; k++ {
			p.chain[r], p.idx[r] = ch, k
			p.onChain = append(p.onChain, r)
			if up := flow[r]; !on(up) || heavy[up] != r {
				break
			}
			r = flow[r]
		}
		p.chainEnd = append(p.chainEnd, flow[r])
	}
}

// step visits the node at position c.at of the order.
func (p *propagation) step(c *column) {
	c.visits++
	pick := p.order[c.at]
	self := Source{Node: int32(pick), Dir: true}
	next, takes := p.next[pick], c.takes[pick] == c.epoch

	switch p.kind[pick] {
	case cfg.KindStart:
		// Figure 11: every token flows from start to its (program
		// entry) successor; the conventional start→end edge carries
		// nothing.
		c.add(next, self, p)

	case cfg.KindEnd:
		// Terminal; the translation collects every token here.

	case cfg.KindAssign, cfg.KindCall, cfg.KindLoopExit:
		// A call statement is a memory operation on everything its
		// callee may touch: it consumes and regenerates the mapped
		// token set (separate-compilation mode). A token that bypassed
		// a loop never reaches its exits; passing it through there is
		// defensive.
		if takes {
			c.add(next, self, p)
		} else {
			c.forward(pick, next, p)
		}

	case cfg.KindFork:
		switch {
		case c.sw[pick] == c.epoch:
			c.add(next, Source{Node: int32(pick), Dir: true}, p)
			c.add(p.alt[pick], Source{Node: int32(pick), Dir: false}, p)
		case takes:
			// The fork's read block consumed and regenerated the
			// token; it continues past the (unneeded) switch point
			// to the fork's immediate postdominator.
			c.add(p.past[pick], Source{Node: int32(pick), Dir: true, Read: true}, p)
		default:
			c.forward(pick, p.past[pick], p)
		}

	case cfg.KindJoin:
		if c.cell[pick].Node == manySources {
			// A dataflow merge is created here; it becomes the source.
			c.add(next, self, p)
		} else {
			// Single source: no merge operator; forward the source.
			c.forward(pick, next, p)
		}

	case cfg.KindLoopEntry:
		if takes {
			c.add(next, self, p)
		} else {
			c.forward(pick, p.past[pick], p)
		}
	}
}

func isExit(l cfg.Loop, id int) bool {
	for _, x := range l.Exits {
		if x == id {
			return true
		}
	}
	return false
}

// validate checks the structural invariants the graph builder relies on;
// needs holds the need rows of assignments, calls and forks. Every entry
// it reads is one the propagation keeps whenever it is not empty.
func (s *SourceVectors) validate(g *cfg.Graph, needs, switched Rows) error {
	count := func(row int, t int32) int {
		list, _ := s.kept(row, t)
		return len(list)
	}
	// single checks that every token of row has exactly one source at nd.
	single := func(nd *cfg.Node, row []int32, does string) error {
		for _, t := range row {
			if c := count(nd.ID, t); c != 1 {
				return fmt.Errorf("analysis: %s %s token %s but has %d sources", nd, does, s.Universe[t], c)
			}
		}
		return nil
	}
	for id, nd := range g.Nodes {
		// Multiple sources may appear only where merges are legal.
		if nd.Kind != cfg.KindJoin && nd.Kind != cfg.KindEnd && nd.Kind != cfg.KindLoopEntry {
			for _, c := range s.cells[s.rowOff[id]:s.rowOff[id+1]] {
				if c.n > 1 {
					return fmt.Errorf("analysis: %s has %d sources for %s at non-merge node", nd, c.n, s.Universe[c.key])
				}
			}
		}
		switch nd.Kind {
		case cfg.KindAssign, cfg.KindCall:
			if err := single(nd, needs.Row(id), "needs"); err != nil {
				return err
			}
		case cfg.KindFork:
			if err := single(nd, needs.Row(id), "reads"); err != nil {
				return err
			}
			if err := single(nd, switched.Row(id), "switches"); err != nil {
				return err
			}
		case cfg.KindLoopEntry:
			for _, t := range s.LoopNeed(id) {
				if count(id, t) < 1 {
					return fmt.Errorf("analysis: loop entry %s has no initial source for %s", nd, s.Universe[t])
				}
				if count(s.backRow[id], t) < 1 {
					return fmt.Errorf("analysis: loop entry %s has no back-edge source for %s", nd, s.Universe[t])
				}
			}
		case cfg.KindLoopExit:
			for _, t := range s.LoopNeed(id) {
				if c := count(id, t); c != 1 {
					return fmt.Errorf("analysis: loop exit %s has %d sources for %s", nd, c, s.Universe[t])
				}
			}
		case cfg.KindEnd:
			for t, tok := range s.Universe {
				if _, ok := s.kept(id, int32(t)); !ok {
					return fmt.Errorf("analysis: token %s never reaches end", tok)
				}
			}
		}
	}
	return nil
}
