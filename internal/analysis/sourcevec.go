package analysis

import (
	"cmp"
	"fmt"
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
	bit := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	return cmp.Or(cmp.Compare(a.Node, b.Node), bit(a.Read)-bit(b.Read), bit(b.Dir)-bit(a.Dir))
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
// Only the entries the graph builder reads are kept: at the nodes that
// consume, regenerate or switch the token, at merges, at end and at
// loop-entry back ports. Their number is the size of the graph built from
// them, not nodes × tokens. Any other entry is recomputed on request
// (Sources), by the same walk carrying that token alone.
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
	// backRow.
	kept    table
	backRow map[int]int

	// What the walk runs on. pos[id] is node id's position in the order.
	// regen[id] is what node id consumes and regenerates: the tokens an
	// assignment, call or fork needs, the tokens a loop's control
	// statements circulate; switched[id] is what fork id switches. next[id]
	// is the row of node id's (true) successor port, alt[id] that of a
	// fork's false successor, and past[id] the row a fork sends the tokens
	// it does not switch to, a loop entry those it bypasses. last[r-n] is
	// the position of the last node sending to back row r.
	g                          *cfg.Graph
	regen, switched            Rows
	pos, next, alt, past, last []int32

	// col holds every entry of token colTok (-1: none), the last one
	// recomputed: an entry that was not kept is read from it. mu
	// serializes the recomputation.
	mu     sync.Mutex
	col    table
	colTok int32
}

// table holds source lists by row: row r's entries are
// cells[span[r].lo:span[r].hi], sorted by token, and an entry's sorted
// sources are srcs[c.off : c.off+c.n].
type table struct {
	span  []struct{ lo, hi int32 }
	cells []cell
	srcs  []Source
}

// cell is an entry of a table: its token and its sources.
type cell struct{ tok, off, n int32 }

func (tb *table) row(r int) []cell { return tb.cells[tb.span[r].lo:tb.span[r].hi] }

// get returns the sources of token t on row, if the table holds them.
func (tb *table) get(row int, t int32) ([]Source, bool) {
	cells := tb.row(row)
	if i, found := slices.BinarySearchFunc(cells, t, func(c cell, t int32) int { return int(c.tok - t) }); found {
		return tb.srcs[cells[i].off : cells[i].off+cells[i].n : cells[i].off+cells[i].n], true
	}
	return nil, false
}

// BackSources returns the sorted sources of token id t at the back-edge
// port of loop entry n.
func (s *SourceVectors) BackSources(n int, t int32) []Source {
	if row, ok := s.backRow[n]; ok {
		return s.Sources(row, t)
	}
	return nil
}

// Merges appends to buf, ascending, the ids of the tokens with more than
// one source at node n (for a loop entry, at its initial port): the
// tokens a dataflow merge collects there.
func (s *SourceVectors) Merges(n int, buf []int32) []int32 {
	for _, c := range s.kept.row(n) {
		if c.n > 1 {
			buf = append(buf, c.tok)
		}
	}
	return buf
}

// LoopNeed returns, for a loop-entry or loop-exit node n, the ids of the
// tokens that must circulate through the loop, ascending (everything
// else bypasses it); nil for any other node.
func (s *SourceVectors) LoopNeed(n int) []int32 {
	if k := s.g.Nodes[n].Kind; k == cfg.KindLoopEntry || k == cfg.KindLoopExit {
		return s.regen.Row(n)
	}
	return nil
}

// Wires counts the sources of the kept entries: the wires the graph
// built from the vectors runs into the nodes that read them.
func (s *SourceVectors) Wires() int { return len(s.kept.srcs) }

// Sources returns the sorted source list of token id t at node n; for a
// loop entry, those of the initial port.
func (s *SourceVectors) Sources(n int, t int32) []Source {
	if list, ok := s.kept.get(n, t); ok {
		return list
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.colTok != t {
		_ = s.walk(t, &s.col, new(int)) // as the walk that kept the entries, it cannot fail
		s.colTok = t
	}
	list, _ := s.col.get(n, t)
	return slices.Clone(list)
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
// influence propagation (a loop entry regenerates its tokens). Every
// token is propagated in the same walk over the order (walk).
//
// It runs on the plan's own rows, under its placement and with its need,
// and on the postdominators of the plan's control dependences.
func (pl *Plan) SourceVectors() (*SourceVectors, error) {
	g, loops, needs, switched := pl.g, pl.loops, pl.need, pl.switched
	n := g.Len()
	out := &SourceVectors{Universe: pl.universe, backRow: map[int]int{}, g: g, switched: switched, colTok: -1}
	loopRows := pl.loopRows(needs, switched)
	pdom := pl.cd.pdom
	loopOf := make([]int, n) // loop entry or exit → 1 + the (last) loop it controls
	out.next, out.alt, out.past = make([]int32, n), make([]int32, n), make([]int32, n)
	for i, l := range loops {
		// A loop entry bypasses what it does not circulate to the first
		// node on its postdominator chain outside the loop body and not
		// one of its exit statements.
		t := pdom.Idom[l.Entry]
		for t != -1 && (l.Body[t] || slices.Contains(l.Exits, t)) {
			t = pdom.Idom[t]
		}
		if t == -1 {
			return nil, fmt.Errorf("analysis: loop at n%d has no postdominator outside its body", l.Entry)
		}
		out.past[l.Entry] = int32(t)
		loopOf[l.Entry] = i + 1
		for _, x := range l.Exits {
			loopOf[x] = i + 1
		}
	}
	// Loop control statements regenerate what their loop circulates.
	out.regen = Rows{off: make([]int32, n+1), ids: make([]int32, 0, len(needs.ids)+len(loopRows.ids))}
	for id := range n {
		row := needs.Row(id)
		if i := loopOf[id]; i > 0 {
			row = loopRows.Row(i - 1)
		}
		if g.Nodes[id].Kind == cfg.KindLoopEntry {
			out.backRow[id] = n + len(out.backRow)
		}
		out.regen.ids = append(out.regen.ids, row...)
		out.regen.off[id+1] = int32(len(out.regen.ids))
	}

	var ok bool
	if out.Order, ok = g.TopoOrder(); !ok {
		return nil, fmt.Errorf("analysis: no topological order (cycle not broken by loop entries)")
	}
	out.pos, out.last = make([]int32, n), make([]int32, len(out.backRow))
	for i, id := range out.Order {
		out.pos[id] = int32(i)
	}
	// port returns the row node from's successor to receives its tokens
	// on: to's back port when from is one of its back predecessors.
	port := func(to, from int) int32 {
		if g.Nodes[to].BackPreds[from] {
			return int32(out.backRow[to])
		}
		return int32(to)
	}
	for id, nd := range g.Nodes {
		if len(nd.Succs) > 0 {
			out.next[id] = port(nd.Succs[0], id)
		}
		if nd.Kind == cfg.KindFork {
			ip := pdom.Idom[id]
			out.alt[id], out.past[id] = port(nd.Succs[1], id), int32(ip)
			if ip >= 0 && g.Nodes[ip].Kind == cfg.KindLoopEntry {
				for _, l := range loops {
					if l.Entry == ip && l.Body[id] {
						// The fork's arms part the loop's back-edges: what it
						// does not switch reaches the entry on the next
						// iteration.
						out.past[id] = int32(out.backRow[ip])
					}
				}
			}
		}
		for _, r := range [...]int32{out.next[id], out.alt[id], out.past[id]} {
			if int(r) >= n {
				out.last[int(r)-n] = max(out.last[int(r)-n], out.pos[id])
			}
		}
	}

	// The kept entries are the regenerated and switched tokens', end's,
	// the back rows' and the merges', and a token merges at most once per
	// fork switching it: that sizes the table.
	cells := len(out.regen.ids) + len(loopRows.ids) + 2*len(switched.ids) + len(out.Universe)
	out.kept = table{cells: make([]cell, 0, cells), srcs: make([]Source, 0, cells+len(switched.ids))}
	if err := out.walk(-1, &out.kept, &pl.Work.Cells); err != nil {
		return nil, err
	}
	if err := out.validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// walker is the state of a walk. The walk carries sets of tokens from row
// to row by reference: a set holds an entry per token on its way, the
// token's sources, and an entry lies in one set. A token has an entry in
// every set carrying it, chained from head[t] through next.
type walker struct {
	*SourceVectors
	one            int32 // the one token the walk carries, recording its every entry, or -1
	ents           []entry
	pool           []Source // the sources of the entries with several
	head           []int32
	sets           []tokenSet
	free, freeEnts []int32 // drained sets and entries
	at             []int32 // per row, the set arriving there, or -1
	cur, stamp     int32   // the position visited, and its visit's number
	lo             int     // the first cell recorded on the visit
	out            *table
	work           *int
	err            error
}

// entry is one token's sources in a set: src[0], or the n > 1 at
// pool[off:].
type entry struct {
	tok, set, next int32
	pos, stamp     int32 // its place in the set's members; the visit that recorded it
	off, n         int32
	src            [1]Source
}

// tokenSet lists its entries, and those of them that may have several
// sources.
type tokenSet struct{ members, multi []int32 }

// walk computes the source vectors into out in one pass over the order,
// recording the entries the builder reads or, for one ≥ 0, carrying token
// one alone and recording its every entry. Each node takes the set arriving on its row, regenerates,
// switches or circulates the tokens it touches, and sends the set on: to
// next, or a fork's and a loop entry's to past. A fork moves its
// switched tokens into two new sets, one per arm; a loop entry the
// tokens it circulates into the body's. Several sets arriving on a row
// are united, the smaller into the larger, and a join merges every token
// left with several sources. A back row records what arrived once the
// last node sending to it is visited. work counts the entries made, moved,
// recorded and united.
func (s *SourceVectors) walk(one int32, out *table, work *int) error {
	none := make([]int32, len(s.Universe)+len(s.pos)+len(s.last))
	for i := range none {
		none[i] = -1
	}
	w := &walker{SourceVectors: s, one: one, out: out, work: work, ents: make([]entry, 0, len(s.Universe)),
		head: none[:len(s.Universe)], at: none[len(s.Universe):]}
	out.span, out.cells, out.srcs = make([]struct{ lo, hi int32 }, len(w.at)), out.cells[:0], out.srcs[:0]
	for i, id := range s.Order {
		w.cur = int32(i)
		w.visit(id)
		for _, r := range [...]int32{s.next[id], s.alt[id], s.past[id]} {
			if r := int(r); r >= len(s.pos) && s.last[r-len(s.pos)] == w.cur && w.at[r] >= 0 {
				w.drain(w.arrive(r, true))
				w.close(r)
			}
		}
	}
	return w.err
}

// visit has the walk visit CFG node id.
func (w *walker) visit(id int) {
	kind := w.g.Nodes[id].Kind
	s := w.arrive(id, kind == cfg.KindEnd)
	defer w.close(id)
	self := Source{Node: int32(id), Dir: true}
	regen := w.regen.Row(id)
	switch kind {
	case cfg.KindStart:
		// Figure 11: every token flows from start to its (program entry)
		// successor; the conventional start→end edge carries nothing.
		for t := range int32(len(w.Universe)) {
			w.add(s, t, self)
		}

	case cfg.KindEnd:
		// Terminal; the translation collects every token here.
		w.drain(s)
		return

	case cfg.KindAssign, cfg.KindCall, cfg.KindLoopExit:
		// A call statement is a memory operation on everything its callee
		// may touch: it consumes and regenerates the mapped token set
		// (separate-compilation mode). A token that bypassed a loop never
		// reaches its exits; passing it through there is defensive.
		for _, t := range regen {
			w.replace(s, t, s, self)
		}

	case cfg.KindFork:
		sw, yes, no := w.switched.Row(id), w.newSet(), w.newSet()
		for _, t := range sw {
			w.replace(s, t, yes, self)
			w.add(no, t, Source{Node: int32(id)})
		}
		w.send(yes, w.next[id])
		w.send(no, w.alt[id])
		for _, t := range regen {
			if _, found := slices.BinarySearch(sw, t); !found {
				// The fork's read block consumed and regenerated the
				// token; it continues past the (unneeded) switch point to
				// the fork's immediate postdominator.
				w.replace(s, t, s, Source{Node: int32(id), Dir: true, Read: true})
			}
		}
		w.send(s, w.past[id])
		return

	case cfg.KindJoin:
		// A dataflow merge is created for every token with several
		// sources and becomes its source; a single source passes (no
		// merge operator).
		for _, e := range w.sets[s].multi {
			w.ents[e].src[0], w.ents[e].n = self, 1
		}

	case cfg.KindLoopEntry:
		body := w.newSet()
		for _, t := range regen {
			w.replace(s, t, body, self)
		}
		w.send(body, w.next[id])
		w.send(s, w.past[id])
		return
	}
	w.send(s, w.next[id])
}

// arrive takes the set arriving on row, an empty one if none does, and
// records its entries with several sources, or with all set every entry.
func (w *walker) arrive(row int, all bool) int32 {
	s := w.at[row]
	if s < 0 {
		s = w.newSet()
	}
	w.at[row], w.lo, w.stamp = -1, len(w.out.cells), w.stamp+1
	list := w.sets[s].multi
	if all || w.one >= 0 {
		list = w.sets[s].members
	}
	for _, e := range list {
		w.record(e)
	}
	return s
}

// record adds entry e, as it arrived, to the row visited, once.
func (w *walker) record(e int32) {
	if en := &w.ents[e]; en.stamp != w.stamp {
		en.stamp = w.stamp
		*w.work++
		srcs := w.sources(e)
		w.out.cells = append(w.out.cells, cell{en.tok, int32(len(w.out.srcs)), int32(len(srcs))})
		w.out.srcs = append(w.out.srcs, srcs...)
	}
}

// close ends the visit of row, sorting its entries by token.
func (w *walker) close(row int) {
	slices.SortFunc(w.out.cells[w.lo:], func(a, b cell) int { return int(a.tok - b.tok) })
	w.out.span[row].lo, w.out.span[row].hi = int32(w.lo), int32(len(w.out.cells))
}

// send has set s arrive on row, united with the set already there.
func (w *walker) send(s, row int32) {
	if int(row) < len(w.pos) && w.pos[row] <= w.cur {
		w.err = cmp.Or(w.err, fmt.Errorf("analysis: n%d sends tokens to a port the order has passed", w.Order[w.cur]))
		w.drain(s)
		return
	}
	w.sets[s].multi = slices.DeleteFunc(w.sets[s].multi, func(e int32) bool { return w.ents[e].set != s || w.ents[e].n < 2 })
	if a := w.at[row]; a < 0 {
		w.at[row] = s
	} else {
		w.at[row] = w.unite(a, s)
	}
}

// unite moves the entries of the smaller of sets a and b into the larger
// and returns it; a token in both gets the union of its sources.
func (w *walker) unite(a, b int32) int32 {
	if len(w.sets[a].members) < len(w.sets[b].members) {
		a, b = b, a
	}
	for _, e := range w.sets[b].members {
		*w.work++
		f := w.find(a, w.ents[e].tok)
		if f < 0 {
			w.attach(e, a)
			continue
		}
		single := w.ents[f].n == 1
		for _, src := range w.sources(e) {
			list := w.sources(f)
			if i, found := slices.BinarySearchFunc(list, src, compareSources); !found {
				off := len(w.pool)
				w.pool = append(append(append(w.pool, list[:i]...), src), list[i:]...)
				w.ents[f].off, w.ents[f].n = int32(off), int32(len(list)+1)
			}
		}
		if single && w.ents[f].n > 1 {
			w.sets[a].multi = append(w.sets[a].multi, f)
		}
	}
	w.drain(b)
	return a
}

// sources returns the sources of entry e.
func (w *walker) sources(e int32) []Source {
	if en := &w.ents[e]; en.n > 1 {
		return w.pool[en.off : en.off+en.n]
	}
	return w.ents[e].src[:]
}

func (w *walker) newSet() int32 {
	if k := len(w.free) - 1; k >= 0 {
		s := w.free[k]
		w.free = w.free[:k]
		return s
	}
	w.sets = append(w.sets, tokenSet{})
	return int32(len(w.sets) - 1)
}

// find returns token t's entry in set s, or -1.
func (w *walker) find(s, t int32) int32 {
	e := w.head[t]
	for e >= 0 && w.ents[e].set != s {
		e = w.ents[e].next
	}
	return e
}

// add puts a new entry for token t, with source src, in set s; a walk
// for one token carries no other.
func (w *walker) add(s, t int32, src Source) {
	if w.one >= 0 && t != w.one {
		return
	}
	e := int32(len(w.ents))
	if k := len(w.freeEnts) - 1; k >= 0 {
		e, w.freeEnts = w.freeEnts[k], w.freeEnts[:k]
	} else {
		w.ents = append(w.ents, entry{})
	}
	w.ents[e] = entry{tok: t, next: w.head[t], n: 1, src: [1]Source{src}}
	w.head[t] = e
	w.attach(e, s)
}

// replace records token t's entry in set s, which the node visited
// regenerates, and gives it the source src in set to: a new entry if t
// did not arrive.
func (w *walker) replace(s, t, to int32, src Source) {
	*w.work++
	e := w.find(s, t)
	if e < 0 {
		w.add(to, t, src)
		return
	}
	w.record(e)
	w.ents[e].src[0], w.ents[e].n = src, 1
	if to != s {
		set := &w.sets[s]
		last := set.members[len(set.members)-1]
		set.members[w.ents[e].pos], w.ents[last].pos = last, w.ents[e].pos
		set.members = set.members[:len(set.members)-1]
		w.attach(e, to)
	}
}

func (w *walker) attach(e, s int32) {
	en, set := &w.ents[e], &w.sets[s]
	en.set, en.pos = s, int32(len(set.members))
	set.members = append(set.members, e)
	if en.n > 1 {
		set.multi = append(set.multi, e)
	}
}

// drain frees set s and the entries it holds.
func (w *walker) drain(s int32) {
	for _, e := range w.sets[s].members {
		if w.ents[e].set != s {
			continue // moved on by unite
		}
		at := &w.head[w.ents[e].tok]
		for *at != e {
			at = &w.ents[*at].next
		}
		*at, w.ents[e].set = w.ents[e].next, -1
		w.freeEnts = append(w.freeEnts, e)
	}
	w.sets[s].members, w.sets[s].multi = w.sets[s].members[:0], w.sets[s].multi[:0]
	w.free = append(w.free, s)
}

// validate checks the structural invariants the graph builder relies on.
// Every entry it reads is one the walk keeps whenever it is not empty.
func (s *SourceVectors) validate() error {
	count := func(row int, t int32) int {
		list, _ := s.kept.get(row, t)
		return len(list)
	}
	for id, nd := range s.g.Nodes {
		// Multiple sources may appear only where merges are legal.
		if nd.Kind != cfg.KindJoin && nd.Kind != cfg.KindEnd && nd.Kind != cfg.KindLoopEntry {
			for _, c := range s.kept.row(id) {
				if c.n > 1 {
					return fmt.Errorf("analysis: %s has %d sources for %s at non-merge node", nd, c.n, s.Universe[c.tok])
				}
			}
		}
		switch nd.Kind {
		case cfg.KindAssign, cfg.KindCall, cfg.KindFork:
			// Every token read or switched has exactly one source.
			does := "needs"
			if nd.Kind == cfg.KindFork {
				does = "reads"
			}
			for _, row := range [...][]int32{s.regen.Row(id), s.switched.Row(id)} {
				for _, t := range row {
					if c := count(id, t); c != 1 {
						return fmt.Errorf("analysis: %s %s token %s but has %d sources", nd, does, s.Universe[t], c)
					}
				}
				does = "switches"
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
				if _, ok := s.kept.get(id, int32(t)); !ok {
					return fmt.Errorf("analysis: token %s never reaches end", tok)
				}
			}
		}
	}
	return nil
}
