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
// taps, then the true out-direction before the false one: the order a
// merge's inputs are wired in.
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
// Only the entries vet reads are kept: the merges', and every entry at
// a loop entry's initial port of a token the loop circulates and at its
// back port. Their number is the size of the graph built from them, not
// nodes × tokens. Any other entry is recomputed on request (Sources), by
// the same walk carrying that token alone.
type SourceVectors struct {
	// Route is what the walk ran on.
	*Route

	// The kept entries, by the rows of Route.
	kept table

	// col holds every entry of token colTok (-1: none), the last one
	// recomputed: an entry that was not kept is read from it. mu
	// serializes the recomputation.
	mu     sync.Mutex
	col    table
	colTok int32
}

// Route is what a walk of Figure 11 runs on, the plan's routing of its
// tokens. Rows number the ports tokens arrive on: a row per CFG node — for
// a loop entry its initial (entry-side) port — then one per loop entry for
// its back-edge (iteration) port, BackRow[entry].
type Route struct {
	// Universe is the full token name universe, sorted: token id t is
	// Universe[t].
	Universe []string
	// Order is the topological order (cfg.Graph.TopoOrder) of the walk.
	Order []int
	// Regen[id] is what node id consumes and regenerates: the tokens an
	// assignment, call or fork needs, the tokens a loop's control
	// statements circulate. Switched[id] is what fork id switches.
	Regen, Switched Rows
	// Pos[id] is node id's position in Order. Next[id] is the row of node
	// id's (true) successor port, Alt[id] that of a fork's false successor,
	// and Past[id] the row a fork sends the tokens it does not switch to, a
	// loop entry those it bypasses. Last[r-len(Pos)] is the position of the
	// last node sending to back row r, and backOf[r-len(Pos)] its loop
	// entry.
	Pos, Next, Alt, Past, Last, backOf []int32
	BackRow                            map[int]int

	g *cfg.Graph
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
	if row, ok := s.BackRow[n]; ok {
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
func (r *Route) LoopNeed(n int) []int32 {
	if k := r.g.Nodes[n].Kind; k == cfg.KindLoopEntry || k == cfg.KindLoopExit {
		return r.Regen.Row(n)
	}
	return nil
}

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

// SourceVectors runs the worklist algorithm of Figure 11 (Carrier.Move
// states what each node does) on the plan's Route. Nodes are processed in
// topological order ignoring loop back edges, so every source vector is
// complete before its node is processed; back-edge contributions to
// loop-entry ports are recorded for wiring but never influence
// propagation (a loop entry regenerates its tokens). Every token is
// propagated in the same walk over the order (walk).
func (pl *Plan) SourceVectors() (*SourceVectors, error) {
	r, err := pl.Route()
	if err != nil {
		return nil, err
	}
	out := &SourceVectors{Route: r, colTok: -1}
	// The kept entries are the merges', a token merging at most once per
	// fork switching it and at end, and the loop entries' on either port:
	// that sizes the table.
	cells := len(r.Switched.ids) + len(r.Universe)
	for entry := range r.BackRow {
		cells += 2 * len(r.LoopNeed(entry))
	}
	out.kept = table{cells: make([]cell, 0, cells), srcs: make([]Source, 0, cells+len(r.Switched.ids))}
	if err := out.walk(-1, &out.kept, &pl.Work.Cells); err != nil {
		return nil, err
	}
	return out, nil
}

// Route routes the plan's tokens for a walk of Figure 11: its own rows,
// under its placement and with its need, on the postdominators of its
// control dependences.
func (pl *Plan) Route() (*Route, error) {
	g, loops, needs := pl.g, pl.loops, pl.need
	n := g.Len()
	out := &Route{Universe: pl.universe, BackRow: map[int]int{}, g: g, Switched: pl.switched}
	loopRows := pl.loopRows(needs, pl.switched)
	pdom := pl.cd.pdom
	loopOf := make([]int, n) // loop entry or exit → 1 + the (last) loop it controls
	out.Next, out.Alt, out.Past = make([]int32, n), make([]int32, n), make([]int32, n)
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
		out.Past[l.Entry] = int32(t)
		loopOf[l.Entry] = i + 1
		for _, x := range l.Exits {
			loopOf[x] = i + 1
		}
	}
	// Loop control statements regenerate what their loop circulates.
	out.Regen = Rows{off: make([]int32, n+1), ids: make([]int32, 0, len(needs.ids)+len(loopRows.ids))}
	for id := range n {
		row := needs.Row(id)
		if i := loopOf[id]; i > 0 {
			row = loopRows.Row(i - 1)
		}
		if g.Nodes[id].Kind == cfg.KindLoopEntry {
			out.BackRow[id] = n + len(out.BackRow)
		}
		out.Regen.ids = append(out.Regen.ids, row...)
		out.Regen.off[id+1] = int32(len(out.Regen.ids))
	}

	var ok bool
	if out.Order, ok = g.TopoOrder(); !ok {
		return nil, fmt.Errorf("analysis: no topological order (cycle not broken by loop entries)")
	}
	out.Pos, out.Last, out.backOf = make([]int32, n), make([]int32, len(out.BackRow)), make([]int32, len(out.BackRow))
	for entry, row := range out.BackRow {
		out.backOf[row-n] = int32(entry)
	}
	for i, id := range out.Order {
		out.Pos[id] = int32(i)
	}
	// port returns the row node from's successor to receives its tokens
	// on: to's back port when from is one of its back predecessors.
	port := func(to, from int) int32 {
		if g.Nodes[to].BackPreds[from] {
			return int32(out.BackRow[to])
		}
		return int32(to)
	}
	for id, nd := range g.Nodes {
		if len(nd.Succs) > 0 {
			out.Next[id] = port(nd.Succs[0], id)
		}
		if nd.Kind == cfg.KindFork {
			ip := pdom.Idom[id]
			out.Alt[id], out.Past[id] = port(nd.Succs[1], id), int32(ip)
			if ip >= 0 && g.Nodes[ip].Kind == cfg.KindLoopEntry {
				for _, l := range loops {
					if l.Entry == ip && l.Body[id] {
						// The fork's arms part the loop's back-edges: what it
						// does not switch reaches the entry on the next
						// iteration.
						out.Past[id] = int32(out.BackRow[ip])
					}
				}
			}
		}
		for _, r := range [...]int32{out.Next[id], out.Alt[id], out.Past[id]} {
			if int(r) >= n {
				out.Last[int(r)-n] = max(out.Last[int(r)-n], out.Pos[id])
			}
		}
	}
	return out, nil
}

// walker is the state of a walk: the tokens it carries, sources only.
type walker struct {
	*SourceVectors
	Carrier
	stamp int32 // the visit's number
	lo    int   // the first cell recorded on the visit
	out   *table
	work  *int
}

// walk computes the source vectors into out in one pass over the order
// (Carrier.Walk), recording the entries vet reads or, for one ≥ 0,
// carrying token one alone and recording its every entry. A back row
// records what arrived once the last node sending to it is visited. work
// counts the entries made, moved, recorded and united.
func (s *SourceVectors) walk(one int32, out *table, work *int) error {
	w := &walker{SourceVectors: s, out: out, work: work}
	out.span, out.cells, out.srcs = make([]struct{ lo, hi int32 }, len(s.Pos)+len(s.Last)), out.cells[:0], out.srcs[:0]
	err := w.Walk(s.Route, one, w.visit, func(row int, b int32) {
		w.begin()
		w.recordAll(w.sets[b].members)
		w.close(row)
		w.drain(b)
	})
	*work += w.Carrier.work
	return err
}

// visit has node id act on set s, recording as they arrive its entries
// with several sources and, at a loop entry, those of the tokens the loop
// circulates; in a walk of one token, every entry.
func (w *walker) visit(id int, s int32) error {
	w.begin()
	defer w.close(id)
	if w.one >= 0 {
		w.recordAll(w.sets[s].members)
	}
	w.recordAll(w.multi(s))
	if w.g.Nodes[id].Kind == cfg.KindLoopEntry {
		for _, t := range w.Regen.Row(id) {
			if e := w.find(s, t); e >= 0 {
				w.record(e)
			}
		}
	}
	return w.Move(id, s, func(int32, int, Source) Wire { return Wire{} })
}

// begin starts the visit of a row.
func (w *walker) begin() { w.lo, w.stamp = len(w.out.cells), w.stamp+1 }

func (w *walker) recordAll(list []int32) {
	for _, e := range list {
		w.record(e)
	}
}

// record adds entry e, as it arrived, to the row visited, once.
func (w *walker) record(e int32) {
	if en := &w.Ents[e]; en.stamp != w.stamp {
		en.stamp = w.stamp
		*w.work++
		off := int32(len(w.out.srcs))
		for _, in := range w.Inputs(e) {
			w.out.srcs = append(w.out.srcs, in.From)
		}
		w.out.cells = append(w.out.cells, cell{en.Tok, off, int32(len(w.out.srcs)) - off})
	}
}

// close ends the visit of row, sorting its entries by token.
func (w *walker) close(row int) {
	slices.SortFunc(w.out.cells[w.lo:], func(a, b cell) int { return int(a.tok - b.tok) })
	w.out.span[row].lo, w.out.span[row].hi = int32(w.lo), int32(len(w.out.cells))
}
