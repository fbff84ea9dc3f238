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
// Only the entries vet reads are kept: at the nodes that consume,
// regenerate or switch the token, at merges, at end and at loop-entry back
// ports. Their number is the size of the graph built from them, not
// nodes × tokens. Any other entry is recomputed on request (Sources), by
// the same walk carrying that token alone.
type SourceVectors struct {
	// Universe is the full token name universe, sorted: token id t is
	// Universe[t].
	Universe []string
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
	// last node sending to back row r.
	Pos, Next, Alt, Past, Last []int32
	BackRow                    map[int]int

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
// It runs on the plan's Route.
func (pl *Plan) SourceVectors() (*SourceVectors, error) {
	r, err := pl.Route()
	if err != nil {
		return nil, err
	}
	out := &SourceVectors{Universe: pl.universe, Route: r, colTok: -1}
	// The kept entries are the regenerated and switched tokens', end's,
	// the back rows' and the merges', and a token merges at most once per
	// fork switching it: that sizes the table.
	cells := len(r.Regen.ids) + 2*len(r.Switched.ids) + len(out.Universe)
	for entry := range r.BackRow {
		cells += len(r.LoopNeed(entry))
	}
	out.kept = table{cells: make([]cell, 0, cells), srcs: make([]Source, 0, cells+len(r.Switched.ids))}
	if err := out.walk(-1, &out.kept, &pl.Work.Cells); err != nil {
		return nil, err
	}
	if err := out.validate(); err != nil {
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
	out := &Route{BackRow: map[int]int{}, g: g, Switched: pl.switched}
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
	out.Pos, out.Last = make([]int32, n), make([]int32, len(out.BackRow))
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
	one   int32 // the one token the walk carries, recording its every entry, or -1
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
	w := &walker{SourceVectors: s, one: one, out: out, work: work}
	out.span, out.cells, out.srcs = make([]struct{ lo, hi int32 }, len(s.Pos)+len(s.Last)), out.cells[:0], out.srcs[:0]
	err := w.Walk(s.Route, len(s.Universe), w.visit, func(row int) {
		w.drain(w.arrive(row, true))
		w.close(row)
	})
	*work += w.united
	return err
}

// visit has the walk visit CFG node id.
func (w *walker) visit(id int) error {
	kind := w.g.Nodes[id].Kind
	s := w.arrive(id, kind == cfg.KindEnd)
	defer w.close(id)
	self := Source{Node: int32(id), Dir: true}
	regen := w.Regen.Row(id)
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
		return nil

	case cfg.KindAssign, cfg.KindCall, cfg.KindLoopExit:
		// A call statement is a memory operation on everything its callee
		// may touch: it consumes and regenerates the mapped token set
		// (separate-compilation mode). A token that bypassed a loop never
		// reaches its exits; passing it through there is defensive.
		for _, t := range regen {
			w.replace(s, t, s, self)
		}

	case cfg.KindFork:
		sw, yes, no := w.Switched.Row(id), w.NewSet(), w.NewSet()
		for _, t := range sw {
			w.replace(s, t, yes, self)
			w.add(no, t, Source{Node: int32(id)})
		}
		w.Send(yes, w.Next[id])
		w.Send(no, w.Alt[id])
		for _, t := range regen {
			if _, found := slices.BinarySearch(sw, t); !found {
				// The fork's read block consumed and regenerated the
				// token; it continues past the (unneeded) switch point to
				// the fork's immediate postdominator.
				w.replace(s, t, s, Source{Node: int32(id), Dir: true, Read: true})
			}
		}
		w.Send(s, w.Past[id])
		return nil

	case cfg.KindJoin:
		// A dataflow merge is created for every token with several
		// sources and becomes its source; a single source passes (no
		// merge operator).
		for _, e := range w.Multi(s) {
			w.Put(e, s, Input{From: self})
		}

	case cfg.KindLoopEntry:
		body := w.NewSet()
		for _, t := range regen {
			w.replace(s, t, body, self)
		}
		w.Send(body, w.Next[id])
		w.Send(s, w.Past[id])
		return nil
	}
	w.Send(s, w.Next[id])
	return nil
}

// arrive takes the set arriving on row, an empty one if none does, and
// records its entries with several sources, or with all set every entry.
func (w *walker) arrive(row int, all bool) int32 {
	s := w.Arrive(row)
	w.lo, w.stamp = len(w.out.cells), w.stamp+1
	list := w.Multi(s)
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

// add puts a new entry for token t, with source src, in set s; a walk
// for one token carries no other.
func (w *walker) add(s, t int32, src Source) {
	if w.one < 0 || t == w.one {
		w.Add(s, t, Input{From: src})
	}
}

// replace records token t's entry in set s, which the node visited
// regenerates, and gives it the source src in set to: a new entry if t
// did not arrive.
func (w *walker) replace(s, t, to int32, src Source) {
	*w.work++
	e := w.Find(s, t)
	if e < 0 {
		w.add(to, t, src)
		return
	}
	w.record(e)
	w.Put(e, to, Input{From: src})
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
			for _, row := range [...][]int32{s.Regen.Row(id), s.Switched.Row(id)} {
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
				if count(s.BackRow[id], t) < 1 {
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
