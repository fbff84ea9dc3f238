package analysis

import (
	"cmp"
	"fmt"
	"slices"

	"ctdf/internal/cfg"
)

// Carrier carries tokens from row to row of a walk of Figure 11 by
// reference, for the source-vector walk and the graph builder's alike: a
// set holds an entry per token on its way, and an entry lies in one set.
// A token has an entry in every set carrying it, chained from head[t]
// through next. Several sets sent to one row are united, the smaller into
// the larger, and a token in both gets the union of its inputs. What a
// node does to the tokens it takes is stated once, in Move.
type Carrier struct {
	Ents []Entry
	work int // the entries moved by Move and by uniting sets

	at             []int32 // per row, the set arriving there, or -1
	pool           []Input // the inputs of the entries with several
	head           []int32
	sets           []tokenSet
	free, freeEnts []int32 // drained sets and entries
	parked         []int32 // the entries of parked sets
	leaving        []sent  // the sets Move filled at the node visited
	route          *Route
	one            int32 // the one token carried, or -1: all
	cur            int32 // the position visited
	err            error // the first send to a port the order has passed
}

// sent is a set on its way to a row.
type sent struct{ s, row int32 }

// Entry is one token in a set, with its inputs: in[0], or the n > 1 at
// pool[off:], ordered by source.
type Entry struct {
	Tok, Set  int32
	next, pos int32 // the token's next entry; its place in the set's members
	stamp     int32 // for the source-vector walk, the visit that recorded it
	off, n    int32
	in        [1]Input
}

// Input is one way a token arrives: the source it leaves and, beside it,
// the wire the graph builder runs from there.
type Input struct {
	From Source
	W    Wire
}

// Wire is an output port of a dataflow node.
type Wire struct{ Node, Port int32 }

// tokenSet lists its entries, and those of them that may have several
// inputs.
type tokenSet struct{ members, multi []int32 }

// Walk visits the route's order once, carrying every token of the
// route's universe, or with one ≥ 0 token one alone. At each node it
// takes the set arriving on the node's row, checks that several sources
// meet only where a merge may be made (a join, end or loop entry), has
// visit act on the set, through Move, and sends on the sets Move filled.
// Once the last node sending to a back row is visited (or at the end, if
// none does), it checks that every token the loop circulates has arrived
// there, and back takes the set. It returns the first error visit or the
// walk met.
func (c *Carrier) Walk(r *Route, one int32, visit func(id int, s int32) error, back func(row int, s int32)) error {
	tokens := len(r.Universe)
	none := make([]int32, tokens+len(r.Pos)+len(r.Last))
	for i := range none {
		none[i] = -1
	}
	c.head, c.at, c.Ents, c.route, c.one = none[:tokens], none[tokens:], make([]Entry, 0, tokens), r, one
	c.leaving = make([]sent, 0, 3)
	for i, id := range r.Order {
		c.cur = int32(i)
		s := c.arrive(id)
		if multi := c.multi(s); len(multi) > 0 && !mergesAt(r.g.Nodes[id].Kind) {
			e := multi[0]
			return fmt.Errorf("analysis: %s has %d sources for %s at non-merge node", r.g.Nodes[id], len(c.Inputs(e)), r.Universe[c.Ents[e].Tok])
		}
		if err := visit(id, s); err != nil {
			return err
		}
		for _, out := range c.leaving {
			c.send(out.s, out.row)
		}
		c.leaving = c.leaving[:0]
		rows := [...]int32{r.Next[id], r.Alt[id], r.Past[id]}
		for k, row := range rows {
			if b := int(row) - len(r.Pos); b >= 0 && r.Last[b] == c.cur && !slices.Contains(rows[:k], row) {
				if err := c.seal(row, back); err != nil {
					return err
				}
			}
		}
		if c.err != nil {
			return c.err
		}
	}
	// A back row no node sends to is sealed on nothing.
	for b, last := range r.Last {
		id, row := r.Order[last], int32(b+len(r.Pos))
		if r.Next[id] != row && r.Alt[id] != row && r.Past[id] != row {
			if err := c.seal(row, back); err != nil {
				return err
			}
		}
	}
	return nil
}

// seal checks that every token the loop circulates has arrived on back
// row row, and has back take the set.
func (c *Carrier) seal(row int32, back func(row int, s int32)) error {
	r := c.route
	s := c.arrive(int(row))
	entry := r.backOf[int(row)-len(r.Pos)]
	for _, t := range r.LoopNeed(int(entry)) {
		if c.carries(t) && c.find(s, t) < 0 {
			return fmt.Errorf("analysis: loop entry %s has no back-edge source for %s", r.g.Nodes[entry], r.Universe[t])
		}
	}
	back(int(row), s)
	return nil
}

// mergesAt reports whether a node of kind k may merge several sources of
// a token: a join, end or loop entry.
func mergesAt(k cfg.NodeKind) bool {
	return k == cfg.KindJoin || k == cfg.KindEnd || k == cfg.KindLoopEntry
}

func (c *Carrier) carries(t int32) bool { return c.one < 0 || t == c.one }

// Take returns token t's entry in set s, which CFG node id consumes: the
// token must have arrived.
func (c *Carrier) Take(id int, s, t int32) (int32, error) {
	if e := c.find(s, t); e >= 0 {
		return e, nil
	}
	return -1, fmt.Errorf("analysis: %s consumes token %s but it has no sources", c.route.g.Nodes[id], c.route.Universe[t])
}

// Move has CFG node id act on set s, the tokens arriving on its row, as
// Figure 11 does, generalized to abstract tokens and to the loop control
// statements of §3, and leaves the sets it fills for the walk to send:
//
//   - start sources every token to its successor;
//   - an assignment, call or loop exit consumes and regenerates the
//     tokens it needs (a loop exit, those its loop circulates), and
//     passes every other token through;
//   - a fork consumes and regenerates the tokens its predicate reads,
//     switches every token placed at it, onto a set per arm, and sends
//     the rest to its immediate postdominator (the bypass of §4), read
//     ones from its post-read tap;
//   - a join puts every token with several sources through a dataflow
//     merge, which becomes its source; a single source passes (no
//     operator);
//   - a loop entry gives every token the loop circulates a fresh
//     iteration tag, onto the body's set, and bypasses the others to the
//     first postdominator outside the loop;
//   - end collects every token.
//
// A token a node takes leaves it on the wire out returns for its entry e,
// as it arrived, its place k in the row the node takes it by, and the side
// it leaves from: a switch's true arm, a fork's post-read tap, the node's
// own tap otherwise. The row is the universe at start and end, the node's
// Regen row, a fork's Switched row for its switches, and at a join the
// tokens it merges. A switch's false arm is port 1 of its true arm's
// node. Move asks in the order the graph builder makes the nodes: by
// ascending token, a fork's switches before its post-read taps.
func (c *Carrier) Move(id int, s int32, out func(e int32, k int, side Source) Wire) error {
	r := c.route
	self := Source{Node: int32(id), Dir: true}
	leave := func(e, to int32, k int, side Source) {
		c.work++
		c.Put(e, to, Input{From: side, W: out(e, k, side)})
	}
	regen := r.Regen.Row(id)
	switch kind := r.g.Nodes[id].Kind; kind {
	case cfg.KindStart:
		for t := range int32(len(c.head)) {
			if c.carries(t) {
				leave(c.add(s, t, Input{}), s, int(t), self)
			}
		}

	case cfg.KindEnd:
		for t := range int32(len(c.head)) {
			if !c.carries(t) {
				continue
			}
			e, err := c.Take(id, s, t)
			if err != nil {
				return err
			}
			out(e, int(t), self)
		}
		c.drain(s)
		return nil

	case cfg.KindAssign, cfg.KindCall, cfg.KindLoopExit, cfg.KindLoopEntry:
		// A call statement is a memory operation on everything its callee
		// may touch (separate-compilation mode).
		to := s
		if kind == cfg.KindLoopEntry {
			to = c.newSet()
			c.leaving = append(c.leaving, sent{to, r.Next[id]}, sent{s, r.Past[id]})
		}
		for k, t := range regen {
			if !c.carries(t) {
				continue
			}
			e, err := c.Take(id, s, t)
			if err != nil {
				return err
			}
			leave(e, to, k, self)
		}
		if to != s {
			return nil
		}

	case cfg.KindFork:
		// The read block takes what the fork reads, then what it switches.
		sw := r.Switched.Row(id)
		for _, row := range [...][]int32{regen, sw} {
			for _, t := range row {
				if !c.carries(t) {
					continue
				}
				if _, err := c.Take(id, s, t); err != nil {
					return err
				}
			}
		}
		yes, no, arm := c.newSet(), c.newSet(), Source{Node: int32(id)}
		for k, t := range sw {
			if e := c.find(s, t); e >= 0 {
				c.work++
				w := out(e, k, self)
				c.add(no, t, Input{From: arm, W: Wire{w.Node, 1}})
				c.Put(e, yes, Input{From: self, W: w})
			}
		}
		for k, t := range regen {
			if _, found := slices.BinarySearch(sw, t); !found && c.carries(t) {
				// The fork's read block consumed and regenerated the
				// token; it continues past the (unneeded) switch point to
				// the fork's immediate postdominator.
				leave(c.find(s, t), s, k, Source{Node: int32(id), Dir: true, Read: true})
			}
		}
		c.leaving = append(c.leaving, sent{yes, r.Next[id]}, sent{no, r.Alt[id]}, sent{s, r.Past[id]})
		return nil

	case cfg.KindJoin:
		multi := c.multi(s)
		slices.SortFunc(multi, func(x, y int32) int { return cmp.Compare(c.Ents[x].Tok, c.Ents[y].Tok) })
		for k, e := range multi {
			leave(e, s, k, self)
		}
	}
	c.leaving = append(c.leaving, sent{s, r.Next[id]})
	return nil
}

// Inputs returns the inputs of entry e.
func (c *Carrier) Inputs(e int32) []Input {
	if en := &c.Ents[e]; en.n > 1 {
		return c.pool[en.off : en.off+en.n]
	}
	return c.Ents[e].in[:]
}

// multi returns the entries of set s that may have several inputs.
func (c *Carrier) multi(s int32) []int32 { return c.sets[s].multi }

// arrive takes the set arriving on row, an empty one if none does.
func (c *Carrier) arrive(row int) int32 {
	s := c.at[row]
	if s < 0 {
		s = c.newSet()
	}
	c.at[row] = -1
	return s
}

// send has set s arrive on row, united with the set already there,
// unless the order has passed row.
func (c *Carrier) send(s, row int32) {
	if int(row) < len(c.route.Pos) && c.route.Pos[row] <= c.cur {
		c.err = cmp.Or(c.err, fmt.Errorf("analysis: n%d sends tokens to a port the order has passed", c.route.Order[c.cur]))
		c.drain(s)
		return
	}
	c.sets[s].multi = slices.DeleteFunc(c.sets[s].multi, func(e int32) bool { return c.Ents[e].Set != s || c.Ents[e].n < 2 })
	if a := c.at[row]; a < 0 {
		c.at[row] = s
	} else {
		c.at[row] = c.unite(a, s)
	}
}

// unite moves the entries of the smaller of sets a and b into the larger
// and returns it.
func (c *Carrier) unite(a, b int32) int32 {
	if len(c.sets[a].members) < len(c.sets[b].members) {
		a, b = b, a
	}
	for _, e := range c.sets[b].members {
		c.work++
		f := c.find(a, c.Ents[e].Tok)
		if f < 0 {
			c.attach(e, a)
			continue
		}
		single := c.Ents[f].n == 1
		for _, in := range c.Inputs(e) {
			list := c.Inputs(f)
			if i, found := slices.BinarySearchFunc(list, in.From, func(x Input, s Source) int { return compareSources(x.From, s) }); !found {
				off := len(c.pool)
				c.pool = append(append(append(c.pool, list[:i]...), in), list[i:]...)
				c.Ents[f].off, c.Ents[f].n = int32(off), int32(len(list)+1)
			}
		}
		if single && c.Ents[f].n > 1 {
			c.sets[a].multi = append(c.sets[a].multi, f)
		}
	}
	c.drain(b)
	return a
}

// newSet returns an empty set.
func (c *Carrier) newSet() int32 {
	if k := len(c.free) - 1; k >= 0 {
		s := c.free[k]
		c.free = c.free[:k]
		return s
	}
	c.sets = append(c.sets, tokenSet{})
	return int32(len(c.sets) - 1)
}

// find returns token t's entry in set s, or -1.
func (c *Carrier) find(s, t int32) int32 {
	e := c.head[t]
	for e >= 0 && c.Ents[e].Set != s {
		e = c.Ents[e].next
	}
	return e
}

// add puts a new entry for token t, arriving by in, in set s, and
// returns it.
func (c *Carrier) add(s, t int32, in Input) int32 {
	e := int32(len(c.Ents))
	if k := len(c.freeEnts) - 1; k >= 0 {
		e, c.freeEnts = c.freeEnts[k], c.freeEnts[:k]
	} else {
		c.Ents = append(c.Ents, Entry{})
	}
	c.Ents[e] = Entry{Tok: t, next: c.head[t], n: 1, in: [1]Input{in}}
	c.head[t] = e
	c.attach(e, s)
	return e
}

// Put gives entry e the one input in, and moves it into set to.
func (c *Carrier) Put(e, to int32, in Input) {
	en := &c.Ents[e]
	en.in[0], en.n = in, 1
	if s := en.Set; to != s {
		set := &c.sets[s]
		last := set.members[len(set.members)-1]
		set.members[en.pos], c.Ents[last].pos = last, en.pos
		set.members = set.members[:len(set.members)-1]
		c.attach(e, to)
	}
}

func (c *Carrier) attach(e, s int32) {
	en, set := &c.Ents[e], &c.sets[s]
	en.Set, en.pos = s, int32(len(set.members))
	set.members = append(set.members, e)
	if en.n > 1 {
		set.multi = append(set.multi, e)
	}
}

// unlink takes entry e off its token's chain.
func (c *Carrier) unlink(e int32) {
	at := &c.head[c.Ents[e].Tok]
	for *at != e {
		at = &c.Ents[*at].next
	}
	*at = c.Ents[e].next
}

// Park takes set s out of the walk and frees it, and returns its
// entries by token, kept as they are for reading: Find meets them no more.
func (c *Carrier) Park(s int32) []int32 {
	lo := len(c.parked)
	c.parked = c.release(s, c.parked)
	slices.SortFunc(c.parked[lo:], func(x, y int32) int { return cmp.Compare(c.Ents[x].Tok, c.Ents[y].Tok) })
	return c.parked[lo:len(c.parked):len(c.parked)]
}

// drain frees set s and the entries it holds.
func (c *Carrier) drain(s int32) { c.freeEnts = c.release(s, c.freeEnts) }

// release frees set s, and appends to list the entries it holds, taken
// off their tokens' chains.
func (c *Carrier) release(s int32, list []int32) []int32 {
	for _, e := range c.sets[s].members {
		if c.Ents[e].Set != s {
			continue // moved on by unite
		}
		c.unlink(e)
		c.Ents[e].Set = -1
		list = append(list, e)
	}
	c.sets[s].members, c.sets[s].multi = c.sets[s].members[:0], c.sets[s].multi[:0]
	c.free = append(c.free, s)
	return list
}
