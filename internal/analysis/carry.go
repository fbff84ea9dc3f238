package analysis

import (
	"cmp"
	"fmt"
	"slices"
)

// Carrier carries tokens from row to row of a walk of Figure 11 by
// reference, for the source-vector walk and the graph builder's alike: a
// set holds an entry per token on its way, and an entry lies in one set.
// A token has an entry in every set carrying it, chained from head[t]
// through next. Several sets sent to one row are united, the smaller into
// the larger, and a token in both gets the union of its inputs. What a
// node does to the tokens it takes is the walk's own.
type Carrier struct {
	Ents   []Entry
	united int // the entries moved by uniting sets

	at             []int32 // per row, the set arriving there, or -1
	pool           []Input // the inputs of the entries with several
	head           []int32
	sets           []tokenSet
	free, freeEnts []int32 // drained sets and entries
	parked         []int32 // the entries of parked sets
	route          *Route
	cur            int32 // the position visited
	err            error // the first send to a port the order has passed
}

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

// Walk visits the route's order once, with an empty carrier for tokens
// tokens: visit takes the set arriving on node id's row (Arrive) and sends
// sets on (Send), and back takes the set arrived on a back row once the
// last node sending to it is visited. It returns the first error visit or
// a send met.
func (c *Carrier) Walk(r *Route, tokens int, visit func(id int) error, back func(row int)) error {
	none := make([]int32, tokens+len(r.Pos)+len(r.Last))
	for i := range none {
		none[i] = -1
	}
	c.head, c.at, c.Ents, c.route = none[:tokens], none[tokens:], make([]Entry, 0, tokens), r
	for i, id := range r.Order {
		c.cur = int32(i)
		if err := visit(id); err != nil {
			return err
		}
		for _, row := range [...]int32{r.Next[id], r.Alt[id], r.Past[id]} {
			if k := int(row) - len(r.Pos); k >= 0 && r.Last[k] == c.cur && c.at[row] >= 0 {
				back(int(row))
			}
		}
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// Inputs returns the inputs of entry e.
func (c *Carrier) Inputs(e int32) []Input {
	if en := &c.Ents[e]; en.n > 1 {
		return c.pool[en.off : en.off+en.n]
	}
	return c.Ents[e].in[:]
}

// Multi returns the entries of set s that may have several inputs.
func (c *Carrier) Multi(s int32) []int32 { return c.sets[s].multi }

// Arrive takes the set arriving on row, an empty one if none does.
func (c *Carrier) Arrive(row int) int32 {
	s := c.at[row]
	if s < 0 {
		s = c.NewSet()
	}
	c.at[row] = -1
	return s
}

// Send has set s arrive on row, united with the set already there,
// unless the order has passed row.
func (c *Carrier) Send(s, row int32) {
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
		c.united++
		f := c.Find(a, c.Ents[e].Tok)
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

// NewSet returns an empty set.
func (c *Carrier) NewSet() int32 {
	if k := len(c.free) - 1; k >= 0 {
		s := c.free[k]
		c.free = c.free[:k]
		return s
	}
	c.sets = append(c.sets, tokenSet{})
	return int32(len(c.sets) - 1)
}

// Find returns token t's entry in set s, or -1.
func (c *Carrier) Find(s, t int32) int32 {
	e := c.head[t]
	for e >= 0 && c.Ents[e].Set != s {
		e = c.Ents[e].next
	}
	return e
}

// Add puts a new entry for token t, arriving by in, in set s.
func (c *Carrier) Add(s, t int32, in Input) {
	e := int32(len(c.Ents))
	if k := len(c.freeEnts) - 1; k >= 0 {
		e, c.freeEnts = c.freeEnts[k], c.freeEnts[:k]
	} else {
		c.Ents = append(c.Ents, Entry{})
	}
	c.Ents[e] = Entry{Tok: t, next: c.head[t], n: 1, in: [1]Input{in}}
	c.head[t] = e
	c.attach(e, s)
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
