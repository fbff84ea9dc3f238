package analysis

import (
	"slices"

	"ctdf/internal/cfg"
)

// The analyses run on dense token ids: names are interned once per call,
// every node's need is evaluated exactly once, and token sets are rows of
// compressed sparse rows indexed by CFG node (or by token, transposed), so
// they take the room of the sets themselves, never nodes × tokens. The
// string-keyed results the callers see are filled from the rows at the
// end.

// tokenIDs interns access-token names; a token's id is its position in
// names.
type tokenIDs struct {
	names   []string
	id      map[string]int32
	interns int // names looked up
}

func newTokenIDs(names []string) *tokenIDs {
	t := &tokenIDs{id: make(map[string]int32, len(names))}
	for _, name := range names {
		t.intern(name)
	}
	return t
}

func (t *tokenIDs) intern(name string) int32 {
	t.interns++
	id, ok := t.id[name]
	if !ok {
		id = int32(len(t.names))
		t.id[name] = id
		t.names = append(t.names, name)
	}
	return id
}

// nameSet decodes a row of ids into the set of token names.
func (t *tokenIDs) nameSet(row []int32) map[string]bool {
	out := make(map[string]bool, len(row))
	for _, id := range row {
		out[t.names[id]] = true
	}
	return out
}

// idSets is a set of ids per row in compressed sparse rows: row i's ids
// are ids[off[i]:off[i+1]], ascending.
type idSets struct {
	off []int32
	ids []int32
}

func (s idSets) row(i int) []int32 { return s.ids[s.off[i]:s.off[i+1]] }

// endRow closes the row being appended to s.ids: sorts it, drops its
// duplicates and records where it ends.
func (s *idSets) endRow(i int) {
	row := s.ids[s.off[i]:]
	for k := 1; k < len(row); k++ {
		if row[k-1] >= row[k] { // seldom: need lists come sorted
			slices.Sort(row)
			s.ids = s.ids[:int(s.off[i])+len(slices.Compact(row))]
			break
		}
	}
	s.off[i+1] = int32(len(s.ids))
}

// transpose returns the sets by id: row id lists the rows holding it,
// ascending.
func (s idSets) transpose(cols int) idSets {
	t := idSets{off: make([]int32, cols+1), ids: make([]int32, len(s.ids))}
	for _, id := range s.ids {
		t.off[id+1]++
	}
	for c := range cols {
		t.off[c+1] += t.off[c]
	}
	at := slices.Clone(t.off[:cols])
	for i := range len(s.off) - 1 {
		for _, id := range s.row(i) {
			t.ids[at[id]] = int32(i)
			at[id]++
		}
	}
	return t
}

// tokenRows evaluates need once for every node of g and interns every
// token of needs and of placement's forks into toks, then returns, per
// node, the tokens the node needs and the tokens switched at it.
func tokenRows(g *cfg.Graph, toks *tokenIDs, need NeedFunc, p *Placement) (needs, switched idSets) {
	n := g.Len()
	needs = idSets{off: make([]int32, n+1), ids: make([]int32, 0, 4*n)}
	for id := range n {
		for _, tok := range need(id) {
			needs.ids = append(needs.ids, toks.intern(tok))
		}
		needs.endRow(id)
	}
	switched = idSets{off: make([]int32, n+1)}
	var forks []int // p's forks from 0 up, sorted
	if p != nil {
		for f := range p.Needs {
			if f >= 0 {
				forks = append(forks, f)
			}
		}
		slices.Sort(forks)
	}
	for id := range n {
		if len(forks) > 0 && forks[0] == id {
			for tok := range p.Needs[id] {
				switched.ids = append(switched.ids, toks.intern(tok))
			}
			forks = forks[1:]
		}
		switched.endRow(id)
	}
	return needs, switched
}
