package analysis

import (
	"slices"
)

// The analyses run on dense token ids: a token's id is its position in
// the unit's sorted universe, fixed once by the caller that numbers the
// need (the translator's makeNeed, or the name-based entry points of
// names.go). Every node's need is read exactly once, and token sets are
// rows of compressed sparse rows indexed by CFG node (or by token,
// transposed), so they take the room of the sets themselves, never
// nodes × tokens. A name comes back only where text is made.

// Rows is a set of token ids per row in compressed sparse rows: row i's
// ids are ids[off[i]:off[i+1]], ascending.
type Rows struct {
	off []int32
	ids []int32
}

// NewRows returns n rows to fill in order, Add then EndRow, with room
// for ids ids in all.
func NewRows(n, ids int) Rows {
	return Rows{off: make([]int32, n+1), ids: make([]int32, 0, ids)}
}

// Row returns row i's ids, ascending.
func (s Rows) Row(i int) []int32 { return s.ids[s.off[i]:s.off[i+1]:s.off[i+1]] }

// Entries counts the ids of every row.
func (s Rows) Entries() int { return len(s.ids) }

// Add appends ids to the row being filled.
func (s *Rows) Add(ids ...int32) { s.ids = append(s.ids, ids...) }

// EndRow closes row i, the one being filled: sorts it, drops its
// duplicates and records where it ends.
func (s *Rows) EndRow(i int) {
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
func (s Rows) transpose(cols int) Rows {
	rows := make([]int32, len(s.ids)) // the row of each id
	for i := range len(s.off) - 1 {
		for k := s.off[i]; k < s.off[i+1]; k++ {
			rows[k] = int32(i)
		}
	}
	return byNode(cols, s.ids, rows)
}
