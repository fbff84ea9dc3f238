package analysis

import (
	"math/bits"

	"ctdf/internal/cfg"
)

// The analyses run on dense token ids: names are interned once per call,
// every node's need is evaluated exactly once, and token sets are rows of
// a flat bit matrix indexed by (CFG node, token id). The string-keyed
// results the callers see are filled from the rows at the end.

// tokenIDs interns access-token names; a token's id is its position in
// names.
type tokenIDs struct {
	names []string
	id    map[string]int32
}

func newTokenIDs(names []string) *tokenIDs {
	t := &tokenIDs{id: make(map[string]int32, len(names))}
	for _, name := range names {
		t.intern(name)
	}
	return t
}

func (t *tokenIDs) intern(name string) int32 {
	id, ok := t.id[name]
	if !ok {
		id = int32(len(t.names))
		t.id[name] = id
		t.names = append(t.names, name)
	}
	return id
}

// bitRows is a matrix of bits, w words to the row.
type bitRows struct {
	w    int
	bits []uint64
}

func newBitRows(rows, cols int) bitRows {
	w := (cols + 63) / 64
	return bitRows{w: w, bits: make([]uint64, rows*w)}
}

func (b bitRows) row(i int) []uint64 { return b.bits[i*b.w : (i+1)*b.w] }

func has(row []uint64, t int) bool { return row[t>>6]&(1<<(t&63)) != 0 }
func set(row []uint64, t int32)    { row[t>>6] |= 1 << (t & 63) }
func union(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// nameSet decodes a row into the set of token names.
func (t *tokenIDs) nameSet(row []uint64) map[string]bool {
	out := map[string]bool{}
	for i, w := range row {
		for ; w != 0; w &= w - 1 {
			out[t.names[i<<6+bits.TrailingZeros64(w)]] = true
		}
	}
	return out
}

// tokenRows evaluates need once for every node of g and interns every
// token of needs and placement into toks, then returns, per node, the row
// of tokens the node needs and the row of tokens switched at it.
func tokenRows(g *cfg.Graph, toks *tokenIDs, need NeedFunc, p *Placement) (needs, switched bitRows) {
	n := g.Len()
	ids := make([]int32, 0, 4*n) // node i needs ids[off[i]:off[i+1]]
	off := make([]int32, n+1)
	for id := 0; id < n; id++ {
		for _, tok := range need(id) {
			ids = append(ids, toks.intern(tok))
		}
		off[id+1] = int32(len(ids))
	}
	var forks []int32 // (fork, token id) pairs of p
	if p != nil {
		for f, set := range p.Needs {
			for tok := range set {
				forks = append(forks, int32(f), toks.intern(tok))
			}
		}
	}
	needs, switched = newBitRows(n, len(toks.names)), newBitRows(n, len(toks.names))
	for id := 0; id < n; id++ {
		row := needs.row(id)
		for _, t := range ids[off[id]:off[id+1]] {
			set(row, t)
		}
	}
	for i := 0; i < len(forks); i += 2 {
		if f := int(forks[i]); f >= 0 && f < n {
			set(switched.row(f), forks[i+1])
		}
	}
	return needs, switched
}
