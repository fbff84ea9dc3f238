package machine

import (
	"math/bits"
	"slices"
	"strings"

	"ctdf/internal/token"
)

// This file holds the hot-path data structures of the simulator — the
// fast implementations of the two ETS mechanisms of paper §2.2, tag
// matching in the waiting-matching store and enabled-instruction issue:
//
//   - tagTable interns tag keys (the iteration/activation contexts of
//     §2.2/§3) to dense int32 ids so the matching store hashes integers
//     instead of strings on every delivery;
//   - readyQueue is the insertion-ordered, per-node-bucketed ready queue
//     that replaced the per-cycle sort.Slice over the whole enabled list:
//     the deterministic issue order (node id, then tag key, then port) is
//     exactly the old globally sorted order, but only buckets that
//     received new work since they were last drained are ever sorted,
//     and each bucket is sorted alone — O(Σ bᵢ log bᵢ) over small
//     buckets instead of O(E log E) over the whole enabled set per
//     cycle;
//   - the operand arena with its per-arity free lists of frame offsets,
//     and the free list of overflow match entries, so steady-state
//     cycles recycle instead of allocating (see PERFORMANCE.md).

// rootTagID is the interned id of token.Root; every tagTable assigns it
// first.
const rootTagID int32 = 0

// tagTable interns tag keys. Id 0 is always the root tag. Tokens and
// firings carry only the dense id — plain old data, so the scheduler's
// copies trigger no GC write barriers — and the table maps ids back to
// the full Tag for the rare operators that do tag arithmetic.
type tagTable struct {
	ids  map[string]int32
	keys []string
	tags []token.Tag
	// arith caches tag arithmetic by id: a loop entry fires once per loop
	// variable per iteration with the same tag, so Push/Bump/Pop results
	// repeat; arith[id][op] holds the result's id plus one (0 = not yet
	// computed), replacing per-firing tag-string construction with one
	// indexed load.
	arith [][3]int32
}

// The tag-arithmetic operations step caches.
const (
	tagPush = iota
	tagBump
	tagPop
)

func newTagTable() *tagTable {
	return &tagTable{
		ids:   map[string]int32{"": rootTagID},
		keys:  []string{""},
		tags:  []token.Tag{token.Root},
		arith: make([][3]int32, 1),
	}
}

// intern returns the dense id of tg's key, assigning one on first sight.
func (t *tagTable) intern(tg token.Tag) int32 {
	k := tg.Key()
	if id, ok := t.ids[k]; ok {
		return id
	}
	id := int32(len(t.keys))
	t.ids[k] = id
	t.keys = append(t.keys, k)
	t.tags = append(t.tags, tg)
	t.arith = append(t.arith, [3]int32{})
	return id
}

// tag returns the full Tag behind an interned id.
func (t *tagTable) tag(id int32) token.Tag { return t.tags[id] }

// key returns the canonical key string behind an interned id.
func (t *tagTable) key(id int32) string { return t.keys[id] }

// step returns the interned id of tag(id) pushed, bumped or popped.
func (t *tagTable) step(id int32, op int) (int32, error) {
	if nid := t.arith[id][op]; nid != 0 {
		return nid - 1, nil
	}
	var nt token.Tag
	var err error
	switch op {
	case tagPush:
		nt = t.tags[id].Push()
	case tagBump:
		nt, err = t.tags[id].Bump()
	default:
		nt, err = t.tags[id].Pop()
	}
	if err != nil {
		return 0, err
	}
	nid := t.intern(nt)
	t.arith[id][op] = nid + 1
	return nid, nil
}

// pushID returns the interned id of tag(id).Push(), which cannot fail.
func (t *tagTable) pushID(id int32) int32 {
	nid, _ := t.step(id, tagPush)
	return nid
}

// bucket holds the pending firings of one node. items[head:] are
// pending; consumed entries are not shifted, only head advances, and the
// slice is reset when it drains.
type bucket struct {
	items []firing
	head  int32
	// dirty marks that items arrived since the pending range was last
	// sorted.
	dirty bool
	// first is items' initial backing: the common case of one pending
	// firing per node stays on the bucket's own cache line (the struct is
	// 64 bytes), and only buckets that ever hold more reallocate.
	first [1]firing
	_     [8]byte
}

// pending returns the bucket's firings not yet issued.
func (b *bucket) pending() []firing { return b.items[b.head:] }

// readyQueue is the bucketed ready queue: one bucket per node, plus the
// set of node ids with pending work as a two-level bitmap — bit n of
// words for node n, bit w of sum for every nonzero word w — so marking a
// node active is two ORs and walking the active nodes in ascending id
// skips empty stretches 4096 nodes at a time. Invariant: a node's bit is
// set iff its bucket has pending firings.
// A node has one owner, so every shard's queue indexes the machine's one
// bucket table and owns only the bitmaps and count of its own nodes.
type readyQueue struct {
	buckets []bucket
	words   []uint64
	sum     []uint64
	count   int
	// tt resolves interned tag ids to key strings for bucket ordering.
	tt *tagTable
}

// newBuckets allocates the bucket table.
func newBuckets(nodes int) []bucket {
	buckets := make([]bucket, nodes)
	for i := range buckets {
		buckets[i].items = buckets[i].first[:0]
	}
	return buckets
}

// push enqueues one enabled firing, writing its record in place at the
// bucket's tail.
func (q *readyQueue) push(node, tgID, port, vals, n int32) {
	b := &q.buckets[node]
	if len(b.items) == 0 {
		q.words[node>>6] |= 1 << uint(node&63)
		q.sum[node>>12] |= 1 << uint(node>>6&63)
	} else {
		b.dirty = true
	}
	q.count++
	if k := len(b.items); k < cap(b.items) {
		b.items = b.items[:k+1]
	} else {
		b.items = append(b.items, firing{})
	}
	f := &b.items[len(b.items)-1]
	f.node, f.tgID, f.port, f.vals, f.n = node, tgID, port, vals, n
}

// next returns the lowest active node id >= from, or -1.
func (q *readyQueue) next(from int) int {
	w := from >> 6
	if w >= len(q.words) {
		return -1
	}
	if m := q.words[w] >> uint(from&63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	w++
	for s := w >> 6; s < len(q.sum); s++ {
		m := q.sum[s]
		if s == w>>6 {
			m &= ^uint64(0) << uint(w&63)
		}
		if m != 0 {
			w = s<<6 + bits.TrailingZeros64(m)
			return w<<6 + bits.TrailingZeros64(q.words[w])
		}
	}
	return -1
}

// take dequeues up to max pending firings of an active node in
// deterministic issue order — tag key, then port; walking the active
// nodes in ascending id therefore yields the same total order the
// retired global sort produced. A bucket cut short keeps its remainder
// (still sorted) for the next cycle; one that drains leaves the active
// set. The returned run aliases the bucket's storage: it is valid until
// the next push for the node, which is past the cycle's issue
// because emissions are buffered to the cycle boundary.
func (q *readyQueue) take(node, max int) []firing {
	b := &q.buckets[node]
	run := b.pending()
	if b.dirty {
		sortFirings(run, q.tt)
		b.dirty = false
	}
	if len(run) > max {
		run = run[:max]
		b.head += int32(max)
	} else {
		b.items, b.head = b.items[:0], 0
		if q.words[node>>6] &^= 1 << uint(node&63); q.words[node>>6] == 0 {
			q.sum[node>>12] &^= 1 << uint(node>>6&63)
		}
	}
	q.count -= len(run)
	return run
}

// fill moves every pending firing to dst in deterministic issue order.
func (q *readyQueue) fill(dst []firing) []firing {
	for node := q.next(0); node >= 0; node = q.next(node + 1) {
		dst = append(dst, q.take(node, q.count)...)
	}
	return dst
}

// requeue puts back a firing that fill materialised but the cycle did
// not issue (seeded-random mode).
func (q *readyQueue) requeue(f firing) { q.push(f.node, f.tgID, f.port, f.vals, f.n) }

// sortFirings orders one bucket's pending range by (tag key, port); the
// node is constant within a bucket.
func sortFirings(fs []firing, tt *tagTable) {
	if len(fs) < 2 {
		return
	}
	slices.SortFunc(fs, func(a, b firing) int {
		if a.tgID != b.tgID { // distinct ids intern distinct keys
			return strings.Compare(tt.keys[a.tgID], tt.keys[b.tgID])
		}
		return int(a.port) - int(b.port)
	})
}

// --- matching-store shards --------------------------------------------

// shardSlot is one node's shard of the matching store. The common case —
// at most one pending tag per node at a time — lives in the inline entry
// (free while e.n == 0), on the cache line the lookup already fetched;
// nodes with tag-parallel activations (overlapping loop iterations)
// spill to the overflow map, allocated only then.
type shardSlot struct {
	e    matchEntry
	more map[int32]*matchEntry
}

// matchLookup finds the pending entry for (node, tgID), or nil.
func (m *sim) matchLookup(node, tgID int32) *matchEntry {
	s := &m.shards[node]
	if s.e.n != 0 && s.e.tgID == tgID {
		return &s.e
	}
	if s.more == nil {
		return nil
	}
	return s.more[tgID]
}

// matchInsert opens a pending entry for (node, tgID) with an n-slot
// operand frame from the owning shard's arena. The caller counts the
// first operand in before anything else looks, and the entry in matchLive.
func (m *sim) matchInsert(sh *shardState, node, tgID, n int32) *matchEntry {
	s := &m.shards[node]
	e := &s.e
	if e.n != 0 {
		if k := len(sh.entryFree); k > 0 {
			e, sh.entryFree = sh.entryFree[k-1], sh.entryFree[:k-1]
		} else {
			e = new(matchEntry)
		}
		if s.more == nil {
			s.more = map[int32]*matchEntry{}
		}
		s.more[tgID] = e
	}
	*e = matchEntry{vals: sh.getVals(n), tgID: tgID}
	return e
}

// matchDelete removes node's completed entry e; its operand frame (and
// with it the producer list) has moved onto the firing that consumed the
// match.
func (m *sim) matchDelete(sh *shardState, node int32, e *matchEntry) {
	if s := &m.shards[node]; e == &s.e {
		e.n = 0
	} else {
		delete(s.more, e.tgID)
		sh.entryFree = append(sh.entryFree, e)
	}
}

// --- free lists and arenas --------------------------------------------

// Free lists recycle steady-state churn; the operand arena amortizes the
// warmup growth (Go allocations) that remains. They live on the
// shardState, so every shard recycles its own; with one worker shard 0's
// lists serve every node.

// getVals returns the offset of an n-slot operand frame in the shard's
// arena. Frames are not zeroed: every port is overwritten before it is
// read (an activation fires only once all its operands arrived).
func (sh *shardState) getVals(n int32) int32 {
	if fl := sh.valsFree[n]; len(fl) > 0 {
		sh.valsFree[n] = fl[:len(fl)-1]
		return fl[len(fl)-1]
	}
	off := len(sh.arena)
	sh.arena = append(sh.arena, make([]int64, n)...)
	if sh.deps != nil {
		sh.deps = append(sh.deps, make([][]int32, n)...)
	}
	return int32(off)
}

// putVals recycles a fired activation's operand frame.
func (sh *shardState) putVals(off, n int32) { sh.valsFree[n] = append(sh.valsFree[n], off) }

// frame returns a firing's operands. The slice is valid until the arena
// next grows — past the cycle's issue, since frames are carved at
// delivery.
func (sh *shardState) frame(f *firing) []int64 { return sh.arena[f.vals : f.vals+f.n] }
