package machine

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/obs/telemetry"
)

// The partitioned machine (Config.Workers > 1): the Monsoon multi-PE
// story of paper §2.2, where each processing element owns a slice of the
// explicit token store and tokens travel to the PE that owns their
// destination instruction. Nodes are partitioned across W shared-nothing
// shards by a hash of the node id; each shard owns its nodes' ready
// buckets, matching-store slots, operand frames and free lists.
//
// The cycle loop (run, machine.go) has two bodies over that state: the
// sequential one (seqCycle), the default at every worker count, and the
// pooled one here (pooledCycle), for cycles whose ready count reaches
// poolGrain, where host workers drive the shards without contending on
// scheduler state. A pooled cycle runs as four phases (bulk-synchronous,
// like the cycle it simulates):
//
//  1. select (sequential): merge the shards' active lists into the
//     global deterministic issue order and assign each planned firing
//     its global issue index gi — exactly its position in the
//     sequential body's issue order. Loop-tag arithmetic for the planned
//     firings is resolved here, so phase 2 only reads the tag table.
//  2. fire (parallel): every shard evaluates its planned firings. Pure
//     operators (the kernel's state-free kinds, see interp.Step; loop
//     operators only when phase 1 cached their tag rewrite) evaluate
//     immediately and route their output tokens into
//     per-destination-shard outboxes; everything impure (memory, fused
//     trees, procedure linkage, end, uncached tag arithmetic) is
//     deferred. Tokens are stamped with a sequence key ordered by
//     (gi, emission index) — the exact order the sequential body would
//     have appended them to its emission buffer.
//  3. retire (sequential): the deferred impure firings and the pure
//     firings' observation events are merged back into ascending gi
//     order and replayed: collector Fire events, journal records,
//     statistics, and error aborts all happen here, in sequential issue
//     order, so the firing DAG and journal come out byte-identical.
//     Impure firings execute their side effects now — they are the only
//     code that touches the store, tag table, I-structures, or
//     activation linkage, and they run in exactly the sequential order.
//  4. deliver (parallel) + merge (sequential): each shard drains the
//     inboxes addressed to it in ascending sequence-key order — the
//     sequential delivery order — landing tokens in its matching-store
//     slots and ready buckets. Matching-store waits are recorded as
//     per-shard (seq, delta) events; the merge replays them in seq
//     order to reproduce Matches, PeakMatchStore, and collector Wait
//     events byte-exactly, and picks the earliest error in sequential
//     order if any shard aborted.
//
// Why this is byte-exact at any worker count: in the sequential body,
// tokens produced in cycle C are only delivered at the C→C+1 boundary,
// so within a cycle the only cross-firing effects are through impure
// state — which phase 3 runs in exact sequential order. Pure firings
// commute; their results depend only on their operands. The firing DAG
// ids are precomputable (Fire assigns dense call indices, so the gi-th
// firing of the cycle gets id dagBase+gi), which lets phase 2 stamp
// tokens with their producer's id before Fire is actually called in
// phase 3. See SCALING.md for the full argument and the memory-ordering
// discussion.

// maxShards caps Config.Workers; past a few hundred shards the
// per-shard queues cost more than any machine can win back, and a shard
// id fits op.shard's byte.
const maxShards = 256

// poolGrain is the ready count from which a cycle runs the pooled body:
// the smallest firings-per-cycle width at which BenchmarkShardedWide has
// the pooled body ahead of the sequential one with two workers. No width
// of the committed sweep (139 to 8,789, see SCALING.md) is, so there is
// none and no run's cycle takes the pooled body; a variable only for the
// tests and the sweep, which lower it.
var poolGrain = math.MaxInt

// shardHash maps a node id to its owning shard (Fibonacci hashing —
// consecutive ids, the common layout of a translated program, spread
// evenly).
func shardHash(id int) uint32 {
	return uint32(id) * 2654435761
}

// shardSeed derives the per-shard RNG stream for seeded-random issue
// mode: a splitmix64 mix of (seed, shard), so every (seed, shard) pair
// is an independent deterministic stream and W=1 vs W=8 runs explore
// schedules from the same seed without sharing one RNG.
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(shard+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// planEntry is one selection decision: fire take pending activations of
// node this cycle, the first carrying global issue index base.
type planEntry struct {
	node int
	take int
	base int
}

// routedTok is a token en route to the shard owning its destination,
// keyed by its position in the sequential delivery order of the cycle.
type routedTok struct {
	t   tok
	seq int64
}

// waitEvent is one matching-store population change, recorded by the
// parallel delivery phase and replayed in seq order by the cycle merge:
// delta +1 = token created a frame entry and waits, 0 = token joined an
// existing entry and waits, -1 = token completed an activation. The
// node/port/dep/tgID fields feed the collector Wait event for the two
// waiting cases.
type waitEvent struct {
	seq   int64
	node  int32
	port  int32
	dep   int32
	tgID  int32
	delta int8
}

// fireEvent defers a pure firing's observation (collector Fire/Emitted,
// journal record) to the sequential retire pass.
type fireEvent struct {
	gi       int
	node     int32
	port     int32
	consumed int32
	emitted  int32
	inDep    int32
	tgID     int32
	deps     []int32
}

// impureFiring defers a non-pure firing to the sequential retire pass.
type impureFiring struct {
	gi int
	f  firing
}

// shardState is one shard's private scheduler state: shard s owns the
// nodes with shardHash(id) % W == s, and in a pooled cycle one host
// worker drives it through the parallel phases.
type shardState struct {
	id    int
	ready readyQueue

	// Free lists and arenas (queue.go) — strictly shard-private. arena
	// holds the operand frames of this shard's activations, valsFree the
	// offsets of recycled frames by arity, and deps (journaling only,
	// else nil) the producer firings of the activation whose frame
	// starts at each offset.
	entryFree []*matchEntry
	arena     []int64
	valsFree  [][]int32
	deps      [][]int32

	// rng is the shard's seeded-random issue stream (nil outside
	// seeded-random mode), deterministic by (seed, shard id).
	rng *rand.Rand
	// shufLog records the stream's shuffle-length history while
	// checkpointing, so a checkpoint can fast-forward a fresh stream to
	// this one's exact state (see checkpoint.go).
	shufLog []int

	// A seeded-random cycle's shuffled batch and the shard's share of it
	// (selectCycleRandom), on either body; then per-cycle scratch of the
	// pooled body's phases (outbox and heads built by startPool).
	batchBuf  []firing
	randTake  int
	randBase  int
	plan      []planEntry
	outbox    [][]routedTok // fire phase → per-destination-shard tokens
	fireEvs   []fireEvent   // fire phase → deferred pure observations
	impure    []impureFiring
	waits     []waitEvent
	heads     []int // delivery-phase k-way merge cursors
	delivered int64

	// First error per phase, in sequential order (min gi / min seq);
	// the retire pass and cycle merge pick the global minimum.
	fireErr     error
	fireErrGi   int
	delivErr    error
	delivErrSeq int64

	// Telemetry scratch, written as plain fields by the owning worker
	// during the parallel phases and folded into the registry by the
	// sequential cycle merge (the phase barrier orders the accesses):
	// busy nanoseconds in fire/deliver and pure firings executed.
	telFireNs    int64
	telDelivNs   int64
	telPureFired int64
}

// initShards builds the per-shard states over one bucket table and the
// node→shard map.
func (m *sim) initShards(w int) {
	m.shs = make([]*shardState, w)
	buckets := newBuckets(len(m.p.ops))
	words := len(buckets)>>6 + 1
	for i := range m.shs {
		sh := &shardState{id: i, valsFree: make([][]int32, m.p.maxIns+1)}
		sh.ready = readyQueue{buckets: buckets, tt: m.tags, words: make([]uint64, words), sum: make([]uint64, words>>6+1)}
		if m.jour {
			sh.deps = [][]int32{}
		}
		m.shs[i] = sh
	}
	if w > 1 { // one shard owns row after row of zeros already
		for id := range m.p.ops {
			m.p.ops[id].shard = uint8(shardHash(id) % uint32(w))
		}
	}
}

// startPool builds what only the pooled body uses, at the first cycle
// that reaches the grain; most runs never spawn a goroutine.
func (m *sim) startPool() {
	w := len(m.shs)
	for _, sh := range m.shs {
		sh.outbox = make([][]routedTok, w)
		sh.heads = make([]int, w+2)
	}
	m.seqBox, m.relBox = make([][]routedTok, w), make([][]routedTok, w)
	m.cur, m.imCur = make([]int, w), make([]int, w)
	// fanStride spaces the sequence keys of consecutive firings so that
	// (gi, emission index) order-embeds into one int64: seq =
	// (gi+1)*fanStride + k, with k < fanStride: a firing emits on one
	// node's arcs (its own; a procedure return on its Apply's), once each.
	m.fanStride = int64(m.g.MaxFanOut()) + 1
	// The two parallel phases' per-shard bodies, bound once per run (a
	// method value allocates; the phases run twice a cycle). With
	// telemetry on, per-shard busy time accumulates in plain shard-local
	// scratch; the cycle merge folds it into the registry in shard order.
	m.fireFn, m.delivFn = m.fireShard, m.deliverShard
	if m.tel != nil {
		m.barFire, m.barDeliv = m.tel.barFire, m.tel.barDeliv
		m.fireFn = func(sh *shardState) {
			t0 := time.Now()
			m.fireShard(sh)
			sh.telFireNs += time.Since(t0).Nanoseconds()
		}
		m.delivFn = func(sh *shardState) {
			t0 := time.Now()
			m.deliverShard(sh)
			sh.telDelivNs += time.Since(t0).Nanoseconds()
		}
	}
	m.pool = newShardPool(m.shs)
}

// --- worker pool ------------------------------------------------------

// shardPool drives the parallel phases: min(GOMAXPROCS, W) goroutines,
// each owning a fixed subset of shards (static round-robin, so which
// goroutine runs a shard never affects anything — determinism depends
// only on the shard count). The calling goroutine is one of them and
// executes the first shard slice itself, so the goroutine count equals
// the host-core budget instead of exceeding it by one perpetually-parking
// coordinator — profiling shows the oversubscribed variant doubles the
// futex traffic of the phase barrier, which runs twice per pooled cycle.
// By the time the caller finishes its own share the helpers usually have
// too, making Wait a no-futex fast path. (A fully spinning barrier was
// tried and measured slower here: helpers burning a core through the
// sequential select/retire/merge stretches starve the coordinator.)
type shardPool struct {
	chans []chan func(*shardState)
	// mine is the shard subset the calling goroutine executes inline.
	mine []*shardState
	wg   sync.WaitGroup
}

func newShardPool(shs []*shardState) *shardPool {
	gor := runtime.GOMAXPROCS(0)
	if gor > len(shs) {
		gor = len(shs)
	}
	p := &shardPool{chans: make([]chan func(*shardState), gor-1)}
	for i := 0; i < len(shs); i += gor {
		p.mine = append(p.mine, shs[i])
	}
	for w := range p.chans {
		ch := make(chan func(*shardState), 1)
		p.chans[w] = ch
		var mine []*shardState
		for i := w + 1; i < len(shs); i += gor {
			mine = append(mine, shs[i])
		}
		go func(mine []*shardState) {
			for fn := range ch {
				for _, sh := range mine {
					fn(sh)
				}
				p.wg.Done()
			}
		}(mine)
	}
	return p
}

// run executes fn once per shard and waits for all of them (the phase
// barrier). The caller's goroutine processes the first shard slice; its
// barrier wait — the stretch between finishing that slice and the last
// helper's Done — is observed into bar when non-nil (telemetry's
// barrier_wait_seconds probe).
func (p *shardPool) run(fn func(*shardState), bar *telemetry.Series) {
	p.wg.Add(len(p.chans))
	for _, ch := range p.chans {
		ch <- fn
	}
	for _, sh := range p.mine {
		fn(sh)
	}
	if bar == nil {
		p.wg.Wait()
		return
	}
	t0 := time.Now()
	p.wg.Wait()
	observeSeconds(bar, time.Since(t0))
}

// stop ends the helper goroutines of a pool the run started, if it did.
func (p *shardPool) stop() {
	if p == nil {
		return
	}
	for _, ch := range p.chans {
		close(ch)
	}
}

// --- the pooled cycle --------------------------------------------------

// pooledCycle is the pooled cycle body — the same cycle as seqCycle, with
// the issue/retire/deliver work split into the phases described at the
// top of this file.
func (m *sim) pooledCycle(start time.Time, issue int) error {
	if m.pool == nil {
		m.startPool()
	}
	var telT0 time.Time
	if m.tel != nil {
		telT0 = time.Now()
	}
	m.selectCycle(issue)
	if m.tel != nil {
		observeSeconds(m.tel.selSec, time.Since(telT0))
	}
	if m.dag {
		m.dagBase = int32(m.col.FiringCount())
	}
	m.pool.run(m.fireFn, m.barFire)
	if m.tel != nil {
		telT0 = time.Now()
	}
	if err := m.retireCycle(start); err != nil {
		return err
	}
	if m.tel != nil {
		observeSeconds(m.tel.retSec, time.Since(telT0))
	}
	// Cycle boundary: count the issue, complete split-phase memory, land
	// the released tokens after this cycle's emissions (the sequential
	// delivery order).
	m.cycle++
	m.stats.Ops += issue
	return m.deliverPooled(m.takeDue())
}

// --- phase 1: select --------------------------------------------------

// selectCycle merges the shards' active lists into the global
// deterministic issue order (ascending node id — node→shard ownership
// is a partition, so the lists are disjoint and the merge never ties)
// and plans the cycle's issue firings, assigning global issue indices.
// Loop-tag arithmetic for the planned buckets is resolved here, caching
// the results so the parallel fire phase only reads the tag table.
func (m *sim) selectCycle(issue int) {
	if m.rng != nil {
		m.selectCycleRandom(issue)
		return
	}
	// cur[s] is shard s's lowest active node not yet planned (-1: none).
	cur := m.cur
	for s, sh := range m.shs {
		sh.plan = sh.plan[:0]
		cur[s] = sh.ready.next(0)
	}
	for base := 0; base < issue; {
		best := -1
		for s := range m.shs {
			if cur[s] >= 0 && (best < 0 || cur[s] < cur[best]) {
				best = s
			}
		}
		sh, node := m.shs[best], cur[best]
		pending := sh.ready.buckets[node].pending()
		take := min(len(pending), issue-base)
		m.warmLoopTags(node, pending)
		sh.plan = append(sh.plan, planEntry{node: node, take: take, base: base})
		base += take
		cur[best] = sh.ready.next(node + 1)
	}
}

// selectCycleRandom plans a seeded-random cycle, for either body: the
// cycle's issue firings are split round-robin across shards with pending
// work, each shard shuffles its own pending set with its stream
// (shuffled), and global issue indices are assigned shard-major.
// Deterministic for a fixed (seed, W); across worker counts the schedule
// differs but every observable final state agrees (dataflow determinacy —
// the property seeded-random mode exists to exercise).
func (m *sim) selectCycleRandom(issue int) {
	for _, sh := range m.shs {
		sh.randTake = 0
	}
	for rem := issue; rem > 0; {
		for _, sh := range m.shs {
			if rem > 0 && sh.randTake < sh.ready.count {
				sh.randTake++
				rem--
			}
		}
	}
	base := 0
	for _, sh := range m.shs {
		sh.randBase = base
		base += sh.randTake
	}
}

// warmLoopTags pre-resolves tag arithmetic for a planned loop bucket so
// the fire phase can read the results from the tag-table caches.
// Resolution errors are deliberately ignored: the affected firing's
// cache lookup will miss, deferring it to the sequential retire pass,
// which re-runs the arithmetic and reports the error at the firing's
// exact position in issue order.
func (m *sim) warmLoopTags(node int, pending []firing) {
	kind := dfg.Kind(m.p.ops[node].kind)
	if kind != dfg.LoopEntry && kind != dfg.LoopExit {
		return
	}
	for _, f := range pending {
		_, _ = m.tags.step(f.tgID, loopTagStep(kind, f.port))
	}
}

// --- phase 2: fire ----------------------------------------------------

// shuffled materialises sh's whole ready queue, in deterministic order,
// into sh.batchBuf and shuffles it with the shard's stream — with one
// worker the run's main stream, consuming the same randomness the old
// global sort+shuffle did — logging the draw for checkpoints.
func (m *sim) shuffled(sh *shardState) []firing {
	rng, log := sh.rng, &sh.shufLog
	if len(m.shs) == 1 {
		rng, log = m.rng, &m.shufLog
	}
	all := sh.ready.fill(sh.batchBuf[:0])
	sh.batchBuf = all
	rng.Shuffle(len(all), func(i, j int) {
		all[i], all[j] = all[j], all[i]
	})
	if m.cfg.CheckpointEvery > 0 {
		*log = append(*log, len(all))
	}
	return all
}

func (m *sim) fireShard(sh *shardState) {
	if m.rng != nil {
		all := m.shuffled(sh)
		for j := 0; j < sh.randTake; j++ {
			m.fireOneSharded(sh, &all[j], sh.randBase+j)
		}
		for _, f := range all[sh.randTake:] {
			sh.ready.requeue(f)
		}
		return
	}
	for _, pe := range sh.plan {
		run := sh.ready.take(pe.node, pe.take)
		for j := range run {
			m.fireOneSharded(sh, &run[j], pe.base+j)
		}
	}
}

// fireOneSharded evaluates one firing if it is pure — reading only its
// operands, the immutable graph, and the (phase-wise read-only) tag
// caches — routing its output tokens into the destination shards'
// inboxes. Impure firings, and pure ones that fault, defer to the
// sequential retire pass.
func (m *sim) fireOneSharded(sh *shardState, f *firing, gi int) {
	o := &m.p.ops[f.node]
	kind := dfg.Kind(o.kind)
	tg, pure := f.tgID, interp.StateFree(kind)
	if kind == dfg.LoopEntry || kind == dfg.LoopExit {
		tg, pure = m.tags.peek(f.tgID, loopTagStep(kind, f.port))
	}
	if !pure {
		sh.impure = append(sh.impure, impureFiring{gi: gi, f: *f})
		return
	}
	val, port, err := interp.Step(kind, lang.Op(o.code), o.val, sh.frame(f))
	if err != nil {
		sh.recordFireEvent(m, f, gi, 0)
		sh.recordFireErr(gi, m.opFault(f.node, err))
		return
	}
	var dep int32 = -1
	if m.dag {
		// The id Fire will assign this firing in the retire pass: ids are
		// dense call indices, and retire calls Fire once per firing in gi
		// order starting from dagBase.
		dep = m.dagBase + int32(gi)
	}
	targets := m.p.out(f.node, port)
	seqBase := int64(gi+1) * m.fanStride
	for k, t := range targets {
		dst := m.p.ops[t.node].shard
		sh.outbox[dst] = append(sh.outbox[dst], routedTok{
			t: tok{val: val, node: t.node, port: t.port, tgID: tg, dep: dep}, seq: seqBase + int64(k),
		})
	}
	sh.recordFireEvent(m, f, gi, len(targets))
	sh.putVals(f.vals, f.n)
	// Pure firings executed here feed the fire/retire split counter;
	// plain shard-local scratch, folded at the cycle merge.
	sh.telPureFired++
}

func (sh *shardState) recordFireEvent(m *sim, f *firing, gi, emitted int) {
	if m.col == nil {
		return
	}
	sh.fireEvs = append(sh.fireEvs, fireEvent{
		gi: gi, node: f.node, port: f.port, consumed: f.n,
		emitted: int32(emitted), inDep: f.dep, tgID: f.tgID, deps: sh.takeDeps(f.vals),
	})
}

// recordFireErr keeps the shard's earliest fire-phase error in issue
// order; the retire pass aborts at the global minimum, exactly where
// the sequential engine would have.
func (sh *shardState) recordFireErr(gi int, err error) {
	if sh.fireErr == nil || gi < sh.fireErrGi {
		sh.fireErr, sh.fireErrGi = err, gi
	}
}

// --- phase 3: retire --------------------------------------------------

// retireCycle replays the cycle's firings in ascending global issue
// order: pure firings replay their deferred observations (collector
// Fire/Emitted, journal), impure firings execute here — the only code
// that mutates shared simulator state, running on one goroutine in
// exactly the sequential order. Immediate emissions of impure firings
// are routed into the sequential-writer inbox lane with their (gi,
// emission index) sequence keys.
func (m *sim) retireCycle(start time.Time) error {
	var pureErr error
	pureErrGi := 0
	for _, sh := range m.shs {
		if sh.fireErr != nil && (pureErr == nil || sh.fireErrGi < pureErrGi) {
			pureErr, pureErrGi = sh.fireErr, sh.fireErrGi
		}
	}
	evCur, imCur := m.cur, m.imCur
	for s := range m.shs {
		evCur[s], imCur[s] = 0, 0
	}
	for {
		best, bestGi, bestIsEv := -1, 0, false
		for s, sh := range m.shs {
			if evCur[s] < len(sh.fireEvs) {
				if g := sh.fireEvs[evCur[s]].gi; best < 0 || g < bestGi {
					best, bestGi, bestIsEv = s, g, true
				}
			}
			if imCur[s] < len(sh.impure) {
				if g := sh.impure[imCur[s]].gi; best < 0 || g < bestGi {
					best, bestGi, bestIsEv = s, g, false
				}
			}
		}
		// A fire-phase error with no recorded observation (collector
		// disabled) aborts as soon as issue order reaches it.
		if pureErr != nil && (best < 0 || pureErrGi < bestGi) {
			return pureErr
		}
		if best < 0 {
			break
		}
		sh := m.shs[best]
		if bestIsEv {
			ev := &sh.fireEvs[evCur[best]]
			evCur[best]++
			m.col.Fire(int(ev.node), m.cycle, 1, int(ev.consumed), int(ev.port), ev.inDep, ev.deps, m.tags.key(ev.tgID))
			m.col.Emitted(int(ev.node), int(ev.emitted))
			if pureErr != nil && ev.gi == pureErrGi {
				return pureErr
			}
		} else {
			imf := &sh.impure[imCur[best]]
			imCur[best]++
			mark := len(m.emitBuf)
			if err := m.issue(sh, &imf.f); err != nil {
				return err
			}
			seqBase := int64(imf.gi+1) * m.fanStride
			for k, t := range m.emitBuf[mark:] {
				dst := m.p.ops[t.node].shard
				m.seqBox[dst] = append(m.seqBox[dst], routedTok{t: t, seq: seqBase + int64(k)})
			}
			m.emitBuf = m.emitBuf[:mark]
			if m.tel != nil {
				m.tel.retireFirings.Add(1)
			}
		}
		if m.cfg.Deadline > 0 {
			if err := m.overDeadline(start); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- phase 4: deliver + merge -----------------------------------------

// deliverPooled lands the cycle's routed tokens, then the completions now
// due, on their owners through the parallel delivery phase and the cycle
// merge — unless they would cross the delivered-token budget: the run
// ends at the crossing token, which only delivery in sequential order
// finds, so the routed emissions are sorted back into that order and
// delivered as the sequential body does. One of them aborts the run, so
// the pooled scratch is not reset.
func (m *sim) deliverPooled(due []delayed) error {
	total := 0
	for _, sh := range m.shs {
		for _, ob := range sh.outbox {
			total += len(ob)
		}
	}
	for _, b := range m.seqBox {
		total += len(b)
	}
	for i := range due {
		total += len(due[i].tokens)
	}
	if m.delivered+int64(total) > m.tokenBudget() {
		var routed []routedTok
		for _, sh := range m.shs {
			for _, ob := range sh.outbox {
				routed = append(routed, ob...)
			}
		}
		for _, b := range m.seqBox {
			routed = append(routed, b...)
		}
		slices.SortFunc(routed, func(a, b routedTok) int { return cmp.Compare(a.seq, b.seq) })
		for i := range routed {
			m.emitBuf = append(m.emitBuf, routed[i].t)
		}
		return m.deliverBoundary(due)
	}
	relSeq := int64(1) << 62
	for i := range due {
		for _, t := range due[i].tokens {
			dst := m.p.ops[t.node].shard
			m.relBox[dst] = append(m.relBox[dst], routedTok{t: t, seq: relSeq})
			relSeq++
		}
	}
	if total > 0 {
		m.pool.run(m.delivFn, m.barDeliv)
	}
	return m.mergeCycle()
}

// deliverShard drains every inbox addressed to sh — one per source
// shard, plus the sequential-writer lane (impure emissions, start
// tokens) and the released split-phase completions — merged by sequence
// key, i.e. in exactly the order the sequential engine would have
// delivered these tokens. Each stream is already seq-ascending, so this
// is a k-way merge with k = W+2.
func (m *sim) deliverShard(sh *shardState) {
	d := sh.id
	W := len(m.shs)
	heads := sh.heads
	for i := range heads {
		heads[i] = 0
	}
	stream := func(i int) []routedTok {
		switch {
		case i < W:
			return m.shs[i].outbox[d]
		case i == W:
			return m.seqBox[d]
		default:
			return m.relBox[d]
		}
	}
	for {
		best := -1
		var bestSeq int64
		for i := 0; i < W+2; i++ {
			s := stream(i)
			if heads[i] < len(s) {
				if q := s[heads[i]].seq; best < 0 || q < bestSeq {
					best, bestSeq = i, q
				}
			}
		}
		if best < 0 {
			break
		}
		rt := &stream(best)[heads[best]]
		heads[best]++
		sh.delivered++
		if err := m.deliverOnce(sh, &rt.t, rt.seq); err != nil {
			// Record the earliest error in sequential delivery order and
			// stop this shard: tokens past an abort are never delivered by
			// the sequential engine either, and other shards' deliveries
			// below the error's seq are unaffected (shard state is
			// disjoint).
			sh.delivErr, sh.delivErrSeq = err, rt.seq
			return
		}
	}
}

// mergeCycle is the sequential epilogue of the delivery phase: it folds
// the per-shard delivered-token counts into the global count (within
// budget: deliverPooled checked), replays the matching-store events in
// sequential delivery order — reproducing Matches, PeakMatchStore, and
// collector Wait events byte-exactly — and surfaces the earliest delivery
// error. All per-cycle scratch is reset here.
func (m *sim) mergeCycle() error {
	// Telemetry folds the parallel phases' per-shard scratch (busy
	// times, pure-firing counts, occupancy, the traffic matrix) before
	// anything below resets it.
	m.tel.mergeSharded(m)
	var minErr error
	minSeq := int64(^uint64(0) >> 1)
	for _, sh := range m.shs {
		m.delivered += sh.delivered
		sh.delivered = 0
		if sh.delivErr != nil && sh.delivErrSeq < minSeq {
			minErr, minSeq = sh.delivErr, sh.delivErrSeq
		}
	}
	cur := m.cur
	for s := range m.shs {
		cur[s] = 0
	}
	for {
		best := -1
		var bestSeq int64
		for s, sh := range m.shs {
			if cur[s] < len(sh.waits) {
				if q := sh.waits[cur[s]].seq; best < 0 || q < bestSeq {
					best, bestSeq = s, q
				}
			}
		}
		if best < 0 || bestSeq >= minSeq {
			break
		}
		ev := &m.shs[best].waits[cur[best]]
		cur[best]++
		m.matchLive += int(ev.delta)
		if ev.delta >= 0 {
			m.stats.Matches++
			if m.col != nil {
				m.col.Wait(int(ev.node), m.cycle, int(ev.port), ev.dep, m.tags.key(ev.tgID))
			}
			if m.matchLive > m.stats.PeakMatchStore {
				m.stats.PeakMatchStore = m.matchLive
			}
		}
	}
	for _, sh := range m.shs {
		sh.waits = sh.waits[:0]
		sh.fireEvs = sh.fireEvs[:0]
		sh.impure = sh.impure[:0]
		sh.plan = sh.plan[:0]
		sh.fireErr, sh.delivErr = nil, nil
		for d := range sh.outbox {
			sh.outbox[d] = sh.outbox[d][:0]
		}
	}
	for d := range m.seqBox {
		m.seqBox[d], m.relBox[d] = m.seqBox[d][:0], m.relBox[d][:0]
	}
	return minErr
}
