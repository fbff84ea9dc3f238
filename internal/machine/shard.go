package machine

import "math/rand"

// The partitioned machine (Config.Workers > 1): the Monsoon multi-PE
// story of paper §2.2, where each processing element owns a slice of the
// explicit token store and tokens travel to the PE that owns their
// destination instruction. Nodes are partitioned across W shared-nothing
// shards by a hash of the node id; each shard owns its nodes' ready
// buckets, matching-store slots, operand frames and free lists, and in
// seeded-random mode its own RNG stream. That is all Workers does: the
// one cycle body (seqCycle, machine.go) walks the partitioned state on
// the calling goroutine, so the simulated execution is byte-identical at
// every worker count. The host-parallel body that once drove the shards
// is a dated negative result (SCALING.md).

// maxShards caps Config.Workers; past a few hundred shards the
// per-shard queues cost more than any machine can win back, and a shard
// id fits a byte of sim.owners.
const maxShards = 256

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

// shardState is one shard's private scheduler state: shard s owns the
// nodes with shardHash(id) % W == s.
type shardState struct {
	id    int
	ready readyQueue

	// Free lists and arenas (queue.go) — strictly shard-private. arena
	// holds the operand frames of this shard's activations, valsFree the
	// offsets of recycled frames by arity, and deps (while the record is
	// kept, else nil) the producer firings of the activation whose frame
	// starts at each offset, truncated and reused as the frame is.
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
	// (selectCycleRandom).
	batchBuf []firing
	randTake int
}

// initShards builds the per-shard states over one bucket table and, with
// more than one shard, the run's node→shard map.
func (m *sim) initShards(w int) {
	m.shs = make([]*shardState, w)
	buckets := newBuckets(len(m.p.Ops))
	words := len(buckets)>>6 + 1
	for i := range m.shs {
		sh := &shardState{id: i, valsFree: make([][]int32, m.p.MaxIns+1)}
		sh.ready = readyQueue{buckets: buckets, tt: m.tags, words: make([]uint64, words), sum: make([]uint64, words>>6+1)}
		if m.rec != nil {
			sh.deps = [][]int32{}
		}
		m.shs[i] = sh
	}
	if w > 1 {
		m.owners = make([]uint8, len(m.p.Ops))
		for id := range m.owners {
			m.owners[id] = uint8(shardHash(id) % uint32(w))
		}
	}
}

// selectCycleRandom plans a seeded-random cycle: the cycle's issue
// firings are split round-robin across shards with pending work, and each
// shard shuffles its own pending set with its stream (shuffled).
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
}

// shuffled materialises sh's whole ready queue, in deterministic order,
// into sh.batchBuf and shuffles it with the shard's stream — with one
// worker the run's main stream, consuming the same randomness the old
// global sort+shuffle did — logging the draw for checkpoints.
func (m *sim) shuffled(sh *shardState) {
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
}
