// Package machine simulates an explicit token store dataflow machine in
// the style of Monsoon (paper §2.2): tokens carry tags identifying their
// loop iteration context, tokens destined for a multi-input operator
// rendezvous in a matching store (the ETS frame memory), loads and stores
// are split-phase operations with configurable latency, and a configurable
// number of processors issues enabled operations each cycle.
//
// Running the same graph with an unlimited processor count measures the
// program's critical path; the per-cycle issue counts form its parallelism
// profile. This is the measurement substrate for every experiment in
// EXPERIMENTS.md.
//
// Map to the paper:
//
//   - machine.go — the ETS pipeline of §2.2: tag matching, instruction
//     issue, split-phase memory, bounded processors per cycle — the one
//     cycle loop and its one cycle body; also the
//     observability hooks (Config.Collector, an *obs.Collector) that
//     count firings/waits/stalls and, when the collector keeps the run's
//     record, thread every firing's producer firings into it — the DAG the
//     critical path and the journal read (see OBSERVABILITY.md).
//     The hot loops read the graph's operator table (dfg.OpTable), built
//     once per graph and shared read-only with the channel engine (see
//     PERFORMANCE.md). I-structure memory (§6.3) and procedure
//     activations (§2.2) are internal/interp's units, which fireStateful
//     and fireMem call.
//   - queue.go — the hot-path data structures: the bucketed ready queue,
//     the tag-intern table, the sharded matching store, the operand
//     arena and its free lists (see PERFORMANCE.md).
//   - shard.go — the partitioned machine (Config.Workers): the state
//     split into shared-nothing shards that the one cycle body walks,
//     byte-identical at every worker count (see SCALING.md).
//   - race.go — optional checker that no two conflicting memory
//     operations overlap in time (the §5 correctness condition covers
//     must enforce).
//   - trace.go — ASCII parallelism chart; execution traces are written
//     from the collector's record after the run (obs.WriteTrace).
package machine

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"time"

	"ctdf/internal/dfg"
	"ctdf/internal/fault"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/machcheck"
	"ctdf/internal/obs"
	"ctdf/internal/obs/telemetry"
)

// Config configures a simulation run.
type Config struct {
	// Processors bounds how many operations issue per cycle; 0 means
	// unlimited (critical-path mode). Negative values are rejected with an
	// InvalidConfig machine check.
	Processors int
	// MemLatency is the number of cycles a split-phase load or store takes
	// (minimum and default 1; negative values are rejected). All other
	// operators take one cycle.
	MemLatency int
	// MaxCycles aborts runaway executions (default one million; negative
	// values are rejected).
	MaxCycles int
	// MaxOps bounds total operator firings — and, indirectly, delivered
	// tokens — so a token explosion aborts with a CyclesExceeded machine
	// check before exhausting memory (default ten million; negative values
	// are rejected).
	MaxOps int64
	// Deadline bounds wall-clock execution (0 = none; negative values are
	// rejected); exceeding it aborts with a Deadline machine check.
	Deadline time.Duration
	// Inject threads a deterministic fault-injection plan through the
	// run (nil = no injection; see internal/fault and ROBUSTNESS.md).
	Inject *fault.Injector
	// Binding selects which aliased names share storage this run.
	Binding interp.Binding
	// RandomSeed, when nonzero, issues enabled operations in a
	// pseudo-random order instead of the deterministic one — the final
	// store must not depend on it (dataflow determinacy).
	RandomSeed int64
	// DetectRaces additionally checks that no two memory operations on the
	// same location overlap in time unless both are reads.
	DetectRaces bool
	// Workers, when > 1, partitions the machine's nodes and their state
	// across that many shared-nothing shards (see shard.go) and nothing
	// else: every cycle runs the one cycle body on the calling goroutine,
	// over the partitioned state. The simulated execution is
	// byte-identical at every worker count — same snapshots, statistics,
	// firing vectors, journal — because the shard count parameterizes only
	// host-side data layout, never the simulated schedule. 0 and 1 mean
	// one shard; the value is capped at 256; ignored while fault injection
	// is active (a fault plan's sites must not depend on the worker count,
	// which a seeded-random schedule does).
	Workers int
	// CheckpointEvery, when > 0, captures a deterministic checkpoint of
	// the full machine state every CheckpointEvery cycles (see
	// checkpoint.go and ROBUSTNESS.md). Each completed checkpoint is
	// handed to CheckpointSink; the run's Outcome carries the last one's
	// CheckpointRef. Incompatible with DetectRaces and Collector
	// (checkpoints cannot capture race-detector or observability state).
	CheckpointEvery int
	// CheckpointSink receives each completed checkpoint. A sink error
	// aborts the run.
	CheckpointSink func(*Checkpoint) error
	// Resume, when non-nil, restores the machine from a checkpoint
	// instead of starting at cycle 0; the resumed run produces the
	// byte-identical final Outcome the original would have. Incompatible
	// with Inject (fault plans count delivery sites from cycle 0).
	Resume *Checkpoint
	// Collector, when non-nil, gathers per-node counters and (when it
	// keeps the run's record) records the firing DAG, which the critical
	// path, the journal, the event stream and the trace read. Nil disables
	// observability at the cost of one branch per firing.
	Collector *obs.Collector
	// Telemetry, when non-nil, receives engine-level metrics: sampled
	// select / fire / deliver wall time, the lane → owning-shard token
	// matrix, emission-buffer and per-shard inbox occupancy,
	// matching-store depth, and checkpoint capture time (see
	// internal/obs/telemetry and OBSERVABILITY.md). Unlike Collector it
	// observes the host engine, not the simulated program, so it is
	// compatible with checkpointing — capture time is itself a telemetry
	// metric. Nil disables it at the cost of one branch per phase.
	// Repeated runs against one registry accumulate.
	Telemetry *telemetry.Registry
}

// validate rejects configurations that could only arise from a caller
// bug: the zero value of every knob means "default", so negative values
// are never meaningful and used to be silently clamped or, worse, could
// wedge a run (a negative MaxCycles disabled the runaway guard).
func (c *Config) validate() error {
	switch {
	case c.Processors < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"Processors must be >= 0 (0 = unlimited), got %d", c.Processors)
	case c.MemLatency < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"MemLatency must be >= 0 (0 = default 1), got %d", c.MemLatency)
	case c.MaxCycles < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"MaxCycles must be >= 0 (0 = default 1e6), got %d", c.MaxCycles)
	case c.MaxOps < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"MaxOps must be >= 0 (0 = default 1e7), got %d", c.MaxOps)
	case c.Deadline < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"Deadline must be >= 0 (0 = none), got %v", c.Deadline)
	case c.Workers < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"Workers must be >= 0 (0 or 1 = sequential), got %d", c.Workers)
	case c.CheckpointEvery < 0:
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"CheckpointEvery must be >= 0 (0 = disabled), got %d", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 || c.Resume != nil {
		switch {
		case c.DetectRaces:
			return machcheck.Newf(machcheck.InvalidConfig, "machine",
				"checkpointing cannot capture race-detector state (disable DetectRaces)")
		case c.Collector != nil:
			return machcheck.Newf(machcheck.InvalidConfig, "machine",
				"checkpointing cannot capture observability state (detach Collector)")
		}
	}
	if c.Resume != nil && c.Inject != nil {
		return machcheck.Newf(machcheck.InvalidConfig, "machine",
			"cannot resume a checkpoint with fault injection armed (sites are counted from cycle 0)")
	}
	return nil
}

// Stats describes an execution.
type Stats struct {
	// Cycles is the total execution time; with unlimited processors this
	// is the critical path length.
	Cycles int
	// Ops is the number of operator firings.
	Ops int
	// MemOps counts load/store firings.
	MemOps int
	// Matches counts tokens that had to wait in the matching store.
	Matches int
	// TokensMoved counts tokens delivered to operator input ports — the
	// dataflow machine's interconnect traffic. Operator fusion lowers it:
	// a fused tree's interior results never become tokens at all.
	TokensMoved int64
	// MaxParallelism is the peak number of operations issued in one cycle.
	MaxParallelism int
	// PeakMatchStore is the peak number of partially matched activations
	// waiting in the matching store (the explicit-token-store frame memory
	// pressure).
	PeakMatchStore int
	// Profile[i] is the number of operations issued at cycle i (truncated
	// to profileLimit entries).
	Profile []int
}

// AvgParallelism is Ops/Cycles.
func (s Stats) AvgParallelism() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Cycles)
}

// Outcome is the result of a run.
type Outcome struct {
	// Store is the final memory state.
	Store *interp.Store
	// EndValues holds the value carried by each token collected at the end
	// node, indexed by end input port (meaningful for §6.1 value-carrying
	// token lines).
	EndValues []int64
	Stats     Stats
	// Checkpoint identifies the last completed checkpoint of the run
	// (nil when checkpointing was off or no interval elapsed). On an
	// aborted run this is the state a supervisor can restore — every
	// checkpoint is pre-fault by construction — and the cycle `ctdf
	// replay -at` can be pointed at.
	Checkpoint *CheckpointRef
}

// tok is a value travelling an arc: 24 bytes of plain old data — the tag
// rides along as its interned id (see tagTable), not as a string — so
// buffering and copying tokens costs no GC write barriers and token
// buffers are noscan memory.
type tok struct {
	val  int64
	node int32
	port int32
	// tgID is the interned tag id; the matching store hashes it instead
	// of a tag string.
	tgID int32
	// dep is the producer firing's id in the collector's record (-1 when
	// the record is not kept or the token has no producer, e.g. the
	// initial start tokens). Values below -1 index sim.dep2s, the side
	// list for the rare token with two producers (see noteDeps).
	dep int32
}

// matchEntry is one partially matched activation: a frame slot set in the
// explicit token store, addressed by (node, interned tag). While the
// record is kept, its operands' producer firings accumulate in the owning
// shard's side table under the frame's offset.
type matchEntry struct {
	have uint64
	vals int32 // operand frame offset in the owning shard's arena
	n    int32
	tgID int32
}

// firing is an enabled operator activation: pointer-free. Its operands
// live in the owning shard's arena, their producer firings (while the
// record is kept) in the shard's side table under the same frame offset.
type firing struct {
	node int32
	tgID int32
	// port is the arriving port for any-arrival operators (merge, loop
	// entry).
	port int32
	vals int32 // operand frame offset
	n    int32 // operand count
}

// deadlineStride is how many schedulable units (cycles or firings) pass
// between wall-clock deadline samples. The old scheme only sampled every
// 1024 cycles, so a run wedged inside enormous batches could overshoot a
// tiny deadline by orders of magnitude before the next cycle boundary.
const deadlineStride = 64

// profileLimit caps the recorded parallelism profile (Stats.Profile), in
// cycles; statistics remain exact beyond it.
const profileLimit = 1 << 16

// Run executes the dataflow graph to completion.
//
// Errors raised by the machine's own checks are *machcheck.Error values
// (match them with errors.Is against the machcheck sentinels); on such an
// abort the returned Outcome is non-nil and carries the partial store and
// statistics up to the failure, so aborted runs remain profilable.
// Malformed configurations (negative knobs) are rejected up front with an
// InvalidConfig machine check and a nil Outcome.
func Run(g *dfg.Graph, cfgc Config) (*Outcome, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := cfgc.validate(); err != nil {
		return nil, err
	}
	if cfgc.MemLatency < 1 {
		cfgc.MemLatency = 1
	}
	if cfgc.MaxCycles == 0 {
		cfgc.MaxCycles = 1_000_000
	}
	if cfgc.MaxOps == 0 {
		cfgc.MaxOps = 10_000_000
	}
	if err := cfgc.Binding.Validate(g.Prog); err != nil {
		return nil, err
	}
	m := &sim{
		g:         g,
		p:         g.OpTable(),
		cfg:       cfgc,
		store:     interp.NewStoreWithBinding(g.Prog, cfgc.Binding),
		tags:      newTagTable(),
		shards:    make([]shardSlot, len(g.Nodes)),
		resumedAt: -1,
		col:       cfgc.Collector,
	}
	if m.col != nil { // a method value allocates
		m.col.BindTags(m.tags.key)
		m.rec = m.col.Record()
	}
	m.inj = cfgc.Inject
	if cfgc.DetectRaces {
		m.locs = newRaceDetector(g.Prog, cfgc.Binding)
	}
	m.istruct = interp.NewIStructs[waiter](g, m.store, "machine")
	m.procs = interp.NewActivations[int32](g, "machine")
	// The in-flight ring: one slot per due cycle modulo its length, long
	// enough that a plain MemLatency completion never shares a slot with
	// an earlier lap (longer waits — injected delays — just stay put).
	ring := 2
	for ring <= cfgc.MemLatency && ring < 1<<10 {
		ring <<= 1
	}
	m.ring = make([][]delayed, ring)
	// Worker count: >1 partitions the state across shards; fault injection
	// forces one shard (a fault plan's sites must not depend on it).
	w := cfgc.Workers
	if w > maxShards {
		w = maxShards
	}
	if w < 1 || m.inj != nil {
		w = 1
	}
	m.initShards(w)
	if cfgc.Telemetry != nil {
		// The probe is sized to the effective worker count (after the
		// injection/cap adjustments above) so per-shard series exist
		// exactly for the shards that will run.
		m.tel = newMachineTel(cfgc.Telemetry, w, &cfgc)
	}
	if cfgc.RandomSeed != 0 {
		m.rng = rand.New(rand.NewSource(cfgc.RandomSeed))
		for _, sh := range m.shs {
			sh.rng = rand.New(rand.NewSource(shardSeed(cfgc.RandomSeed, sh.id)))
		}
	}
	return m.run()
}

type sim struct {
	g *dfg.Graph
	// p is g's operator table: the hot loops read it and never the
	// graph. It is shared with every other run of g, so never written.
	p     *dfg.OpTable
	cfg   Config
	store *interp.Store
	rng   *rand.Rand

	// Scheduling state: tags interns tag keys, shards is the matching
	// store sharded by destination node and keyed by interned tag. The
	// ready queues, operand arenas and free lists live on the per-shard
	// states (shs), partitioned by node id (owners, nil with one shard);
	// one worker means one shard owning every node. matchLive is the
	// matching store's population, current at every cycle boundary.
	tags      *tagTable
	shards    []shardSlot
	shs       []*shardState
	owners    []uint8
	matchLive int

	// Hot-path scratch: emitBuf holds the tokens emitted so far this cycle,
	// fusedScratch backs fused-node step evaluation.
	emitBuf      []tok
	fusedScratch []int64

	// In-flight memory completions: ring[at&(len-1)] holds the records
	// due at cycle at (and any due whole laps later), inflightN counts
	// them. Drained slots keep their records' token slices for reuse, so a
	// split-phase cycle allocates nothing in steady state.
	ring      [][]delayed
	inflightN int
	cycle     int
	stats     Stats

	// deadlineTick counts schedulable units since the last wall-clock
	// sample (see deadlineStride).
	deadlineTick int

	endVals  []int64
	endCycle int
	done     bool

	// Observability: col collects counters/events (nil when disabled),
	// rec is its record of the run (nil unless kept), curDep is the firing
	// id the tokens currently being emitted inherit as their producer, and
	// dep2s the producer pairs of tokens with two (see noteDeps).
	col    *obs.Collector
	rec    *obs.Record
	curDep int32
	dep2s  [][2]int32

	// Fault injection (nil = none) and the delivered-token budget that
	// bounds token explosions.
	inj       *fault.Injector
	delivered int64

	// Checkpointing (checkpoint.go): ckID numbers completed checkpoints,
	// lastCk is the newest one's handle, resumedAt the cycle this run was
	// restored at (-1 otherwise), and shufLog the main RNG stream's
	// shuffle-length history in seeded-random mode.
	ckID      int
	lastCk    *CheckpointRef
	resumedAt int
	shufLog   []int

	// The stateful units; procs' callers are interned tag ids.
	locs    *raceDetector
	istruct interp.IStructs[waiter]
	procs   interp.Activations[int32]

	// tel is the engine telemetry probe (Config.Telemetry); nil when
	// telemetry is disabled.
	tel *machineTel
}

// waiter is a deferred I-structure read: its node, interned tag and own
// firing id in the collector's record (-1 when the record is not kept).
type waiter struct{ node, tgID, dep int32 }

type delayed struct {
	at     int
	tokens []tok
	// race bookkeeping: location released at completion.
	release func()
}

// abort ends the run on a failed machine check, emitting an abort event
// and returning the partial outcome (store and statistics up to the
// failure) alongside the error, so aborted runs remain profilable.
func (m *sim) abort(err error) (*Outcome, error) {
	m.stats.Cycles = m.cycle
	m.stats.TokensMoved = m.delivered
	m.tel.flush(m)
	if ce, ok := err.(*machcheck.Error); ok {
		ce.Cycle = m.cycle
		m.col.Abort(m.cycle, string(ce.Check))
	}
	return &Outcome{Store: m.store, EndValues: m.endVals, Stats: m.stats, Checkpoint: m.lastCk}, err
}

// overDeadline samples the wall clock once per deadlineStride schedulable
// units; it returns the Deadline machine check when the budget is blown.
func (m *sim) overDeadline(start time.Time) error {
	if m.deadlineTick++; m.deadlineTick < deadlineStride {
		return nil
	}
	m.deadlineTick = 0
	if time.Since(start) > m.cfg.Deadline {
		return machcheck.Newf(machcheck.Deadline, "machine",
			"exceeded %v wall-clock deadline at cycle %d", m.cfg.Deadline, m.cycle).WithStuck(m.stuckList())
	}
	return nil
}

// run is the cycle loop and seqCycle its one body, the same at every
// worker count.
func (m *sim) run() (*Outcome, error) {
	m.endVals = make([]int64, m.p.Ops[m.g.EndID].NIns)
	m.curDep = -1
	start := time.Now()

	if m.cfg.Resume != nil {
		// Restore a checkpoint instead of starting at cycle 0. A
		// malformed checkpoint is a pre-run failure (nil Outcome), like
		// any other invalid configuration.
		if err := m.restore(m.cfg.Resume); err != nil {
			return nil, err
		}
	} else {
		// Cycle 0: start emits one dummy token per out arc at the root tag.
		for _, t := range m.p.Out(m.g.StartID, 0) {
			m.emitBuf = append(m.emitBuf, tok{node: t.Node, port: t.Port, tgID: rootTagID, dep: -1})
		}
		if err := m.deliverBoundary(nil); err != nil {
			return m.abort(err)
		}
	}

	// Execution runs until end fires, then drains remaining enabled work:
	// tokens routed by a switch onto an unconnected output (a path where
	// the token's value is dead, e.g. after §6.1 elimination) are dropped
	// at that switch, and the drops may be scheduled after end's inputs
	// completed.
	for {
		ready := 0
		for _, sh := range m.shs {
			ready += sh.ready.count
		}
		if m.done && ready == 0 && m.inflightN == 0 {
			return m.finish()
		}
		if err := m.beginCycle(start, ready); err != nil {
			return m.abort(err)
		}
		// Issue up to Processors enabled operations this cycle.
		issue := ready
		if m.cfg.Processors > 0 && issue > m.cfg.Processors {
			issue = m.cfg.Processors
		}
		if err := m.noteIssue(issue); err != nil {
			return m.abort(err)
		}
		if err := m.seqCycle(start, issue); err != nil {
			return m.abort(err)
		}
		if m.tel != nil {
			m.tel.cycleCounts(m, issue)
		}
	}
}

// seqCycle is the cycle body: fire the cycle's issue enabled operations
// in deterministic order (or seeded-random when configured) from their
// owners' queues, then deliver at the cycle boundary. Telemetry times
// three phases of it: select = shuffling a seeded-random batch, fire =
// the firing loop, deliver = the boundary delivery.
func (m *sim) seqCycle(start time.Time, issue int) error {
	timed := m.tel.sampled(m.cycle)
	var telT0 time.Time
	if timed {
		telT0 = time.Now()
	}
	var err error
	switch {
	case m.rng == nil:
		// Fire straight from the buckets, walking the union of the shards'
		// active sets in ascending node id, a word at a time. Nothing is
		// enqueued meanwhile — emissions wait in emitBuf for the cycle
		// boundary — so the sets lose only bits already walked and the
		// runs stay put while they issue; a bucket cut short by Processors
		// keeps its remainder.
		left := issue
		for si := range m.shs[0].ready.sum {
			var su uint64
			for _, sh := range m.shs {
				su |= sh.ready.sum[si]
			}
			for ; su != 0 && left > 0 && err == nil; su &= su - 1 {
				w := si<<6 + bits.TrailingZeros64(su)
				var u uint64
				for _, sh := range m.shs {
					u |= sh.ready.words[w]
				}
				for ; u != 0 && left > 0 && err == nil; u &= u - 1 {
					node := w<<6 + bits.TrailingZeros64(u)
					sh := m.owner(int32(node))
					run := sh.ready.take(node, left)
					left -= len(run)
					err = m.issueRun(sh, run, start)
				}
			}
		}
	case issue > 0 || len(m.shs) == 1: // one worker's log also records the idle cycles' empty draws
		// Seeded-random mode: every shard shuffles its pending set with
		// its own stream, issues its share (selectCycleRandom), shard-major,
		// and re-queues the rest.
		m.selectCycleRandom(issue)
		for _, sh := range m.shs {
			m.shuffled(sh)
		}
		if timed {
			observeSampled(m.tel.selSec, time.Since(telT0))
			telT0 = time.Now()
		}
		for _, sh := range m.shs {
			for _, f := range sh.batchBuf[sh.randTake:] {
				sh.ready.requeue(f)
			}
			if err = m.issueRun(sh, sh.batchBuf[:sh.randTake], start); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	if timed {
		observeSampled(m.tel.fireSec, time.Since(telT0))
		telT0 = time.Now()
	}
	// Completions scheduled for the next cycle boundary, after this
	// cycle's emissions.
	m.cycle++
	m.stats.Ops += issue
	err = m.deliverBoundary(m.takeDue())
	if timed && err == nil {
		observeSampled(m.tel.delivSec, time.Since(telT0))
	}
	return err
}

// deliverBoundary is the delivery at a cycle boundary: the cycle's
// emissions in emission order, then the completions now due.
func (m *sim) deliverBoundary(due []delayed) error {
	emitN := len(m.emitBuf)
	err := m.deliverAll(m.emitBuf, laneSeq)
	m.emitBuf = m.emitBuf[:0]
	for i := 0; i < len(due) && err == nil; i++ {
		err = m.deliverAll(due[i].tokens, laneMem)
	}
	if err == nil && m.tel != nil {
		m.tel.occupancy(emitN)
	}
	return err
}

// beginCycle runs the checks at the top of the cycle loop:
// the checkpoint interval, the cycle and wall-clock budgets, and deadlock
// (no enabled work, nothing in flight, end not fired).
func (m *sim) beginCycle(start time.Time, ready int) error {
	m.tel.sampleDepth(m)
	if err := m.maybeCheckpoint(); err != nil {
		return err
	}
	if m.cycle > m.cfg.MaxCycles {
		return machcheck.Newf(machcheck.CyclesExceeded, "machine",
			"exceeded %d cycles (deadlock or runaway loop?)", m.cfg.MaxCycles).WithStuck(m.stuckList())
	}
	if m.cfg.Deadline > 0 {
		if err := m.overDeadline(start); err != nil {
			return err
		}
	}
	if !m.done && ready == 0 && m.inflightN == 0 {
		return m.deadlockError()
	}
	return nil
}

// noteIssue charges a cycle's issue width against the firing budget and
// records it in the parallelism statistics.
func (m *sim) noteIssue(issue int) error {
	if int64(m.stats.Ops)+int64(issue) > m.cfg.MaxOps {
		return machcheck.Newf(machcheck.CyclesExceeded, "machine",
			"exceeded %d firings (runaway loop?)", m.cfg.MaxOps)
	}
	if issue > m.stats.MaxParallelism {
		m.stats.MaxParallelism = issue
	}
	if m.cycle < profileLimit {
		for len(m.stats.Profile) <= m.cycle {
			m.stats.Profile = append(m.stats.Profile, 0)
		}
		m.stats.Profile[m.cycle] = issue
	}
	return nil
}

// issueRun fires a run of sh's activations in order: a bucket's pending
// firings in place, or the prefix of a shuffled batch.
func (m *sim) issueRun(sh *shardState, run []firing, start time.Time) error {
	for i := range run {
		if err := m.issue(sh, &run[i]); err != nil {
			return err
		}
		if m.cfg.Deadline > 0 {
			if err := m.overDeadline(start); err != nil {
				return err
			}
		}
	}
	return nil
}

// issue observes and fires one activation owned by sh, then recycles its
// operand frame.
func (m *sim) issue(sh *shardState, f *firing) error {
	if m.col != nil { // else every dep is -1 already
		// The record copies the frame's producer list; the list is then
		// truncated for the frame's next activation. The firing's id is the
		// producer of the tokens it emits.
		var deps []int32
		if m.rec != nil {
			deps = sh.deps[f.vals]
			sh.deps[f.vals] = deps[:0]
		}
		m.curDep = m.col.Fire(int(f.node), m.cycle, m.cost(f.node), int(f.n), int(f.port),
			f.tgID, deps)
	}
	if err := m.fire(f, sh.frame(f)); err != nil {
		return err
	}
	sh.putVals(f.vals, f.n)
	return nil
}

// finish is the run's epilogue: final statistics and the conservation
// checks of a drained machine.
func (m *sim) finish() (*Outcome, error) {
	m.stats.Cycles = m.endCycle
	m.stats.TokensMoved = m.delivered
	m.tel.flush(m)
	if err := cmp.Or(m.istruct.Pending(), m.procs.Leak()); err != nil {
		return m.abort(err)
	}
	// Strict conservation: after the drain, no partially matched
	// activation may remain in the matching store (a waiting token whose
	// partner can never arrive is a translation bug).
	if m.matchLive != 0 {
		return m.abort(machcheck.Newf(machcheck.TokenLeak, "machine",
			"%d tokens left after end fired", m.matchLive).WithStuck(m.stuckList()))
	}
	return &Outcome{Store: m.store, EndValues: m.endVals, Stats: m.stats, Checkpoint: m.lastCk}, nil
}

// stuckList renders the matching store's partially matched activations as
// stuck-token diagnostics, in deterministic order.
func (m *sim) stuckList() []machcheck.Stuck {
	type stuckKey struct {
		node int
		tag  string
		e    *matchEntry
	}
	keys := make([]stuckKey, 0, m.matchLive)
	for node := range m.shards {
		s := &m.shards[node]
		if s.e.n != 0 {
			keys = append(keys, stuckKey{node: node, tag: m.tags.keys[s.e.tgID], e: &s.e})
		}
		for tgID, e := range s.more {
			keys = append(keys, stuckKey{node: node, tag: m.tags.keys[tgID], e: e})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].tag < keys[j].tag
	})
	out := make([]machcheck.Stuck, 0, len(keys))
	for _, k := range keys {
		out = append(out, machcheck.Stuck{
			Node: k.node, Label: m.g.Label(m.g.Nodes[k.node]), Tag: k.tag,
			Have: int(k.e.n), Need: int(m.g.Nodes[k.node].NIns),
		})
	}
	return out
}

// tokenBudget is the delivered-token count past which a run aborts.
func (m *sim) tokenBudget() int64 { return 8*m.cfg.MaxOps + 1024 }

// cost is an operator's duration in cycles: split-phase memory
// operations take MemLatency, everything else one cycle.
func (m *sim) cost(node int32) int {
	if m.p.Ops[node].Flags&dfg.OpMem != 0 {
		return m.cfg.MemLatency
	}
	return 1
}

// owner returns the shard that owns node; with one shard, without
// waiting for the node's owner entry, which the hot loops can measure.
func (m *sim) owner(node int32) *shardState {
	if len(m.shs) == 1 {
		return m.shs[0]
	}
	return m.shs[m.owners[node]]
}

// deliverAll delivers a buffer of tokens in order, each to its owner,
// counting them on telemetry's lane. Without an injector and with the
// whole buffer inside the delivered-token budget — every cycle but a
// runaway's last — the tokens go straight to deliverOnce.
func (m *sim) deliverAll(ts []tok, lane int) error {
	if m.tel != nil {
		m.tel.routed(m, lane, ts)
	}
	if m.inj == nil && m.delivered+int64(len(ts)) <= m.tokenBudget() {
		sh := m.shs[0] // reloading the one shard per token is measurable
		for i := range ts {
			if len(m.shs) > 1 {
				sh = m.shs[m.owners[ts[i].node]]
			}
			if err := m.deliverOnce(sh, &ts[i]); err != nil {
				m.delivered += int64(i) + 1
				return err
			}
		}
		m.delivered += int64(len(ts))
		return nil
	}
	for i := range ts {
		if err := m.deliver(&ts[i]); err != nil {
			return err
		}
	}
	return nil
}

// deliver routes a token to its destination, enabling a firing when the
// activation's operands are complete. It is also the fault-injection
// point for delivery faults and stops the run at the token that crosses
// the delivered-token budget.
func (m *sim) deliver(t *tok) error {
	if m.delivered++; m.delivered > m.tokenBudget() {
		return machcheck.Newf(machcheck.CyclesExceeded, "machine",
			"delivered %d tokens (token explosion?)", m.delivered)
	}
	sh := m.owner(t.node)
	if m.inj != nil {
		node := int(t.node)
		switch m.inj.Deliver(m.p.Ops[node].Flags&dfg.OpMatchSite != 0) {
		case fault.ActDrop:
			m.col.Fault(node, m.cycle, string(fault.DropToken))
			return nil
		case fault.ActDup:
			m.col.Fault(node, m.cycle, string(fault.DupToken))
			if err := m.deliverOnce(sh, t); err != nil {
				return err
			}
		case fault.ActCorruptTag:
			m.col.Fault(node, m.cycle, string(fault.CorruptTag))
			t.tgID = m.tags.pushID(t.tgID)
		}
	}
	return m.deliverOnce(sh, t)
}

// noteDeps appends token t's producer firings to the producer list of
// the activation whose operand frame starts at off; called only while the
// record is kept. A deferred I-structure read's result has two producers,
// the read and the store that satisfied it: the pair waits in dep2s,
// later-finishing first, and the token carries -2-index.
func (m *sim) noteDeps(sh *shardState, off int32, t *tok) {
	switch {
	case t.dep >= 0:
		sh.deps[off] = append(sh.deps[off], t.dep)
	case t.dep < -1:
		p := &m.dep2s[-2-t.dep]
		sh.deps[off] = append(sh.deps[off], p[0], p[1])
	}
}

// producer returns a parked token's producer firing for the record: its
// own, or the first of a pair.
func (m *sim) producer(t *tok) int32 {
	if t.dep < -1 {
		return m.dep2s[-2-t.dep][0]
	}
	return t.dep
}

// deliverOnce lands one token on the shard that owns its destination
// node; a token that has to wait updates Matches, PeakMatchStore,
// matchLive and the collector.
func (m *sim) deliverOnce(sh *shardState, t *tok) error {
	o := &m.p.Ops[t.node]
	if o.Kind == uint8(dfg.End) && t.tgID != rootTagID {
		return machcheck.Newf(machcheck.TagViolation, "machine",
			"token reached end with non-root tag %q (unbalanced loop context)", m.tags.key(t.tgID))
	}
	if o.Flags&dfg.OpSolo != 0 {
		// Any-arrival and one-input operators: each token fires the node
		// on its own (port matters to the any-arrival ones only and is 0
		// for the rest).
		off := sh.getVals(1)
		sh.arena[off] = t.val
		if m.rec != nil {
			m.noteDeps(sh, off, t)
		}
		sh.ready.push(t.node, t.tgID, t.port, off, 1)
		return nil
	}
	e := m.matchLookup(t.node, t.tgID)
	inserted := e == nil
	if inserted {
		e = m.matchInsert(sh, t.node, t.tgID, o.NIns)
	}
	if m.rec != nil {
		m.noteDeps(sh, e.vals, t)
	}
	bit := uint64(1) << uint(t.port)
	if e.have&bit != 0 {
		return machcheck.Newf(machcheck.TagViolation, "machine",
			"duplicate token at %s port %d tag %q", m.g.Label(m.g.Nodes[t.node]), t.port, m.tags.key(t.tgID))
	}
	e.have |= bit
	sh.arena[e.vals+t.port] = t.val
	e.n++
	if e.n == o.NIns {
		sh.ready.push(t.node, t.tgID, 0, e.vals, e.n)
		m.matchDelete(sh, t.node, e)
		m.matchLive--
	} else {
		if inserted {
			m.matchLive++
		}
		m.stats.Matches++
		if m.col != nil {
			m.col.Wait(int(t.node), m.cycle, int(t.port), t.tgID, m.producer(t))
		}
		if m.matchLive > m.stats.PeakMatchStore {
			m.stats.PeakMatchStore = m.matchLive
		}
	}
	return nil
}

// emitAll broadcasts val on every arc leaving (node, port) by appending
// to the cycle's emission buffer. Emitted tokens inherit m.curDep as
// their producer firing.
func (m *sim) emitAll(node int32, port int, val int64, tgID int32) {
	targets := m.p.Out(node, port)
	at := len(m.emitBuf)
	m.emitBuf = slices.Grow(m.emitBuf, len(targets))[:at+len(targets)]
	buf, dep := m.emitBuf[at:], m.curDep
	for i, t := range targets {
		// Field by field: a composite literal is built on the stack and
		// copied, which stalls store forwarding on this hottest of loops.
		e := &buf[i]
		e.val, e.node, e.port, e.tgID, e.dep = val, t.Node, t.Port, tgID, dep
	}
	if m.col != nil {
		m.col.Emitted(int(node), len(targets))
	}
}

// loopTagStep is the tag arithmetic of a loop operator's firing: a token
// on a loop entry's port 0 enters the loop (push), one on its back edge
// advances it (bump); a loop exit leaves it (pop).
func loopTagStep(kind dfg.Kind, port int32) int {
	switch {
	case kind == dfg.LoopExit:
		return tagPop
	case port == 0:
		return tagPush
	}
	return tagBump
}

// opFault reports a kernel or store error as this engine's operator
// fault at the node.
func (m *sim) opFault(node int32, err error) error {
	return machcheck.Newf(machcheck.OperatorFault, "machine", "%s: %v", m.g.Label(m.g.Nodes[node]), err)
}

// fire executes one operator activation, appending the tokens it emits
// this cycle to the emission buffer (memory operations park their results
// in the in-flight queue instead). What a state-free operator computes is
// the kernel's (interp.Step); the machine adds the loop operators' tag
// arithmetic and the misfire injection point.
func (m *sim) fire(f *firing, vals []int64) error {
	o := &m.p.Ops[f.node]
	kind := dfg.Kind(o.Kind)
	if !interp.StateFree(kind) {
		return m.fireStateful(f, kind, vals)
	}
	v, port, err := interp.Step(kind, lang.Op(o.Code), o.Val, vals)
	if err != nil {
		return m.opFault(f.node, err)
	}
	tgID := f.tgID
	if kind == dfg.LoopEntry || kind == dfg.LoopExit {
		if tgID, err = m.tags.step(tgID, loopTagStep(kind, f.port)); err != nil {
			return machcheck.Newf(machcheck.TagViolation, "machine", "%s: %v", m.g.Label(m.g.Nodes[f.node]), err)
		}
	} else if m.inj != nil && kind == dfg.BinOp && fault.PredicateOp(lang.Op(o.Code)) {
		if fv, hit := m.inj.Misfire(v); hit {
			m.col.Fault(int(f.node), m.cycle, string(fault.MisfireValue))
			v = fv
		}
	}
	m.emitAll(f.node, port, v, tgID)
	return nil
}

// fireStateful fires the operators with state behind them: end, fused
// scratch, activation linkage (interp.Activations), memory.
func (m *sim) fireStateful(f *firing, kind dfg.Kind, vals []int64) error {
	switch kind {
	case dfg.End:
		if m.done {
			return machcheck.Newf(machcheck.TagViolation, "machine",
				"end fired twice (duplicate result token)")
		}
		copy(m.endVals, vals)
		m.endCycle = m.cycle + 1
		m.done = true
		return nil

	case dfg.Fused:
		// The whole step program evaluates in this one firing; fault
		// injection sees the fused node as a single operator (Misfire
		// targets predicate binops only, and fused trees are interior
		// value computations, so no injection point is lost).
		fi := &m.g.Fusions[m.p.Ops[f.node].Aux]
		res, err := interp.EvalFused(fi.Steps, vals, m.fusedScratch)
		if err != nil {
			return m.opFault(f.node, err)
		}
		m.fusedScratch = res
		for p, s := range fi.Outs {
			m.emitAll(f.node, p, res[s], f.tgID)
		}
		return nil

	case dfg.Apply:
		// The callee's entry tokens carry a fresh call frame.
		tg, info, err := m.procs.Open(int(f.node), f.tgID, m.tags.tag(f.tgID))
		if err != nil {
			return err
		}
		tgID := m.tags.intern(tg)
		for j := range info.Params {
			m.emitAll(f.node, len(info.InTokens)+j, 0, tgID)
		}
		return nil

	case dfg.ProcReturn:
		// The calling Apply's return ports signal in the caller's context.
		info, caller, err := m.procs.Close(int(f.node), m.tags.tag(f.tgID))
		if err != nil {
			return err
		}
		for p := range info.InTokens {
			m.emitAll(info.Apply, p, 0, caller)
		}
		return nil
	}
	return m.fireMem(f, kind, vals)
}

// fireMem executes a memory operator, off the fast path: the node
// supplies the storage name and the error text.
func (m *sim) fireMem(f *firing, kind dfg.Kind, vals []int64) error {
	n := m.g.Nodes[f.node]
	m.stats.MemOps++
	switch kind {
	case dfg.ILoad:
		v, full, err := m.istruct.Read(m.g.Name(n.Var), vals[0], waiter{node: f.node, tgID: f.tgID, dep: m.curDep})
		if err != nil {
			return err
		}
		if full {
			mark := len(m.emitBuf)
			m.emitAll(f.node, 0, v, f.tgID)
			m.park(mark, nil)
		}
		// A deferred read emits when the write arrives.
		return nil

	case dfg.IStore:
		waiters, err := m.istruct.Write(m.g.Name(n.Var), vals[0], vals[1])
		if err != nil {
			return err
		}
		mark := len(m.emitBuf)
		storeDep := m.curDep
		for _, w := range waiters {
			// A deferred read's result depends on both the read's own
			// firing and the store that satisfied it; while the record is
			// kept the pair rides in dep2s, the later-finishing producer
			// first — the store on a tie (see noteDeps).
			m.curDep = storeDep
			if m.rec != nil && storeDep >= 0 && w.dep >= 0 {
				pair := [2]int32{storeDep, w.dep}
				if m.rec.Fires[w.dep].Finish > m.rec.Fires[storeDep].Finish {
					pair = [2]int32{w.dep, storeDep}
				}
				m.dep2s = append(m.dep2s, pair)
				m.curDep = int32(-1 - len(m.dep2s))
			}
			m.emitAll(w.node, 0, vals[1], w.tgID)
		}
		m.curDep = storeDep
		m.park(mark, nil)
		return nil
	}

	// Updatable memory: the engine resolves the name under the firing's
	// activation and holds the location for the race checker; what is
	// read or written is the kernel's (Store.Access).
	name := m.procs.Resolve(m.g.Name(n.Var), m.tags.tag(f.tgID))
	idx := int64(-1)
	if kind == dfg.LoadIdx || kind == dfg.StoreIdx {
		idx = vals[0]
	}
	release, err := m.acquire(name, idx, kind == dfg.Store || kind == dfg.StoreIdx)
	if err != nil {
		return err
	}
	v, err := m.store.Access(kind, name, vals)
	if err != nil {
		return m.opFault(f.node, err)
	}
	mark := len(m.emitBuf)
	m.emitAll(f.node, 0, v, f.tgID)
	if n.OutPorts() == 2 {
		m.emitAll(f.node, 1, 0, f.tgID)
	}
	m.park(mark, release)
	return nil
}

// park schedules memory-operation results — the emission buffer's tail
// starting at mark — to appear after MemLatency cycles (split-phase
// operation, §2.2). It is the injection point for split-phase memory
// faults: a lost response drops its result tokens, a delayed one adds
// latency (responses are eligible only before end fires, while every
// response is still needed for completion).
func (m *sim) park(mark int, release func()) {
	at := m.cycle + m.cfg.MemLatency
	pending := m.emitBuf[mark:]
	m.emitBuf = m.emitBuf[:mark]
	if m.inj != nil && !m.done && len(pending) > 0 {
		if lose, delay := m.inj.MemResponse(); lose {
			m.col.Fault(-1, m.cycle, string(fault.LoseMemResponse))
			pending = nil
		} else if delay > 0 {
			m.col.Fault(-1, m.cycle, string(fault.DelayMemResponse))
			at += delay
		}
	}
	m.parkAt(at, pending, release)
}

// parkAt files a completion record under its due cycle's ring slot,
// copying toks into the token slice a drained record left behind there.
func (m *sim) parkAt(at int, toks []tok, release func()) {
	s := &m.ring[at&(len(m.ring)-1)]
	if n := len(*s); n < cap(*s) {
		*s = (*s)[:n+1]
	} else {
		*s = append(*s, delayed{})
	}
	d := &(*s)[len(*s)-1]
	d.at, d.release = at, release
	d.tokens = append(d.tokens[:0], toks...)
	m.inflightN++
}

// takeDue removes and returns the completion records due at the current
// cycle, in park order, after running their release hooks. Records due
// whole laps later (an injected delay, a checkpoint taken under a longer
// latency) stay in the slot.
func (m *sim) takeDue() []delayed {
	s := &m.ring[m.cycle&(len(m.ring)-1)]
	due, later := *s, []delayed(nil)
	for i := range due {
		if due[i].at != m.cycle {
			later = append(later, due[i])
		}
	}
	if later == nil {
		*s = due[:0] // keeps the records' token slices for parkAt
	} else {
		*s, due = later, slices.DeleteFunc(slices.Clone(due), func(d delayed) bool { return d.at != m.cycle })
	}
	for i := range due {
		if due[i].release != nil {
			due[i].release()
		}
	}
	m.inflightN -= len(due)
	return due
}

func (m *sim) acquire(name string, idx int64, write bool) (func(), error) {
	if m.locs == nil {
		return nil, nil
	}
	return m.locs.acquire(name, idx, write)
}

func (m *sim) deadlockError() error {
	if err := m.istruct.Pending(); err != nil {
		return err
	}
	return machcheck.Newf(machcheck.Deadlock, "machine",
		"no enabled work at cycle %d but end has not fired; %d activations waiting",
		m.cycle, m.matchLive).WithStuck(m.stuckList())
}
