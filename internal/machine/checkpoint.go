package machine

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"time"

	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/token"
)

// Deterministic checkpoint/restore (see ROBUSTNESS.md, "Recovery").
//
// A checkpoint is taken at the top of the cycle loop — a consistency
// point where the emission buffer is empty, so the whole simulation
// state is exactly: the pending ready-queue firings, the partially
// matched activations in the matching store, the in-flight split-phase
// memory completions, the memory store,
// I-structure presence/deferred-reader state, procedure activations,
// statistics counters, and (in seeded-random mode) the RNG streams.
// Restoring that state into a fresh machine and resuming produces a
// byte-identical final Outcome — the paper's §5 determinacy condition is
// what makes this sound: a determinate graph re-executed from a
// consistent token snapshot cannot diverge.
//
// Tags are serialized as their canonical keys and re-interned on restore
// (token.ParseKey), so interned ids may differ between the original and
// the resumed run; only keys are observable (issue order sorts buckets
// by key, and checkpointing forbids collectors, whose events are the one
// place ids could otherwise leak). RNG streams are serialized as the
// history of Shuffle lengths consumed so far and fast-forwarded on
// restore by replaying no-op shuffles — math/rand exposes no state, but
// replaying the identical call sequence consumes identical randomness.
//
// Checkpoints taken while a fault injector is armed stop as soon as the
// injector fires: every checkpoint is guaranteed pre-fault state, so a
// supervisor restoring "the last checkpoint" always restores clean
// state (the injected corruption is never snapshotted).

// checkpointVersion is bumped whenever the serialized layout changes.
const checkpointVersion = 1

// CheckpointRef identifies a completed checkpoint: the handle a partial
// Outcome carries so an aborted run can be resumed (or replayed with
// `ctdf replay -at`) from its last good state.
type CheckpointRef struct {
	ID    int `json:"id"`
	Cycle int `json:"cycle"`
}

// ckFiring is one pending ready-queue firing.
type ckFiring struct {
	Tag  string  `json:"tag"`
	Port int     `json:"port,omitempty"`
	Vals []int64 `json:"vals"`
}

// ckBucket is one node's pending ready-queue bucket, in arrival order.
// Dirty mirrors the bucket's sort-on-demand flag so the restored queue
// sorts (or skips sorting) exactly when the original would have.
type ckBucket struct {
	Node    int        `json:"node"`
	Dirty   bool       `json:"dirty,omitempty"`
	Firings []ckFiring `json:"firings"`
}

// ckMatch is one partially matched activation in the matching store.
// Vals holds the full operand frame with unarrived ports zeroed (their
// live values are uninitialized arena memory; zeroing keeps the
// serialized form deterministic — they are overwritten before any read).
type ckMatch struct {
	Node int     `json:"node"`
	Tag  string  `json:"tag"`
	Have uint64  `json:"have"`
	N    int     `json:"n"`
	Vals []int64 `json:"vals"`
}

// ckTok is one in-flight token (a parked split-phase memory result).
type ckTok struct {
	Node int    `json:"node"`
	Port int    `json:"port,omitempty"`
	Val  int64  `json:"val"`
	Tag  string `json:"tag"`
}

// ckInflight is the batch of memory completions due at absolute cycle
// At, in delivery order.
type ckInflight struct {
	At   int     `json:"at"`
	Toks []ckTok `json:"toks"`
}

// ckDeferred is one deferred I-structure reader, in arrival order per
// cell (the satisfying write emits results in that order).
type ckDeferred struct {
	Array string `json:"array"`
	Idx   int64  `json:"idx"`
	Node  int    `json:"node"`
	Tag   string `json:"tag"`
}

// ckActivation is one live procedure activation.
type ckActivation struct {
	ID        int               `json:"id"`
	Apply     int               `json:"apply"`
	CallerTag string            `json:"caller_tag"`
	Resolved  map[string]string `json:"resolved,omitempty"`
}

// ckStats is the statistics prefix accumulated up to the checkpoint
// cycle (Cycles is derived at run end and not part of it).
type ckStats struct {
	Ops            int   `json:"ops"`
	MemOps         int   `json:"mem_ops"`
	Matches        int   `json:"matches"`
	MaxParallelism int   `json:"max_parallelism"`
	PeakMatchStore int   `json:"peak_match_store"`
	Profile        []int `json:"profile"`
}

// Checkpoint is a complete, serializable snapshot of machine state at a
// cycle boundary. Restore it with Config.Resume; the resumed run
// produces the byte-identical final Outcome the original run would
// have. Checkpoints are portable across worker counts (Config.Workers)
// except in seeded-random mode, where the per-shard RNG streams tie the
// snapshot to the worker count that took it.
type Checkpoint struct {
	Version   int          `json:"version"`
	ID        int          `json:"id"`
	Cycle     int          `json:"cycle"`
	Graph     uint64       `json:"graph"`
	Seed      int64        `json:"seed,omitempty"`
	Workers   int          `json:"workers"`
	Done      bool         `json:"done,omitempty"`
	EndCycle  int          `json:"end_cycle,omitempty"`
	EndVals   []int64      `json:"end_vals"`
	Delivered int64        `json:"delivered"`
	Stats     ckStats      `json:"stats"`
	Ready     []ckBucket   `json:"ready,omitempty"`
	Match     []ckMatch    `json:"match,omitempty"`
	Inflight  []ckInflight `json:"inflight,omitempty"`

	Scalars   map[string]int64   `json:"scalars,omitempty"`
	Arrays    map[string][]int64 `json:"arrays,omitempty"`
	IFull     map[string][]bool  `json:"istruct_full,omitempty"`
	IDeferred []ckDeferred       `json:"istruct_deferred,omitempty"`

	Acts    []ckActivation `json:"activations,omitempty"`
	NextAct int            `json:"next_activation,omitempty"`

	// Shuffle-length histories for seeded-random issue mode: the main
	// stream (one worker) and each shard's stream (more). Fast-forwarded
	// by replaying no-op shuffles on restore.
	MainShuffles  []int   `json:"main_shuffles,omitempty"`
	ShardShuffles [][]int `json:"shard_shuffles,omitempty"`
}

// Ref returns the checkpoint's identifying handle.
func (c *Checkpoint) Ref() CheckpointRef { return CheckpointRef{ID: c.ID, Cycle: c.Cycle} }

// Encode serializes the checkpoint (JSON, one object).
func (c *Checkpoint) Encode() ([]byte, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("machine: encode checkpoint: %w", err)
	}
	return b, nil
}

// DecodeCheckpoint parses a serialized checkpoint and validates its
// version.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	c := &Checkpoint{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("machine: decode checkpoint: %w", err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("machine: checkpoint version %d, want %d", c.Version, checkpointVersion)
	}
	return c, nil
}

// WriteFile serializes the checkpoint to path.
func (c *Checkpoint) WriteFile(path string) error {
	b, err := c.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadCheckpointFile loads a checkpoint written by WriteFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(b)
}

// graphFP hashes the graph's structure so a checkpoint refuses to
// restore into a different graph.
func (m *sim) graphFP() uint64 {
	h := fnv.New64a()
	io.WriteString(h, strconv.Itoa(len(m.g.Nodes)))
	for _, n := range m.g.Nodes {
		h.Write([]byte{0})
		io.WriteString(h, m.g.Label(n)+"/"+strconv.Itoa(int(n.NIns)))
	}
	return h.Sum64()
}

// ckErrf builds the InvalidConfig machine check every malformed-restore
// path returns.
func ckErrf(format string, args ...interface{}) error {
	return machcheck.Newf(machcheck.InvalidConfig, "machine", "restore checkpoint: "+format, args...)
}

// maybeCheckpoint runs at the top of the cycle loop and captures a
// checkpoint when the interval is due. The resume cycle
// itself is skipped (it was just restored), and capture stops the
// moment an armed fault injector fires — post-fault state is tainted,
// and keeping only pre-fault checkpoints is what lets a supervisor
// treat "restore last checkpoint" as "restore clean state".
func (m *sim) maybeCheckpoint() error {
	every := m.cfg.CheckpointEvery
	if every <= 0 || m.cycle == 0 || m.cycle%every != 0 || m.cycle == m.resumedAt {
		return nil
	}
	if m.inj != nil && m.inj.Injected() {
		return nil
	}
	var telT0 time.Time
	if m.tel != nil {
		telT0 = time.Now()
	}
	ck := m.capture()
	m.ckID++
	ck.ID = m.ckID
	if m.cfg.CheckpointSink != nil {
		if err := m.cfg.CheckpointSink(ck); err != nil {
			return fmt.Errorf("machine: checkpoint sink at cycle %d: %w", m.cycle, err)
		}
	}
	if m.tel != nil {
		// Capture time spans snapshot plus sink — the full stall the
		// checkpoint interval imposes on the cycle loop.
		m.tel.checkpoints.Add(1)
		observeSeconds(m.tel.ckSec, time.Since(telT0))
	}
	ref := ck.Ref()
	m.lastCk = &ref
	return nil
}

// capture snapshots the full machine state. Every collection is emitted
// in a deterministic order (node id, then tag key; sorted names; sorted
// cycles) so identical states serialize to identical bytes.
func (m *sim) capture() *Checkpoint {
	ck := &Checkpoint{
		Version:   checkpointVersion,
		Cycle:     m.cycle,
		Graph:     m.graphFP(),
		Seed:      m.cfg.RandomSeed,
		Workers:   len(m.shs),
		Done:      m.done,
		EndCycle:  m.endCycle,
		EndVals:   append([]int64(nil), m.endVals...),
		Delivered: m.delivered,
		Stats: ckStats{
			Ops:            m.stats.Ops,
			MemOps:         m.stats.MemOps,
			Matches:        m.stats.Matches,
			MaxParallelism: m.stats.MaxParallelism,
			PeakMatchStore: m.stats.PeakMatchStore,
			Profile:        append([]int(nil), m.stats.Profile...),
		},
	}

	// Ready queues: per-node pending ranges in arrival order, ascending
	// node id (node→shard ownership is a partition, so walking nodes
	// visits every bucket exactly once).
	for node := range m.g.Nodes {
		sh := m.owner(int32(node))
		b := &sh.ready.buckets[node]
		pending := b.pending()
		if len(pending) == 0 {
			continue
		}
		snap := ckBucket{Node: node, Dirty: b.dirty}
		for i := range pending {
			f := &pending[i]
			snap.Firings = append(snap.Firings, ckFiring{
				Tag: m.tags.key(f.tgID), Port: int(f.port), Vals: append([]int64(nil), sh.frame(f)...),
			})
		}
		ck.Ready = append(ck.Ready, snap)
	}

	// Matching store: pending activations per node, sorted by tag key.
	for node := range m.shards {
		s := &m.shards[node]
		if s.e.n == 0 && len(s.more) == 0 {
			continue
		}
		nIns := int(m.g.Nodes[node].NIns)
		arena := m.owner(int32(node)).arena
		var ents []ckMatch
		add := func(tgID int32, e *matchEntry) {
			vals := make([]int64, nIns)
			for p := 0; p < nIns; p++ {
				if e.have&(uint64(1)<<uint(p)) != 0 {
					vals[p] = arena[int(e.vals)+p]
				}
			}
			ents = append(ents, ckMatch{Node: node, Tag: m.tags.key(tgID), Have: e.have, N: int(e.n), Vals: vals})
		}
		if s.e.n != 0 {
			add(s.e.tgID, &s.e)
		}
		for tgID, e := range s.more {
			add(tgID, e)
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Tag < ents[j].Tag })
		ck.Match = append(ck.Match, ents...)
	}

	// In-flight split-phase completions, one batch per due cycle,
	// ascending. The per-delayed grouping is flattened: delivery order is
	// the slice concatenation order — records due at one cycle share a
	// ring slot in park order, which the stable sort keeps — and release
	// hooks (race detection) are incompatible with checkpointing.
	var pending []delayed
	for _, slot := range m.ring {
		pending = append(pending, slot...)
	}
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
	for _, d := range pending {
		if n := len(ck.Inflight); n == 0 || ck.Inflight[n-1].At != d.at {
			ck.Inflight = append(ck.Inflight, ckInflight{At: d.at})
		}
		batch := &ck.Inflight[len(ck.Inflight)-1]
		for _, t := range d.tokens {
			batch.Toks = append(batch.Toks, ckTok{
				Node: int(t.node), Port: int(t.port), Val: t.val, Tag: m.tags.key(t.tgID),
			})
		}
	}

	// Memory store, by name. Aliased names serialize their shared cell
	// redundantly; restore writes them back in sorted order, and equal
	// values make the redundancy harmless.
	names := append([]string(nil), m.g.Prog.AllNames()...)
	sort.Strings(names)
	for _, name := range names {
		if m.g.Prog.IsArray(name) {
			if ck.Arrays == nil {
				ck.Arrays = map[string][]int64{}
			}
			ck.Arrays[name] = m.store.Array(name)
		} else {
			if ck.Scalars == nil {
				ck.Scalars = map[string]int64{}
			}
			ck.Scalars[name] = m.store.Get(name)
		}
	}

	// The stateful units, in the order their Save methods visit.
	ck.IFull = m.istruct.Save(func(name string, idx int64, w waiter) {
		ck.IDeferred = append(ck.IDeferred, ckDeferred{Array: name, Idx: idx, Node: int(w.node), Tag: m.tags.key(w.tgID)})
	})
	ck.NextAct = m.procs.Save(func(id int, info *dfg.CallInfo, caller int32, resolved map[string]string) {
		ck.Acts = append(ck.Acts, ckActivation{ID: id, Apply: int(info.Apply), CallerTag: m.tags.key(caller), Resolved: resolved})
	})

	// RNG shuffle histories (seeded-random mode only).
	if m.rng != nil {
		ck.MainShuffles = append([]int(nil), m.shufLog...)
		ck.ShardShuffles = make([][]int, len(m.shs))
		for i, sh := range m.shs {
			ck.ShardShuffles[i] = append([]int(nil), sh.shufLog...)
		}
	}
	return ck
}

// internKey re-interns a serialized tag key.
func (m *sim) internKey(key string) (int32, error) {
	tg, err := token.ParseKey(key)
	if err != nil {
		return 0, ckErrf("%v", err)
	}
	return m.tags.intern(tg), nil
}

// inPort reports whether port is one of node's input ports: the operand
// frame slot and matching bit a restored token or firing may name.
func (m *sim) inPort(node, port int) bool { return port >= 0 && port < int(m.g.Nodes[node].NIns) }

// restore loads a checkpoint into a freshly initialized sim, in place of
// the cycle-0 start-token delivery. The sim's shards, stores, and units
// are already built; restore populates them and positions the cycle
// counter so the main loop resumes exactly where the original run left
// off.
func (m *sim) restore(ck *Checkpoint) error {
	if ck.Version != checkpointVersion {
		return ckErrf("version %d, want %d", ck.Version, checkpointVersion)
	}
	if ck.Graph != m.graphFP() {
		return ckErrf("checkpoint was taken on a different graph")
	}
	if ck.Seed != m.cfg.RandomSeed {
		return ckErrf("checkpoint seed %d, run seed %d", ck.Seed, m.cfg.RandomSeed)
	}
	if ck.Seed != 0 && ck.Workers != len(m.shs) {
		return ckErrf("seeded-random checkpoints are bound to their worker count (checkpoint %d, run %d)", ck.Workers, len(m.shs))
	}
	if ck.Cycle < 0 || ck.Cycle > m.cfg.MaxCycles {
		return ckErrf("cycle %d out of range", ck.Cycle)
	}
	if len(ck.EndVals) != len(m.endVals) {
		return ckErrf("end arity %d, want %d", len(ck.EndVals), len(m.endVals))
	}

	m.resumedAt = ck.Cycle
	m.ckID = ck.ID
	ref := ck.Ref()
	m.lastCk = &ref
	m.cycle = ck.Cycle
	m.done = ck.Done
	m.endCycle = ck.EndCycle
	copy(m.endVals, ck.EndVals)
	m.delivered = ck.Delivered
	m.stats.Ops = ck.Stats.Ops
	m.stats.MemOps = ck.Stats.MemOps
	m.stats.Matches = ck.Stats.Matches
	m.stats.MaxParallelism = ck.Stats.MaxParallelism
	m.stats.PeakMatchStore = ck.Stats.PeakMatchStore
	m.stats.Profile = append([]int(nil), ck.Stats.Profile...)

	// Memory store (sorted order: deterministic even if a binding change
	// made previously distinct names collide).
	names := map[string]bool{}
	for _, n := range m.g.Prog.AllNames() {
		names[n] = true
	}
	scalarNames := make([]string, 0, len(ck.Scalars))
	for name := range ck.Scalars {
		scalarNames = append(scalarNames, name)
	}
	sort.Strings(scalarNames)
	for _, name := range scalarNames {
		if !names[name] || m.g.Prog.IsArray(name) {
			return ckErrf("unknown scalar %q", name)
		}
		m.store.Set(name, ck.Scalars[name])
	}
	arrayNames := make([]string, 0, len(ck.Arrays))
	for name := range ck.Arrays {
		arrayNames = append(arrayNames, name)
	}
	sort.Strings(arrayNames)
	for _, name := range arrayNames {
		vals := ck.Arrays[name]
		if !names[name] || !m.g.Prog.IsArray(name) || len(vals) != m.g.Prog.ArraySize(name) {
			return ckErrf("array %q does not match the program's declaration", name)
		}
		for i, v := range vals {
			if err := m.store.SetIdx(name, int64(i), v); err != nil {
				return ckErrf("array %q: %v", name, err)
			}
		}
	}

	// The stateful units.
	for name, bits := range ck.IFull {
		if !m.istruct.SetFull(name, bits) {
			return ckErrf("I-structure %q does not match the graph", name)
		}
	}
	for _, d := range ck.IDeferred {
		if d.Node < 0 || d.Node >= len(m.g.Nodes) {
			return ckErrf("deferred read node %d out of range", d.Node)
		}
		tgID, err := m.internKey(d.Tag)
		if err != nil {
			return err
		}
		if !m.istruct.Defer(d.Array, d.Idx, waiter{node: int32(d.Node), tgID: tgID, dep: -1}) {
			return ckErrf("deferred read of unknown I-structure %q", d.Array)
		}
	}
	if (len(ck.Acts) > 0 || ck.NextAct > 0) && !m.procs.Linked() {
		return ckErrf("checkpoint has procedure activations but the graph has no calls")
	}
	m.procs.Restore(ck.NextAct)
	for _, a := range ck.Acts {
		info := m.procs.Call(a.Apply)
		if info == nil {
			return ckErrf("activation %d references unknown apply node %d", a.ID, a.Apply)
		}
		tgID, err := m.internKey(a.CallerTag)
		if err != nil {
			return err
		}
		m.procs.Reopen(a.ID, info, tgID, a.Resolved)
	}

	// Ready queues: rebuild each bucket's pending range verbatim. The
	// dirty flag is restored rather than recomputed because sortFirings
	// is an unstable sort — re-sorting an already-sorted range could
	// reorder equal keys, and byte-exactness demands the restored queue
	// behave identically to the original.
	lastNode := -1
	for bi := range ck.Ready {
		snap := &ck.Ready[bi]
		if snap.Node <= lastNode || snap.Node >= len(m.g.Nodes) {
			return ckErrf("ready bucket order violated at node %d", snap.Node)
		}
		lastNode = snap.Node
		if len(snap.Firings) == 0 {
			return ckErrf("empty ready bucket for node %d", snap.Node)
		}
		sh := m.owner(int32(snap.Node))
		b := &sh.ready.buckets[snap.Node]
		o := &m.p.Ops[snap.Node]
		for _, f := range snap.Firings {
			// An activation's frame holds one operand when every token
			// fires the node on its own, else one per input port.
			want := int(o.NIns)
			if o.Flags&dfg.OpSolo != 0 {
				want = 1
			}
			if len(f.Vals) != want {
				return ckErrf("node %d firing carries %d operands", snap.Node, len(f.Vals))
			}
			if !m.inPort(snap.Node, f.Port) {
				return ckErrf("node %d firing arrived on port %d", snap.Node, f.Port)
			}
			tgID, err := m.internKey(f.Tag)
			if err != nil {
				return err
			}
			off := sh.getVals(int32(want))
			copy(sh.arena[off:], f.Vals)
			sh.ready.push(int32(snap.Node), tgID, int32(f.Port), off, int32(want))
		}
		b.dirty = snap.Dirty
	}

	// Matching store.
	for i := range ck.Match {
		cm := &ck.Match[i]
		if cm.Node < 0 || cm.Node >= len(m.g.Nodes) {
			return ckErrf("match entry node %d out of range", cm.Node)
		}
		nIns := int(m.g.Nodes[cm.Node].NIns)
		if len(cm.Vals) != nIns || cm.N <= 0 || cm.N >= nIns ||
			cm.Have>>uint(nIns) != 0 || bits.OnesCount64(cm.Have) != cm.N {
			return ckErrf("match entry at node %d is not a partial activation", cm.Node)
		}
		tgID, err := m.internKey(cm.Tag)
		if err != nil {
			return err
		}
		if m.matchLookup(int32(cm.Node), tgID) != nil {
			return ckErrf("duplicate match entry at node %d tag %q", cm.Node, cm.Tag)
		}
		sh := m.owner(int32(cm.Node))
		e := m.matchInsert(sh, int32(cm.Node), tgID, int32(nIns))
		e.have, e.n = cm.Have, int32(cm.N)
		copy(sh.arena[e.vals:], cm.Vals)
	}
	m.matchLive = len(ck.Match)

	// In-flight memory completions.
	lastAt := ck.Cycle
	for i := range ck.Inflight {
		inf := &ck.Inflight[i]
		if inf.At <= lastAt {
			return ckErrf("in-flight batch at cycle %d is not in the future", inf.At)
		}
		lastAt = inf.At
		toks := make([]tok, 0, len(inf.Toks))
		for _, ct := range inf.Toks {
			if ct.Node < 0 || ct.Node >= len(m.g.Nodes) || !m.inPort(ct.Node, ct.Port) {
				return ckErrf("in-flight token to node %d port %d out of range", ct.Node, ct.Port)
			}
			tgID, err := m.internKey(ct.Tag)
			if err != nil {
				return err
			}
			toks = append(toks, tok{val: ct.Val, node: int32(ct.Node), port: int32(ct.Port), tgID: tgID, dep: -1})
		}
		m.parkAt(inf.At, toks, nil)
	}

	// RNG streams: fast-forward by replaying the shuffle-length history
	// (a no-op shuffle of length n consumes exactly the randomness the
	// original call did).
	if m.rng != nil {
		// No run logs more than one shuffle per cycle, each of a ready set
		// no larger than the tokens delivered so far.
		for _, log := range append([][]int{ck.MainShuffles}, ck.ShardShuffles...) {
			for _, n := range log {
				if len(log) > ck.Cycle || n < 0 || int64(n) > ck.Delivered {
					return ckErrf("%d shuffles in %d cycles, one of %d firings with %d tokens delivered", len(log), ck.Cycle, n, ck.Delivered)
				}
			}
		}
		noop := func(i, j int) {}
		for _, n := range ck.MainShuffles {
			m.rng.Shuffle(n, noop)
		}
		m.shufLog = append(m.shufLog[:0], ck.MainShuffles...)
		for i, sh := range m.shs {
			if i < len(ck.ShardShuffles) {
				for _, n := range ck.ShardShuffles[i] {
					sh.rng.Shuffle(n, noop)
				}
				sh.shufLog = append(sh.shufLog[:0], ck.ShardShuffles[i]...)
			}
		}
	}
	return nil
}
