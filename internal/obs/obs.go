// Package obs is the shared observability layer of the two dataflow
// execution engines (internal/machine and internal/chanexec). It turns
// the paper's qualitative claims — parallelism profiles, critical paths,
// synchronization counts (§3, §5, §6) — into machine-readable data:
//
//   - per-node counters keyed by dfg node id and operator kind: firings,
//     tokens consumed and emitted, matching-store waits, and split-phase
//     memory-latency stall cycles;
//   - the run's Record: every firing with its operands' producer
//     firings, every matching-store park, the faults and the abort — the
//     firing DAG that the causal journal (internal/obs/journal), the
//     critical path, the NDJSON event stream and the historical trace
//     format all read, the last two written from it when the run returns
//     (WriteEvents, WriteTrace);
//   - post-run analyses: critical-path extraction over the Record
//     (the longest dependence chain, with per-operator attribution),
//     parallelism-profile histograms, and schema-vs-schema diff reports
//     (Compare) that make experiment deltas machine-readable.
//
// A nil *Collector is valid everywhere and every method on it is a
// no-op, so an engine instrumented with obs pays only a nil check per
// firing when observability is off (verified by BenchmarkObsDisabled).
// The event schema and counter semantics are documented in
// OBSERVABILITY.md at the repository root.
package obs

import (
	"ctdf/internal/dfg"
)

// NodeMeta is the stable per-node metadata used for attribution; it is
// the dfg graph's own metadata record.
type NodeMeta = dfg.Meta

// noDep marks a token that carries no recorded producer firing.
const noDep int32 = -1

// Collector gathers per-node counters and (optionally) keeps the run's
// Record, which the critical path, the causal journal, the event stream
// and the trace read. It is single-goroutine (the cycle-driven
// machine); the concurrent channel engine uses NodeCounters instead.
//
// A nil *Collector is valid: every method is a no-op and Fire returns
// noDep, so engines thread one pointer and pay one branch when
// observability is disabled.
type Collector struct {
	meta  []NodeMeta
	nodes []NodeStats
	endID int
	// rec is the run's record (nil unless Options.CriticalPath); tagKey
	// renders the engine's interned tag ids (BindTags).
	rec    *Record
	tagKey func(int32) string
}

// Options configures a Collector.
type Options struct {
	// CriticalPath keeps the run's Record, so Report can extract the
	// critical path, journal.New can build the causal journal, and
	// WriteEvents / WriteTrace can render the run. Costs a 32-byte row per
	// firing, 4 bytes per producer edge and a 20-byte row per park.
	CriticalPath bool
}

// NewCollector prepares a collector for one run of g.
func NewCollector(g *dfg.Graph, opt Options) *Collector {
	meta := g.Meta()
	c := &Collector{meta: meta, endID: int(g.EndID)}
	if opt.CriticalPath {
		c.rec = &Record{}
	}
	c.nodes = make([]NodeStats, len(meta))
	for i, m := range meta {
		c.nodes[i].Meta = m
	}
	return c
}

// Meta returns the node metadata the collector attributes against.
func (c *Collector) Meta() []NodeMeta {
	if c == nil {
		return nil
	}
	return c.meta
}

// Record returns the run's record, or nil unless Options.CriticalPath was
// set. The engine appends to it until the run returns.
func (c *Collector) Record() *Record {
	if c == nil {
		return nil
	}
	return c.rec
}

// BindTags attaches the engine's tag table: key renders an interned tag
// id, the form Fire and Wait take, to its canonical key. The engine calls
// it before the first event.
func (c *Collector) BindTags(key func(id int32) string) {
	if c != nil {
		c.tagKey = key
	}
}

// Fire records one operator firing: node and issue cycle, the firing's
// cost in cycles (1 for ordinary operators, the split-phase latency for
// memory operations), the number of tokens consumed, the arrival port
// (meaningful for any-arrival operators; 0 otherwise), the interned tag,
// and the producer firings of its operands in arrival order (nil unless
// the record is kept), which the record copies. It returns the firing's
// id for threading onto the tokens the firing emits, or noDep when the
// record is not kept.
func (c *Collector) Fire(node, cycle, cost, consumed, port int, tag int32, deps []int32) int32 {
	if c == nil {
		return noDep
	}
	ns := &c.nodes[node]
	ns.Firings++
	ns.Consumed += int64(consumed)
	if cost > 1 {
		ns.MemStallCycles += int64(cost - 1)
	}
	if c.rec == nil {
		return noDep
	}
	c.renderTags(tag)
	return c.rec.AddFire(int32(node), int32(cycle), int32(cost), int32(port), tag, deps)
}

// renderTags extends the record's tag table through id. Engines intern
// tags densely, so each key is rendered once, on first sight.
func (c *Collector) renderTags(id int32) {
	for int(id) >= len(c.rec.Tags) {
		c.rec.Tags = append(c.rec.Tags, c.tagKey(int32(len(c.rec.Tags))))
	}
}

// Emitted credits n emitted tokens to node.
func (c *Collector) Emitted(node, n int) {
	if c == nil {
		return
	}
	c.nodes[node].Emitted += int64(n)
}

// Wait records a token that had to wait in the matching store for its
// partner operands (ETS frame-memory pressure, §2.2). port is the
// arrival port and dep the token's producer firing (noDep for initial
// tokens); both feed the record's park rows.
func (c *Collector) Wait(node, cycle, port int, tag, dep int32) {
	if c == nil {
		return
	}
	c.nodes[node].MatchWaits++
	if c.rec != nil {
		c.renderTags(tag)
		c.rec.Parks = append(c.rec.Parks, Park{Node: int32(node), Cycle: int32(cycle), Port: int32(port), Tag: tag, Dep: dep})
	}
}

// Fault records an injected fault at node (-1 when the fault has no
// single node, e.g. a lost memory response); detail is the fault class.
func (c *Collector) Fault(node, cycle int, detail string) {
	if c == nil || c.rec == nil {
		return
	}
	c.rec.Faults = append(c.rec.Faults, Fault{Node: node, Cycle: cycle, Class: detail,
		fires: len(c.rec.Fires), parks: len(c.rec.Parks)})
}

// Abort records a failed machine check ending the run; detail is the
// check name. Aborted runs still produce a full report, so partial
// executions stay profilable.
func (c *Collector) Abort(cycle int, detail string) {
	if c == nil || c.rec == nil {
		return
	}
	c.rec.AbortCheck, c.rec.AbortCycle = detail, cycle
}

// NodeCounters is the lock-free per-node firing counter the concurrent
// channel engine uses: each node's count must be updated only by the
// goroutine that owns the node (chanexec's one-goroutine-per-operator
// discipline), which makes plain int64 slots race-free.
type NodeCounters struct {
	fires  []int64
	clocks []int64
}

// NewNodeCounters allocates counters for n nodes.
func NewNodeCounters(n int) *NodeCounters {
	return &NodeCounters{fires: make([]int64, n), clocks: make([]int64, n)}
}

// Inc counts one firing of node. A nil receiver is a no-op.
func (c *NodeCounters) Inc(node int) {
	if c == nil {
		return
	}
	c.fires[node]++
}

// ObserveClock records a firing's Lamport logical timestamp
// (max over operand token clocks + 1); the per-node maximum gives the
// channel engine's causal depth profile. Same ownership discipline as
// Inc: only the node's goroutine may call it.
func (c *NodeCounters) ObserveClock(node int, clock int64) {
	if c == nil {
		return
	}
	if clock > c.clocks[node] {
		c.clocks[node] = clock
	}
}

// Firings returns the per-node firing counts (indexed by node id). Call
// only after the engine has quiesced.
func (c *NodeCounters) Firings() []int64 {
	if c == nil {
		return nil
	}
	return append([]int64(nil), c.fires...)
}

// Clocks returns the per-node maximum Lamport timestamps (indexed by
// node id; 0 for nodes that never fired). Call only after the engine has
// quiesced. On the machine engine the same quantity is the journal's
// per-node maximum causal depth, which makes the two engines' causal
// orders directly comparable (see internal/chanexec's Lamport tests).
func (c *NodeCounters) Clocks() []int64 {
	if c == nil {
		return nil
	}
	return append([]int64(nil), c.clocks...)
}
