// Package obs is the shared observability layer of the two dataflow
// execution engines (internal/machine and internal/chanexec). It turns
// the paper's qualitative claims — parallelism profiles, critical paths,
// synchronization counts (§3, §5, §6) — into machine-readable data:
//
//   - per-node counters keyed by dfg node id and operator kind: firings,
//     tokens consumed and emitted, matching-store waits, and split-phase
//     memory-latency stall cycles;
//   - a cycle-stamped event stream with pluggable sinks (in-memory ring
//     buffer, NDJSON writer, the historical trace format);
//   - post-run analyses: critical-path extraction over the firing DAG
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

// Journal receives the causal execution journal: one record per firing
// carrying the full set of operand-producer firing ids (the provenance
// DAG, generalizing the critical-path collector's single
// latest-finishing link), one record per matching-store park, and the
// run-ending fault/abort records. Implementations live in
// internal/obs/journal; the engines only ever see this interface, so
// journal collection stays nil-safe and zero-cost when disabled.
//
// RecordFire is called once per firing, in engine issue order; the
// firing's id is its zero-based call index (identical to the id Fire
// returns). deps holds the producer firing ids of every operand the
// firing consumed (negative ids — initial tokens — are never passed);
// the callee owns the slice.
type Journal interface {
	RecordFire(node, cycle, cost, port int, tag string, deps []int32)
	RecordPark(node, cycle, port int, tag string, dep int32)
	RecordFault(node, cycle int, detail string)
	RecordAbort(cycle int, check string)
}

// firingRec is one recorded operator firing: a node of the firing DAG.
type firingRec struct {
	node int32
	// pred is the input firing on the longest dependence chain into this
	// firing (noDep at the start of a chain).
	pred int32
	cost int32
	// cycle is the engine cycle the firing issued at.
	cycle int32
	// finish is the length in cycles of the longest dependence chain
	// ending with this firing's completion.
	finish int64
	tag    string
}

// Collector gathers per-node counters, streams events to an optional
// sink, and (optionally) records the firing DAG for critical-path
// extraction. It is single-goroutine (the cycle-driven machine); the
// concurrent channel engine uses NodeCounters instead.
//
// A nil *Collector is valid: every method is a no-op and Fire returns
// noDep, so engines thread one pointer and pay one branch when
// observability is disabled.
type Collector struct {
	meta     []NodeMeta
	nodes    []NodeStats
	sink     Sink
	critical bool
	journal  Journal
	firings  []firingRec
	endID    int
}

// Options configures a Collector.
type Options struct {
	// Sink receives the cycle-stamped event stream (nil for counters
	// only).
	Sink Sink
	// CriticalPath records every firing's longest dependence chain so
	// Report can extract the critical path. Costs one small record per
	// firing.
	CriticalPath bool
	// Journal receives the causal execution journal (nil to disable).
	// Enabling it also records the firing DAG, since journal records are
	// keyed by firing id.
	Journal Journal
}

// NewCollector prepares a collector for one run of g.
func NewCollector(g *dfg.Graph, opt Options) *Collector {
	meta := g.Meta()
	c := &Collector{meta: meta, sink: opt.Sink, critical: opt.CriticalPath, journal: opt.Journal, endID: g.EndID}
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

// CriticalPathEnabled reports whether the firing DAG is being recorded.
func (c *Collector) CriticalPathEnabled() bool { return c != nil && c.critical }

// DAGEnabled reports whether firings must carry producer ids — true when
// either the critical path or the causal journal is being recorded.
func (c *Collector) DAGEnabled() bool { return c != nil && (c.critical || c.journal != nil) }

// JournalEnabled reports whether the full per-firing operand-producer
// sets (and matching-store parks) are being journaled.
func (c *Collector) JournalEnabled() bool { return c != nil && c.journal != nil }

// AddSink attaches an additional event sink.
func (c *Collector) AddSink(s Sink) {
	if c == nil || s == nil {
		return
	}
	if c.sink == nil {
		c.sink = s
		return
	}
	c.sink = MultiSink{c.sink, s}
}

// Fire records one operator firing: node and issue cycle, the firing's
// cost in cycles (1 for ordinary operators, the split-phase latency for
// memory operations), the number of tokens consumed, the arrival port
// (meaningful for any-arrival operators; 0 otherwise), the producer
// firing of the firing's latest input (dep), the full set of producer
// firings of its operands (deps; nil unless journaling), and the token
// tag. It returns the firing's id for threading onto the tokens the
// firing emits, or noDep when the firing DAG is not being recorded.
func (c *Collector) Fire(node, cycle, cost, consumed, port int, dep int32, deps []int32, tag string) int32 {
	if c == nil {
		return noDep
	}
	ns := &c.nodes[node]
	ns.Firings++
	ns.Consumed += int64(consumed)
	if cost > 1 {
		ns.MemStallCycles += int64(cost - 1)
	}
	if c.sink != nil {
		c.sink.Emit(Event{Cycle: cycle, Type: EvFire, Node: node, Kind: ns.Meta.Kind, Tag: tag, Cost: cost})
	}
	if c.journal != nil {
		c.journal.RecordFire(node, cycle, cost, port, tag, deps)
	} else if !c.critical {
		return noDep
	}
	rec := firingRec{node: int32(node), pred: dep, cost: int32(cost), cycle: int32(cycle), tag: tag}
	rec.finish = int64(cost)
	if dep >= 0 {
		rec.finish += c.firings[dep].finish
	}
	c.firings = append(c.firings, rec)
	return int32(len(c.firings) - 1)
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
// tokens); both feed the journal's park records.
func (c *Collector) Wait(node, cycle, port int, dep int32, tag string) {
	if c == nil {
		return
	}
	c.nodes[node].MatchWaits++
	if c.sink != nil {
		c.sink.Emit(Event{Cycle: cycle, Type: EvWait, Node: node, Kind: c.nodes[node].Meta.Kind, Tag: tag})
	}
	if c.journal != nil {
		c.journal.RecordPark(node, cycle, port, tag, dep)
	}
}

// Fault records an injected fault at node (-1 when the fault has no
// single node, e.g. a lost memory response); detail is the fault class.
func (c *Collector) Fault(node, cycle int, detail string) {
	if c == nil {
		return
	}
	if c.journal != nil {
		c.journal.RecordFault(node, cycle, detail)
	}
	if c.sink == nil {
		return
	}
	kind := ""
	if node >= 0 && node < len(c.nodes) {
		kind = c.nodes[node].Meta.Kind
	}
	c.sink.Emit(Event{Cycle: cycle, Type: EvFault, Node: node, Kind: kind, Detail: detail})
}

// Abort records a failed machine check ending the run; detail is the
// check name. Aborted runs still produce a full report, so partial
// executions stay profilable.
func (c *Collector) Abort(cycle int, detail string) {
	if c == nil {
		return
	}
	if c.journal != nil {
		c.journal.RecordAbort(cycle, detail)
	}
	if c.sink == nil {
		return
	}
	c.sink.Emit(Event{Cycle: cycle, Type: EvAbort, Node: -1, Detail: detail})
}

// MaxDep returns whichever of two producer firings completes later —
// the dependence a token matched from both inherits.
func (c *Collector) MaxDep(a, b int32) int32 {
	if c == nil || (!c.critical && c.journal == nil) {
		return noDep
	}
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if c.firings[a].finish >= c.firings[b].finish {
		return a
	}
	return b
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
