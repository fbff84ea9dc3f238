package obs

import (
	"fmt"
	"sort"
	"strings"
)

// NodeStats is the per-node counter block of one observed run. Counter
// semantics (see OBSERVABILITY.md):
//
//   - Firings: operator activations issued.
//   - Consumed / Emitted: tokens matched into firings / placed on arcs.
//   - MatchWaits: tokens that had to wait in the matching store for
//     partner operands (the paper's synchronization cost, §5).
//   - MemStallCycles: cycles beyond the issue cycle spent waiting on
//     split-phase memory (cost−1 summed over memory firings, §2.2).
type NodeStats struct {
	Meta           NodeMeta `json:"meta"`
	Firings        int64    `json:"firings"`
	Consumed       int64    `json:"consumed"`
	Emitted        int64    `json:"emitted"`
	MatchWaits     int64    `json:"matchWaits"`
	MemStallCycles int64    `json:"memStallCycles"`
	// LamportMax is the node's maximum Lamport logical timestamp
	// (channel-engine runs with clock tracking; 0 elsewhere) — the causal
	// depth of the node's deepest firing.
	LamportMax int64 `json:"lamportMax,omitempty"`
}

// KindStats aggregates NodeStats over an operator kind.
type KindStats struct {
	Kind           string `json:"kind"`
	Nodes          int    `json:"nodes"`
	Firings        int64  `json:"firings"`
	Consumed       int64  `json:"consumed"`
	Emitted        int64  `json:"emitted"`
	MatchWaits     int64  `json:"matchWaits"`
	MemStallCycles int64  `json:"memStallCycles"`
}

// HistBin is one bin of the parallelism histogram: Cycles cycles issued
// exactly Parallelism operations.
type HistBin struct {
	Parallelism int `json:"parallelism"`
	Cycles      int `json:"cycles"`
}

// Report is the machine-readable outcome of one observed run.
type Report struct {
	// Engine names the engine that produced the run ("machine",
	// "channels").
	Engine string `json:"engine,omitempty"`
	// Schema optionally names the translation configuration, for diff
	// reports.
	Schema string `json:"schema,omitempty"`
	// Cycles is the run's total execution time (0 for engines without a
	// clock).
	Cycles int `json:"cycles"`
	// Ops is the total number of firings (sum of per-node Firings).
	Ops int64 `json:"ops"`
	// MatchWaits and MemStallCycles are suite-wide sums of the per-node
	// counters.
	MatchWaits     int64 `json:"matchWaits"`
	MemStallCycles int64 `json:"memStallCycles"`
	// Nodes holds the per-node counters, indexed by node id.
	Nodes []NodeStats `json:"nodes"`
	// ByKind aggregates Nodes per operator kind, busiest first.
	ByKind []KindStats `json:"byKind"`
	// CriticalPath is the longest dependence chain of the firing DAG
	// (nil unless Options.CriticalPath was set).
	CriticalPath *CriticalPath `json:"criticalPath,omitempty"`
	// Histogram distributes cycles over parallelism levels (from the
	// machine's per-cycle issue profile; nil for engines without one).
	Histogram []HistBin `json:"parallelismHistogram,omitempty"`
}

// Report assembles the run's report. cycles and profile come from the
// engine's own statistics (pass 0/nil for engines without a clock).
func (c *Collector) Report(cycles int, profile []int) *Report {
	if c == nil {
		return nil
	}
	r := &Report{Cycles: cycles, Nodes: append([]NodeStats(nil), c.nodes...)}
	r.aggregate()
	r.Histogram = histogram(profile)
	r.CriticalPath = c.criticalPath()
	return r
}

// NewCountersReport builds a firing-counts-only report (the shape the
// channel engine produces from NodeCounters): meta must be the graph's
// node metadata, fires the per-node firing counts, and clocks the
// per-node maximum Lamport timestamps (nil when not tracked), all
// indexed by node id.
func NewCountersReport(meta []NodeMeta, fires, clocks []int64) *Report {
	r := &Report{Nodes: make([]NodeStats, len(meta))}
	for i, m := range meta {
		r.Nodes[i] = NodeStats{Meta: m}
		if i < len(fires) {
			r.Nodes[i].Firings = fires[i]
		}
		if i < len(clocks) {
			r.Nodes[i].LamportMax = clocks[i]
		}
	}
	r.aggregate()
	return r
}

// aggregate fills the run totals and the per-kind rollup from Nodes.
func (r *Report) aggregate() {
	byKind := map[string]*KindStats{}
	for _, ns := range r.Nodes {
		r.Ops += ns.Firings
		r.MatchWaits += ns.MatchWaits
		r.MemStallCycles += ns.MemStallCycles
		ks := byKind[ns.Meta.Kind]
		if ks == nil {
			ks = &KindStats{Kind: ns.Meta.Kind}
			byKind[ns.Meta.Kind] = ks
		}
		ks.Nodes++
		ks.Firings += ns.Firings
		ks.Consumed += ns.Consumed
		ks.Emitted += ns.Emitted
		ks.MatchWaits += ns.MatchWaits
		ks.MemStallCycles += ns.MemStallCycles
	}
	for _, ks := range byKind {
		r.ByKind = append(r.ByKind, *ks)
	}
	sort.Slice(r.ByKind, func(i, j int) bool {
		a, b := r.ByKind[i], r.ByKind[j]
		if a.Firings != b.Firings {
			return a.Firings > b.Firings
		}
		return a.Kind < b.Kind
	})
}

// histogram folds the per-cycle issue profile into parallelism bins.
func histogram(profile []int) []HistBin {
	if len(profile) == 0 {
		return nil
	}
	counts := map[int]int{}
	for _, p := range profile {
		counts[p]++
	}
	bins := make([]HistBin, 0, len(counts))
	for p, n := range counts {
		bins = append(bins, HistBin{Parallelism: p, Cycles: n})
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i].Parallelism < bins[j].Parallelism })
	return bins
}

// NodeFirings returns the per-node firing counts, indexed by node id —
// the engine-agnostic shape cross-engine tests compare.
func (r *Report) NodeFirings() []int64 {
	out := make([]int64, len(r.Nodes))
	for i, ns := range r.Nodes {
		out[i] = ns.Firings
	}
	return out
}

// CriticalPathLength returns the longest dependence chain's length in
// cycles, or 0 when the critical path was not recorded.
func (r *Report) CriticalPathLength() int64 {
	if r.CriticalPath == nil {
		return 0
	}
	return r.CriticalPath.Length
}

// Text renders the report for humans: run totals, the busiest nodes
// (top rows of the per-node table; top <= 0 means all), the per-kind
// aggregation, the parallelism histogram, and the critical path.
func (r *Report) Text(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles: %d   ops: %d   match waits: %d   mem stall cycles: %d\n",
		r.Cycles, r.Ops, r.MatchWaits, r.MemStallCycles)

	nodes := append([]NodeStats(nil), r.Nodes...)
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i], nodes[j]
		if a.Firings != b.Firings {
			return a.Firings > b.Firings
		}
		return a.Meta.Node < b.Meta.Node
	})
	shown := len(nodes)
	if top > 0 && top < shown {
		shown = top
	}
	b.WriteString("\nper-node counters (busiest first):\n")
	fmt.Fprintf(&b, "  %-26s %8s %8s %8s %10s %10s\n", "node", "firings", "in", "out", "waits", "memstall")
	for _, ns := range nodes[:shown] {
		if ns.Firings == 0 && ns.MatchWaits == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-26s %8d %8d %8d %10d %10d\n",
			ns.Meta.Label, ns.Firings, ns.Consumed, ns.Emitted, ns.MatchWaits, ns.MemStallCycles)
	}
	if shown < len(nodes) {
		fmt.Fprintf(&b, "  … %d more nodes\n", len(nodes)-shown)
	}

	b.WriteString("\nby operator kind:\n")
	fmt.Fprintf(&b, "  %-12s %6s %8s %8s %8s %10s %10s\n", "kind", "nodes", "firings", "in", "out", "waits", "memstall")
	for _, ks := range r.ByKind {
		fmt.Fprintf(&b, "  %-12s %6d %8d %8d %8d %10d %10d\n",
			ks.Kind, ks.Nodes, ks.Firings, ks.Consumed, ks.Emitted, ks.MatchWaits, ks.MemStallCycles)
	}

	if len(r.Histogram) > 0 {
		b.WriteString("\nparallelism histogram (ops issued per cycle → cycles):\n")
		for _, bin := range r.Histogram {
			fmt.Fprintf(&b, "  %4d → %6d\n", bin.Parallelism, bin.Cycles)
		}
	}

	if cp := r.CriticalPath; cp != nil {
		b.WriteString("\n" + cp.Text())
	}
	return b.String()
}
