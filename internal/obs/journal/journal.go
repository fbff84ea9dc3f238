// Package journal records and replays causal execution journals of the
// machine engine. A journal is the run's obs.Record — for every firing,
// the full set of operand-producer firings (the complete provenance DAG,
// whose first-max-finish path is the collector's critical path), plus
// the matching-store park events and tag lineage. Because the translated
// graphs are determinate (paper §3, §5), one journal is a complete,
// replayable description of every run of the same configuration, which
// is what makes the three consumers built on top of it sound:
//
//   - causal queries: Explain (the backward cause cone of a firing) and
//     Impact (the forward slice), surfaced as `ctdf trace -explain`;
//   - time-travel replay: Replay re-executes the machine engine against
//     the journal's own recorded configuration and diffs the two runs
//     firing by firing — a translation-validation oracle at runtime
//     granularity (complementing `ctdf vet`), with StateAt dumping the
//     live tokens and matching-store contents at any cycle;
//   - standard exporters: Chrome Trace Event JSON (Perfetto) and pprof
//     profile.proto (`go tool pprof`), in chrome.go and pprof.go.
//
// The journal format (NDJSON, transparently gzipped for ".gz" paths) is
// documented in OBSERVABILITY.md.
package journal

import (
	"fmt"
	"sort"
	"strings"

	"ctdf/internal/dfg"
	"ctdf/internal/obs"
)

// Version is the journal format version.
const Version = 1

// Config captures the machine configuration a journal was recorded
// under — everything Replay needs to re-execute the run bit-for-bit.
// Zero values mean engine defaults, exactly as in machine.Config.
type Config struct {
	Processors int               `json:"processors,omitempty"`
	MemLatency int               `json:"memLatency,omitempty"`
	MaxCycles  int               `json:"maxCycles,omitempty"`
	MaxOps     int64             `json:"maxOps,omitempty"`
	RandomSeed int64             `json:"randomSeed,omitempty"`
	Workers    int               `json:"workers,omitempty"`
	Binding    map[string]string `json:"binding,omitempty"`
	// FaultClass/FaultSite/FaultDelay reconstruct the deterministic fault
	// injector, so replaying a fault-injected journal reproduces the same
	// machcheck abort at the same cycle (see internal/chaos).
	FaultClass string `json:"faultClass,omitempty"`
	FaultSite  int64  `json:"faultSite,omitempty"`
	FaultDelay int    `json:"faultDelay,omitempty"`
}

// Journal is one recorded machine-engine run: the run's obs.Record — the
// provenance DAG, parks, faults and abort — with what replaying and
// rendering it needs.
type Journal struct {
	Version int    `json:"version"`
	Engine  string `json:"engine"`
	// Label optionally names the run (workload/schema), for reports.
	Label string `json:"label,omitempty"`
	// Nodes is the per-node attribution metadata, indexed by node id.
	Nodes  []obs.NodeMeta `json:"-"`
	Config Config         `json:"config"`
	// Cycles is the run's total execution time.
	Cycles int `json:"cycles"`

	obs.Record `json:"-"`

	// graph is the executed graph when the journal was recorded (or
	// replayed) in-process; file-loaded journals parse graphText, the dfg
	// text the file carried (empty for linked procedure graphs, which dfg
	// format v1 cannot serialize), on demand.
	graph     *dfg.Graph
	graphText string
}

// New builds the journal of one machine run of g from the record its
// collector kept (obs.Options.CriticalPath). label names the run in
// reports; cfg must describe the machine configuration the run used, so
// the journal replays identically; cycles is the run's total execution
// time.
func New(g *dfg.Graph, col *obs.Collector, label string, cfg Config, cycles int) *Journal {
	j := &Journal{Version: Version, Engine: "machine", Label: label, Nodes: col.Meta(), Config: cfg, Cycles: cycles, graph: g}
	if rec := col.Record(); rec != nil {
		j.Record = *rec
	}
	return j
}

// Graph returns the journal's executed graph, parsing the recorded graph
// text on demand for file-loaded journals.
func (j *Journal) Graph() (*dfg.Graph, error) {
	if j.graph != nil {
		return j.graph, nil
	}
	if j.graphText == "" {
		return nil, fmt.Errorf("journal: no graph recorded (linked procedure graphs are not serializable); replay requires the in-memory graph")
	}
	g, err := dfg.ParseText(strings.NewReader(j.graphText))
	if err != nil {
		return nil, fmt.Errorf("journal: parsing recorded graph: %w", err)
	}
	j.graph = g
	return g, nil
}

// label returns node's diagnostic label ("d7: store x").
func (j *Journal) label(node int32) string {
	if int(node) < len(j.Nodes) {
		return j.Nodes[node].Label
	}
	return fmt.Sprintf("d%d", node)
}

// checkIDs validates every row's node and every park's producer, so
// queries and depth computations cannot panic on a journal whose rows
// were edited after it was built. Producer edges point strictly backward
// by construction (obs.Record.AddFire).
func (j *Journal) checkIDs() error {
	for i := range j.Fires {
		if n := j.Fires[i].Node; n < 0 || int(n) >= len(j.Nodes) {
			return fmt.Errorf("journal: fire %d names unknown node %d", i, n)
		}
	}
	for i := range j.Parks {
		p := &j.Parks[i]
		if p.Node < 0 || int(p.Node) >= len(j.Nodes) {
			return fmt.Errorf("journal: park %d names unknown node %d", i, p.Node)
		}
		if p.Dep >= int32(len(j.Fires)) {
			return fmt.Errorf("journal: park %d names invalid producer %d", i, p.Dep)
		}
	}
	return nil
}

// Depths returns every firing's Lamport causal depth: 1 + the maximum
// depth over its operand producers (1 for firings fed only by initial
// tokens). This is an engine-independent property of the determinate
// provenance DAG — the channel engine's Lamport clocks compute the same
// quantity with no global clock at all (asserted cross-engine in
// internal/chanexec).
func (j *Journal) Depths() []int64 {
	depths := make([]int64, len(j.Fires))
	for i := range j.Fires {
		var max int64
		for _, d := range j.Deps(int32(i)) {
			if depths[d] > max {
				max = depths[d]
			}
		}
		depths[i] = max + 1
	}
	return depths
}

// NodeMaxDepths folds Depths per node: the causal depth of each node's
// deepest firing (0 for nodes that never fired) — directly comparable to
// obs.NodeCounters.Clocks() from a channel-engine run.
func (j *Journal) NodeMaxDepths() []int64 {
	depths := j.Depths()
	out := make([]int64, len(j.Nodes))
	for i := range j.Fires {
		if n := j.Fires[i].Node; depths[i] > out[n] {
			out[n] = depths[i]
		}
	}
	return out
}

// CheckLinearization verifies the journal's causal order embeds into its
// cycle order: every dependence edge's producer finishes no later than
// its consumer issues. A violation means the journal (or the engine that
// wrote it) is corrupt.
func (j *Journal) CheckLinearization() error {
	if err := j.checkIDs(); err != nil {
		return err
	}
	for i := range j.Fires {
		f := &j.Fires[i]
		for _, d := range j.Deps(int32(i)) {
			p := &j.Fires[d]
			if p.Cycle+p.Cost > f.Cycle {
				return fmt.Errorf("journal: firing #%d (%s @%d) consumes #%d (%s) finishing at %d",
					i, j.label(f.Node), f.Cycle, d, j.label(p.Node), p.Cycle+p.Cost)
			}
		}
	}
	return nil
}

// Summary renders one-line run vitals for CLI output.
func (j *Journal) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "journal: %d firings, %d parks, %d cycles", len(j.Fires), len(j.Parks), j.Cycles)
	if j.Label != "" {
		fmt.Fprintf(&b, " (%s)", j.Label)
	}
	if j.AbortCheck != "" {
		fmt.Fprintf(&b, "; aborted: %s at cycle %d", j.AbortCheck, j.AbortCycle)
	}
	if len(j.Faults) > 0 {
		fmt.Fprintf(&b, "; %d injected faults", len(j.Faults))
	}
	return b.String()
}

// tagName renders an interned tag id for humans ("root" for the root
// tag).
func (j *Journal) tagName(id int32) string {
	if j.Tags[id] == "" {
		return "root"
	}
	return j.Tags[id]
}

// NodesByLabel finds node ids whose label contains the given substring —
// the fallback resolver for human-entered queries.
func (j *Journal) NodesByLabel(sub string) []int {
	var out []int
	for i := range j.Nodes {
		if strings.Contains(j.Nodes[i].Label, sub) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
