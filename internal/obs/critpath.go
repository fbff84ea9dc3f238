package obs

import (
	"fmt"
	"sort"
	"strings"
)

// CritStep is one firing on the critical path.
type CritStep struct {
	Node  int    `json:"node"`
	Kind  string `json:"kind"`
	Label string `json:"label"`
	Tag   string `json:"tag,omitempty"`
	// Cycle is when the firing actually issued; Cost its duration. The
	// gap between one step's Finish and the next step's issue Cycle is
	// scheduling delay (processor contention), not dependence.
	Cycle int `json:"cycle"`
	Cost  int `json:"cost"`
	// Finish is the dependence-chain length up to and including this
	// step.
	Finish int64 `json:"finish"`
}

// KindCost attributes critical-path cycles to one operator kind.
type KindCost struct {
	Kind   string  `json:"kind"`
	Ops    int     `json:"ops"`
	Cycles int64   `json:"cycles"`
	Share  float64 `json:"share"`
}

// CriticalPath is the longest dependence chain through the firing DAG
// ending at the end node — the execution time an ideal machine with
// unlimited processors needs. With unlimited processors the machine's
// cycle count equals Length exactly; with P processors Length is a
// lower bound (property-tested in this package).
type CriticalPath struct {
	// Length is the chain's total cost in cycles.
	Length int64 `json:"length"`
	// Ops is the number of firings on the chain.
	Ops int `json:"ops"`
	// Steps lists the chain from the first firing to the end node.
	Steps []CritStep `json:"steps"`
	// ByKind attributes Length to operator kinds, costliest first.
	ByKind []KindCost `json:"byKind"`
}

// criticalPath extracts the longest dependence chain ending at the end
// node's first firing (nil when the record was not kept or end never
// fired): walking back, each step is the first producer of maximal
// Finish of the step after it.
func (c *Collector) criticalPath() *CriticalPath {
	if c == nil || c.rec == nil {
		return nil
	}
	r := c.rec
	end := noDep
	for i := range r.Fires {
		if int(r.Fires[i].Node) == c.endID {
			end = int32(i)
			break
		}
	}
	if end < 0 {
		return nil
	}
	ops := 0
	for f := end; f >= 0; f = r.pred(f) {
		ops++
	}
	cp := &CriticalPath{Length: r.Fires[end].Finish, Ops: ops, Steps: make([]CritStep, ops)}
	byKind := map[string]*KindCost{}
	// The walk runs end→start; the steps run start→end.
	for f, i := end, ops-1; f >= 0; f, i = r.pred(f), i-1 {
		rec := &r.Fires[f]
		m := c.meta[rec.Node]
		cp.Steps[i] = CritStep{
			Node: int(rec.Node), Kind: m.Kind, Label: m.Label, Tag: r.Tags[rec.Tag],
			Cycle: int(rec.Cycle), Cost: int(rec.Cost), Finish: rec.Finish,
		}
		kc := byKind[m.Kind]
		if kc == nil {
			kc = &KindCost{Kind: m.Kind}
			byKind[m.Kind] = kc
		}
		kc.Ops++
		kc.Cycles += int64(rec.Cost)
	}
	for _, kc := range byKind {
		if cp.Length > 0 {
			kc.Share = float64(kc.Cycles) / float64(cp.Length)
		}
		cp.ByKind = append(cp.ByKind, *kc)
	}
	sort.Slice(cp.ByKind, func(i, j int) bool {
		a, b := cp.ByKind[i], cp.ByKind[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		return a.Kind < b.Kind
	})
	return cp
}

// Text renders the critical path for humans: the per-kind attribution
// followed by the chain itself.
func (cp *CriticalPath) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %d cycles over %d firings\n", cp.Length, cp.Ops)
	b.WriteString("  attribution by kind:\n")
	for _, kc := range cp.ByKind {
		fmt.Fprintf(&b, "    %-12s %4d ops  %6d cycles  %5.1f%%\n", kc.Kind, kc.Ops, kc.Cycles, 100*kc.Share)
	}
	b.WriteString("  chain:\n")
	for _, s := range cp.Steps {
		tag := s.Tag
		if tag == "" {
			tag = "root"
		}
		fmt.Fprintf(&b, "    @%-6d +%-3d %-26s [tag %s]\n", s.Cycle, s.Cost, s.Label, tag)
	}
	return b.String()
}
