package cfg

import (
	"sort"
	"testing"

	"ctdf/internal/workloads"
)

func TestIntervalsPartition(t *testing.T) {
	// Every node lies in exactly one level-0 interval; headers are the
	// only entries.
	progs := append(workloads.All(), workloads.RandomUnstructured(5, 3))
	for _, w := range progs {
		g := build(t, w.Source)
		ids := make([]int, g.Len())
		for i := range ids {
			ids[i] = i
		}
		ivs := Intervals(ids, g.Start,
			func(n int) []int { return g.Nodes[n].Succs },
			func(n int) []int { return g.Nodes[n].Preds })
		seen := map[int]int{}
		for i, iv := range ivs {
			for n := range iv.Nodes {
				if prev, dup := seen[n]; dup {
					t.Fatalf("%s: node n%d in intervals %d and %d", w.Name, n, prev, i)
				}
				seen[n] = i
			}
			// Single entry: every member other than the header has all
			// preds inside the interval.
			for n := range iv.Nodes {
				if n == iv.Header {
					continue
				}
				for _, p := range g.Nodes[n].Preds {
					if !iv.Nodes[p] {
						t.Errorf("%s: interval of n%d entered at non-header n%d (pred n%d)",
							w.Name, iv.Header, n, p)
					}
				}
			}
		}
		if len(seen) != g.Len() {
			t.Errorf("%s: intervals cover %d of %d nodes", w.Name, len(seen), g.Len())
		}
	}
}

func TestDerivedSequenceReducible(t *testing.T) {
	for _, w := range workloads.All() {
		g := build(t, w.Source)
		levels, reducible := DerivedSequence(g)
		if !reducible {
			t.Errorf("%s: derived sequence did not reduce", w.Name)
			continue
		}
		last := levels[len(levels)-1]
		if len(last) != 1 {
			t.Errorf("%s: final level has %d intervals, want 1", w.Name, len(last))
		}
		if len(last[0].Nodes) != g.Len() {
			t.Errorf("%s: final interval covers %d of %d nodes", w.Name, len(last[0].Nodes), g.Len())
		}
	}
}

func TestDerivedSequenceIrreducible(t *testing.T) {
	g := build(t, irreducibleSrc)
	if _, reducible := DerivedSequence(g); reducible {
		t.Error("irreducible graph reduced by intervals")
	}
	if _, err := CyclicIntervalHeaders(g); err == nil {
		t.Error("CyclicIntervalHeaders must fail on irreducible graphs")
	}
}

// The paper's §3 decomposition and the implementation's natural-loop view
// must agree on reducible graphs: cyclic interval headers == natural loop
// headers.
func TestIntervalsAgreeWithLoops(t *testing.T) {
	progs := workloads.All()
	for seed := int64(600); seed < 615; seed++ {
		progs = append(progs, workloads.Random(seed, 4, 2), workloads.RandomUnstructured(seed, 3))
	}
	for _, w := range progs {
		g := build(t, w.Source)
		ivHeaders, err := CyclicIntervalHeaders(g)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		// Natural loop headers: targets of back edges (h dominates source).
		dom := Dominators(g)
		headerSet := map[int]bool{}
		for _, n := range g.Nodes {
			for _, s := range n.Succs {
				if dom.Dominates(s, n.ID) {
					headerSet[s] = true
				}
			}
		}
		var loopHeaders []int
		for h := range headerSet {
			loopHeaders = append(loopHeaders, h)
		}
		sort.Ints(loopHeaders)
		if len(ivHeaders) != len(loopHeaders) {
			t.Errorf("%s: cyclic interval headers %v vs natural loop headers %v", w.Name, ivHeaders, loopHeaders)
			continue
		}
		for i := range ivHeaders {
			if ivHeaders[i] != loopHeaders[i] {
				t.Errorf("%s: cyclic interval headers %v vs natural loop headers %v", w.Name, ivHeaders, loopHeaders)
				break
			}
		}
	}
}
