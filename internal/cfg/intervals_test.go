package cfg

import (
	"fmt"
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
		ivs := intervals(ids, g.Start,
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
		levels, reducible := derivedSequence(g)
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
	if _, reducible := derivedSequence(g); reducible {
		t.Error("irreducible graph reduced by intervals")
	}
	if _, err := cyclicIntervalHeaders(g); err == nil {
		t.Error("cyclicIntervalHeaders must fail on irreducible graphs")
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
		ivHeaders, err := cyclicIntervalHeaders(g)
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

// The Allen–Cocke interval decomposition the paper cites for identifying
// cycles in unstructured control flow (§3): "An interval is a
// generalization of a loop and is a maximal, single entry subgraph having
// a unique node called the header which is the only entry node and in
// which all cyclic paths contain the header." The derived sequence
// collapses each interval to a node and repeats; a graph whose sequence
// terminates in a single node is reducible. The loop transformation
// itself (loops.go) uses natural loops; on reducible graphs the two views
// agree, and TestIntervalsAgreeWithLoops checks the loop headers against
// this decomposition, which is kept here as that reference.

// interval is one interval of a flow graph (at some derivation level).
type interval struct {
	// Header is the interval's unique entry node.
	Header int
	// Nodes is the interval's member set (including the header).
	Nodes map[int]bool
	// Cyclic reports whether some member has a back arc to the header.
	Cyclic bool
}

// sortedMembers returns the member IDs in ascending order.
func (iv *interval) sortedMembers() []int {
	return sortedKeys(iv.Nodes)
}

// intervals partitions the nodes of a flow graph into intervals using the
// classic worklist algorithm: starting from a header h, repeatedly absorb
// any node all of whose predecessors already lie in the interval; every
// successor that cannot be absorbed becomes a header of another interval.
// The graph is given generically (successor/predecessor functions over a
// node ID set) so the algorithm can run on derived graphs too.
func intervals(nodes []int, entry int, succs, preds func(int) []int) []interval {
	inInterval := map[int]int{} // node → interval index
	var out []interval
	headers := []int{entry}
	isHeader := map[int]bool{entry: true}

	for len(headers) > 0 {
		h := headers[0]
		headers = headers[1:]
		iv := interval{Header: h, Nodes: map[int]bool{h: true}}
		idx := len(out)
		inInterval[h] = idx

		for changed := true; changed; {
			changed = false
			for _, n := range nodes {
				if iv.Nodes[n] || n == entry || isHeader[n] {
					continue
				}
				ps := preds(n)
				if len(ps) == 0 {
					continue
				}
				all := true
				for _, p := range ps {
					if !iv.Nodes[p] {
						all = false
						break
					}
				}
				if all {
					iv.Nodes[n] = true
					inInterval[n] = idx
					changed = true
				}
			}
		}
		// Successors outside the interval become headers.
		for _, n := range iv.sortedMembers() {
			for _, s := range succs(n) {
				if !iv.Nodes[s] && !isHeader[s] {
					isHeader[s] = true
					headers = append(headers, s)
				}
				if s == h && iv.Nodes[n] {
					iv.Cyclic = true
				}
			}
		}
		out = append(out, iv)
	}
	return out
}

// derivedSequence computes the sequence of derived graphs of g's interval
// decomposition: level 0 partitions g's nodes; each further level
// partitions the previous level's intervals (as collapsed nodes). It stops
// when a level has a single interval (reducible) or when no progress is
// made (irreducible), returning the per-level interval lists and whether
// the graph is reducible by intervals.
func derivedSequence(g *Graph) ([][]interval, bool) {
	// Level 0 runs on the concrete graph.
	nodes := make([]int, g.Len())
	for i := range nodes {
		nodes[i] = i
	}
	level := intervals(nodes, g.Start,
		func(n int) []int { return g.Nodes[n].Succs },
		func(n int) []int { return g.Nodes[n].Preds })
	var out [][]interval
	out = append(out, level)

	// Map concrete nodes to interval ids, build the derived graph, repeat.
	cur := level
	curMembers := map[int]map[int]bool{}
	for i, iv := range cur {
		curMembers[i] = iv.Nodes
	}
	for len(cur) > 1 {
		owner := map[int]int{}
		for i, iv := range cur {
			for n := range iv.Nodes {
				owner[n] = i
			}
		}
		// Derived adjacency between interval ids.
		succSet := map[int]map[int]bool{}
		for i := range cur {
			succSet[i] = map[int]bool{}
		}
		for n := range g.Nodes {
			for _, s := range g.Nodes[n].Succs {
				a, b := owner[n], owner[s]
				if a != b {
					succSet[a][b] = true
				}
			}
		}
		predSet := map[int]map[int]bool{}
		for i := range cur {
			predSet[i] = map[int]bool{}
		}
		for a, ss := range succSet {
			for b := range ss {
				predSet[b][a] = true
			}
		}
		ids := make([]int, len(cur))
		for i := range cur {
			ids[i] = i
		}
		next := intervals(ids, 0,
			func(n int) []int { return sortedKeys(succSet[n]) },
			func(n int) []int { return sortedKeys(predSet[n]) })
		if len(next) >= len(cur) {
			return out, false // no progress: irreducible
		}
		// Express next level's members in terms of concrete nodes.
		expanded := make([]interval, len(next))
		for i, iv := range next {
			m := map[int]bool{}
			for id := range iv.Nodes {
				for n := range cur[id].Nodes {
					m[n] = true
				}
			}
			// Header in concrete terms: the header interval's header.
			expanded[i] = interval{Header: cur[iv.Header].Header, Nodes: m, Cyclic: iv.Cyclic}
		}
		out = append(out, expanded)
		cur = expanded
	}
	return out, true
}

// cyclicIntervalHeaders returns the headers of every cyclic interval at
// every derivation level — on reducible graphs, exactly the natural loop
// headers the loop transformation uses.
func cyclicIntervalHeaders(g *Graph) ([]int, error) {
	levels, reducible := derivedSequence(g)
	if !reducible {
		return nil, fmt.Errorf("cfg: %w", ErrIrreducible)
	}
	set := map[int]bool{}
	for _, level := range levels {
		for _, iv := range level {
			if iv.Cyclic {
				set[iv.Header] = true
			}
		}
	}
	out := sortedKeys(set)
	sort.Ints(out)
	return out, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
