package cfg

import (
	"fmt"
	"sort"
)

// This file implements the Allen–Cocke interval decomposition the paper
// cites for identifying cycles in unstructured control flow (§3): "An
// interval is a generalization of a loop and is a maximal, single entry
// subgraph having a unique node called the header which is the only entry
// node and in which all cyclic paths contain the header." The derived
// sequence collapses each interval to a node and repeats; a graph whose
// sequence terminates in a single node is reducible. The loop
// transformation itself (loops.go) uses natural loops — on reducible
// graphs the two views agree, and IntervalsAgreeWithLoops verifies it.

// Interval is one interval of a flow graph (at some derivation level).
type Interval struct {
	// Header is the interval's unique entry node.
	Header int
	// Nodes is the interval's member set (including the header).
	Nodes map[int]bool
	// Cyclic reports whether some member has a back arc to the header.
	Cyclic bool
}

// sortedMembers returns the member IDs in ascending order.
func (iv *Interval) sortedMembers() []int {
	return sortedKeys(iv.Nodes)
}

// Intervals partitions the nodes of a flow graph into intervals using the
// classic worklist algorithm: starting from a header h, repeatedly absorb
// any node all of whose predecessors already lie in the interval; every
// successor that cannot be absorbed becomes a header of another interval.
// The graph is given generically (successor/predecessor functions over a
// node ID set) so the algorithm can run on derived graphs too.
func Intervals(nodes []int, entry int, succs, preds func(int) []int) []Interval {
	inInterval := map[int]int{} // node → interval index
	var out []Interval
	headers := []int{entry}
	isHeader := map[int]bool{entry: true}

	for len(headers) > 0 {
		h := headers[0]
		headers = headers[1:]
		iv := Interval{Header: h, Nodes: map[int]bool{h: true}}
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

// DerivedSequence computes the sequence of derived graphs of g's interval
// decomposition: level 0 partitions g's nodes; each further level
// partitions the previous level's intervals (as collapsed nodes). It stops
// when a level has a single interval (reducible) or when no progress is
// made (irreducible), returning the per-level interval lists and whether
// the graph is reducible by intervals.
func DerivedSequence(g *Graph) ([][]Interval, bool) {
	// Level 0 runs on the concrete graph.
	nodes := make([]int, g.Len())
	for i := range nodes {
		nodes[i] = i
	}
	level := Intervals(nodes, g.Start,
		func(n int) []int { return g.Nodes[n].Succs },
		func(n int) []int { return g.Nodes[n].Preds })
	var out [][]Interval
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
		next := Intervals(ids, 0,
			func(n int) []int { return sortedKeys(succSet[n]) },
			func(n int) []int { return sortedKeys(predSet[n]) })
		if len(next) >= len(cur) {
			return out, false // no progress: irreducible
		}
		// Express next level's members in terms of concrete nodes.
		expanded := make([]Interval, len(next))
		for i, iv := range next {
			m := map[int]bool{}
			for id := range iv.Nodes {
				for n := range cur[id].Nodes {
					m[n] = true
				}
			}
			// Header in concrete terms: the header interval's header.
			expanded[i] = Interval{Header: cur[iv.Header].Header, Nodes: m, Cyclic: iv.Cyclic}
		}
		out = append(out, expanded)
		cur = expanded
	}
	return out, true
}

// CyclicIntervalHeaders returns the headers of every cyclic interval at
// every derivation level — on reducible graphs, exactly the natural loop
// headers the loop transformation uses.
func CyclicIntervalHeaders(g *Graph) ([]int, error) {
	levels, reducible := DerivedSequence(g)
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
