package opt

import (
	"ctdf/internal/analysis"
	"ctdf/internal/dfg"
)

// work is one run's working graph: the editor every pass edits in place
// (dfg.Editor — stable ids, per-port adjacency current after every edit)
// and what only the optimizer keeps beside it.
type work struct {
	*dfg.Editor

	// touched marks, per node, the last sweep that edited an adjacency
	// list of the node; sweep numbers the sweeps of the whole run.
	touched []int32
	sweep   int32

	// minimal is the recomputed §4 placement, nil until a switch/merge
	// pair asks for it (needsSwitch) and still nil when it cannot be
	// computed; placements counts the recomputations, at most one a run.
	minimal    *analysis.Placement
	placements int

	// Scratch of fuseOperators and its step arena, kept between rounds.
	treeOf  []int32
	members []int32
	steps   []dfg.FusedOp
}

func newWork(e *dfg.Editor) *work {
	return &work{Editor: e, touched: make([]int32, len(e.Nodes), cap(e.Nodes))}
}

func (w *work) addNode(n *dfg.Node) int32 {
	w.touched = append(w.touched, 0)
	return w.AddNode(n)
}

// touch records that an adjacency list of node id was edited this sweep;
// fresh reports that none was. A pattern that reads the adjacency of a
// touched node waits for the next sweep, so that a sweep's rewrites are
// pairwise independent whatever their order.
func (w *work) touch(id int32)      { w.touched[id] = w.sweep }
func (w *work) fresh(id int32) bool { return w.touched[id] != w.sweep }
