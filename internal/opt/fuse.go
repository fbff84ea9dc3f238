package opt

import (
	"ctdf/internal/dfg"
)

// fuseOperators collapses maximal single-consumer trees of pure value
// operators (const, binop, unop) into one Fused super-operator per
// tree. A node joins its consumer's tree when it is pure and its result
// goes to exactly one place — then no other operator observes the
// interior token, so evaluating the whole tree inside one firing is
// unobservable except through cost: the interior tokens never enter the
// matching store and the tree retires in one cycle instead of its
// depth.
//
// A tree root is a binop/unop that is not itself absorbable (its result
// fans out, or its consumer is not a pure operator). The fused node's
// external inputs are the arcs crossing into the tree, numbered in
// operand order by a producers-first walk from the root; its single
// output carries the root's result. Trees of size one are left alone,
// and Fused nodes from earlier rounds are not re-fused (their
// multi-step bodies stay as built). External input count is capped at
// 64 to keep the engines' one-word matching bitmask exact.
func (w *work) fuseOperators() int {
	pure := func(k dfg.Kind) bool { return k == dfg.Const || k == dfg.BinOp || k == dfg.UnOp }
	// absorbable: the node's single consumer is a pure operator tree
	// under construction (binop/unop), so the node belongs to that
	// consumer's tree rather than rooting its own.
	absorbable := func(id int32) bool {
		if w.OutDegree(id) != 1 {
			return false
		}
		k := w.Nodes[w.Arcs[w.Outs().First(w.Outs().Slot(id, 0))].To].Kind
		return k == dfg.BinOp || k == dfg.UnOp
	}

	// A tree's steps are steps[lo:hi] of an arena the round's step
	// programs keep, and its members, root last, members[lo:hi] of one kept
	// between rounds: the two grow and shrink in step.
	type tree struct{ lo, hi, nExt int }
	// treeOf[v] is the tree node v joined, extPort[a] the external input
	// port arc a feeds on crossing into a tree; -1 for none.
	w.treeOf = minusOnes(w.treeOf, len(w.Nodes), cap(w.Nodes))
	w.extPort = minusOnes(w.extPort, len(w.Arcs), cap(w.Arcs))
	npure := 0 // bounds the steps
	for _, n := range w.Nodes {
		if n != nil && pure(n.Kind) {
			npure++
		}
	}
	var trees []tree
	steps := make([]dfg.FusedOp, 0, npure)
	members := w.members[:0]

	// build adds node v and, producers first, the operators it absorbs to
	// tree t, and returns v's step; okTree turns false if the tree cannot
	// be fused.
	var t tree
	okTree := true
	var build func(v int32) int
	build = func(v int32) int {
		if !okTree {
			return 0
		}
		vn := w.Nodes[v]
		var refs [2]int
		for p := int32(0); p < vn.NIns; p++ {
			ai := w.Ins().Only(w.Ins().Slot(v, p))
			if ai < 0 {
				okTree = false
				return 0
			}
			src := w.Arcs[ai].From
			if pure(w.Nodes[src].Kind) && w.OutDegree(src) == 1 && w.treeOf[src] == -1 {
				refs[p] = build(src)
			} else {
				if t.nExt >= 64 {
					okTree = false
					return 0
				}
				w.extPort[ai] = int32(t.nExt)
				refs[p] = dfg.FusedInput(t.nExt)
				t.nExt++
			}
		}
		var op dfg.FusedOp
		switch vn.Kind {
		case dfg.Const:
			op = dfg.FusedOp{Kind: dfg.Const, Val: vn.Val, A: refs[0]}
		case dfg.UnOp:
			op = dfg.FusedOp{Kind: dfg.UnOp, Op: vn.Op, A: refs[0]}
		case dfg.BinOp:
			op = dfg.FusedOp{Kind: dfg.BinOp, Op: vn.Op, A: refs[0], B: refs[1]}
		default:
			okTree = false
			return 0
		}
		steps = append(steps, op)
		members = append(members, v)
		return len(steps) - 1 - t.lo
	}
	for _, root := range w.Nodes {
		if root == nil || (root.Kind != dfg.BinOp && root.Kind != dfg.UnOp) || w.treeOf[root.ID] != -1 {
			continue
		}
		id := root.ID
		if w.OutDegree(id) < 1 || absorbable(id) {
			continue
		}
		t, okTree = tree{lo: len(steps)}, true
		build(id)
		if t.hi = len(steps); !okTree || t.hi-t.lo < 2 {
			steps, members = steps[:t.lo], members[:t.lo] // nothing worth fusing at this root
			continue
		}
		for _, m := range members[t.lo:t.hi] {
			w.treeOf[m] = int32(len(trees))
		}
		trees = append(trees, t)
	}
	w.members = members
	if len(trees) == 0 {
		return 0
	}

	fusedID, outs := make([]int32, len(trees)), make([]int, 0, len(trees))
	for i, t := range trees {
		rn := w.Nodes[members[t.hi-1]]
		fusedID[i] = w.addNode(&dfg.Node{Kind: dfg.Fused, NIns: int32(t.nExt), NOuts: 1, Stmt: rn.Stmt, Tok: rn.Tok})
		outs = append(outs, t.hi-t.lo-1)
		w.AddFusion(dfg.FusedInfo{Node: int(fusedID[i]), Steps: steps[t.lo:t.hi:t.hi], Outs: outs[i : i+1 : i+1]})
	}
	// Rewire the arcs that were there before this round's; they connect
	// nodes that were, too.
	for ai := int32(0); int(ai) < len(w.extPort); ai++ {
		a := w.Arcs[ai]
		sT, dT := w.treeOf[a.From], w.treeOf[a.To]
		if !w.Live(ai) || (sT == -1 && dT == -1) {
			continue
		}
		w.KillArc(ai)
		switch {
		case dT == -1:
			// Root output crossing out of the tree.
			w.AddArc(dfg.Arc{From: fusedID[sT], FromPort: 0, To: a.To, ToPort: a.ToPort, Dummy: a.Dummy})
		case w.extPort[ai] >= 0:
			if sT != -1 {
				a.From, a.FromPort = fusedID[sT], 0 // the feeder is another tree's root
			}
			w.AddArc(dfg.Arc{From: a.From, FromPort: a.FromPort, To: fusedID[dT], ToPort: w.extPort[ai], Dummy: a.Dummy})
		}
		// Otherwise an interior arc, dropped — that is the optimization.
	}
	for _, t := range trees {
		for _, m := range members[t.lo:t.hi] {
			w.Remove(m)
		}
	}
	return len(trees)
}

// minusOnes returns s resized to n elements, all -1; a new s has room
// for c.
func minusOnes(s []int32, n, c int) []int32 {
	if cap(s) < n {
		s = make([]int32, n, max(n, c))
	}
	s = s[:n]
	for i := range s {
		s[i] = -1
	}
	return s
}
