package opt

import (
	"slices"
	"sort"

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
		a := w.Outs().Only(w.Outs().Slot(id, 0)) // a binop's or unop's one port
		return a >= 0 && (w.Nodes[w.Arcs[a].To].Kind == dfg.BinOp || w.Nodes[w.Arcs[a].To].Kind == dfg.UnOp)
	}

	// A tree's steps are steps[lo:hi] of an arena its step programs keep,
	// and its members, root last, members[lo:hi] beside it; nExt counts
	// its external inputs. treeOf[v] is the index of member v's step, -1
	// for a node in no tree.
	type tree struct{ lo, hi, nExt int32 }
	w.treeOf = slices.Grow(w.treeOf[:0], cap(w.Nodes))[:len(w.Nodes)]
	npure := 0 // bounds the steps of a round
	for i, n := range w.Nodes {
		w.treeOf[i] = -1
		if n != nil && pure(n.Kind) {
			npure++
		}
	}
	// A step kept by the programs of earlier rounds stands for a pure node
	// they removed, so the arena's tail has room for this round's.
	if cap(w.steps)-len(w.steps) < npure {
		w.steps, w.members = make([]dfg.FusedOp, 0, npure), make([]int32, 0, npure)
	}
	steps, members := w.steps, w.members
	var trees []tree

	// build adds node v and, producers first, the operators it absorbs to
	// tree t, and returns v's step; okTree turns false if the tree cannot
	// be fused.
	var t tree
	okTree := true
	var build func(v int32) int32
	build = func(v int32) int32 {
		if !okTree {
			return 0
		}
		vn := w.Nodes[v]
		var refs [2]int32
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
		return int32(len(steps)) - 1 - t.lo
	}
	for _, root := range w.Nodes {
		if root == nil || (root.Kind != dfg.BinOp && root.Kind != dfg.UnOp) || w.treeOf[root.ID] != -1 {
			continue
		}
		id := root.ID
		if w.OutDegree(id) < 1 || absorbable(id) {
			continue
		}
		t, okTree = tree{lo: int32(len(steps))}, true
		build(id)
		if t.hi = int32(len(steps)); !okTree || t.hi-t.lo < 2 {
			steps, members = steps[:t.lo], members[:t.lo] // nothing worth fusing at this root
			continue
		}
		for k := t.lo; k < t.hi; k++ {
			w.treeOf[members[k]] = k
		}
		trees = append(trees, t)
	}
	w.steps, w.members = steps, members
	if len(trees) == 0 {
		return 0
	}

	// fusedAt returns the fused node, first+i for trees[i], of the tree holding step k.
	first := int32(len(w.Nodes))
	fusedAt := func(k int32) int32 {
		return first + int32(sort.Search(len(trees), func(i int) bool { return trees[i].hi > k }))
	}
	nodes, outs := make([]dfg.Node, len(trees)), make([]int32, len(trees))
	w.ReserveFusions(len(trees))
	for i, t := range trees {
		rn := w.Nodes[members[t.hi-1]]
		nodes[i] = dfg.Node{Kind: dfg.Fused, NIns: t.nExt, NOuts: 1, Stmt: rn.Stmt, Tok: rn.Tok}
		outs[i] = t.hi - t.lo - 1
		w.AddFusion(dfg.FusedInfo{Node: w.addNode(&nodes[i]), Steps: steps[t.lo:t.hi:t.hi], Outs: outs[i : i+1 : i+1]})
	}
	// Rewire the arcs that were there before this round's; they connect
	// nodes that were, too. An arc into a member feeds the external input
	// its step names, or is interior when the step names a prior one.
	for ai, n := int32(0), int32(len(w.Arcs)); ai < n; ai++ {
		a := w.Arcs[ai]
		sK, dK := w.treeOf[a.From], w.treeOf[a.To]
		if !w.Live(ai) || (sK == -1 && dK == -1) {
			continue
		}
		w.KillArc(ai)
		if dK != -1 {
			ref := [2]int32{steps[dK].A, steps[dK].B}[a.ToPort]
			if ref >= 0 {
				continue // an interior arc, dropped — that is the optimization
			}
			a.To, a.ToPort = fusedAt(dK), dfg.FusedInputPort(ref)
		}
		if sK != -1 {
			a.From, a.FromPort = fusedAt(sK), 0 // a root's output, now its fused node's
		}
		w.AddArc(a)
	}
	for _, m := range members[trees[0].lo:] {
		w.Remove(m)
	}
	return len(trees)
}
