package translate

import (
	"fmt"

	"ctdf/internal/dfg"
)

// EliminateRedundantSwitches implements the iterative optimization the
// paper sketches at the start of §4 (and credits to an earlier version of
// itself): repeatedly remove every switch whose two outputs are
// immediately merged together again — such a switch imposes an order
// between the predicate and the token for no reason. Eliminating one
// switch can make an enclosing one redundant, so the pass iterates to a
// fixpoint. Dead pure value nodes (typically predicate subexpressions
// whose only consumers were eliminated switches) are cleaned up
// afterwards.
//
// On acyclic control flow this reaches exactly the switch placement of the
// direct §4.2 construction; the loop-bypass part of the direct
// construction is out of its reach (that is the paper's argument for
// building the optimized graph directly). The returned graph is a new
// graph; the input — any validated graph: translated, optimized, linked or
// loaded from text — is unchanged. The second result is the number of
// switches eliminated.
func EliminateRedundantSwitches(g *dfg.Graph) (*dfg.Graph, int) {
	e := dfg.NewEditor(g)
	eliminated := 0
	for changed := true; changed; {
		changed = false
		for id, sw := range e.Nodes {
			if sw == nil || sw.Kind != dfg.Switch {
				continue
			}
			// Both outputs must each feed exactly one arc, into the same
			// merge's single input port.
			t, f := e.Outs().Only(e.Outs().Slot(id, 0)), e.Outs().Only(e.Outs().Slot(id, 1))
			if t < 0 || f < 0 {
				continue
			}
			mg := e.Arcs[t].To
			if e.Arcs[f].To != mg || e.Arcs[t].ToPort != 0 || e.Arcs[f].ToPort != 0 {
				continue
			}
			if e.Nodes[mg].Kind != dfg.Merge || e.Ins().Size(e.Ins().Slot(mg, 0)) != 2 {
				continue
			}
			// Rewire: the switch's data source feeds the merge's consumers
			// directly; the control arc is dropped.
			data := e.Arcs[e.Ins().First(e.Ins().Slot(id, 0))]
			e.KillArcsInto(id)
			for slot := e.Outs().Slot(mg, 0); e.Outs().First(slot) >= 0; {
				c := e.Outs().First(slot)
				e.AddArc(dfg.Arc{From: data.From, FromPort: data.FromPort, To: e.Arcs[c].To, ToPort: e.Arcs[c].ToPort, Dummy: data.Dummy})
				e.KillArc(c)
			}
			e.KillArcsInto(mg)
			e.Remove(mg)
			e.Remove(id)
			eliminated++
			changed = true
		}
	}
	removeDeadPure(e)
	return edited(e), eliminated
}

// removeDeadPure deletes pure value nodes none of whose outputs are
// consumed (constants, arithmetic and fused trees left over from
// eliminated predicate uses), iterating since removals expose new dead
// nodes.
func removeDeadPure(e *dfg.Editor) {
	for changed := true; changed; {
		changed = false
		for id, n := range e.Nodes {
			if n == nil || e.OutDegree(id) != 0 {
				continue
			}
			switch n.Kind {
			case dfg.Const, dfg.BinOp, dfg.UnOp, dfg.Fused:
				e.KillArcsInto(id)
				e.Remove(id)
				changed = true
			}
		}
	}
}

// edited materializes a pass's result. The passes here kill every arc of
// a node they remove and remove no node of a call's linkage, so an error
// is a bug in them.
func edited(e *dfg.Editor) *dfg.Graph {
	g, err := e.Graph()
	if err != nil {
		panic(fmt.Sprintf("translate: internal error: %v", err))
	}
	return g
}
