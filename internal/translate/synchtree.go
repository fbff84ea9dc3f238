package translate

import (
	"fmt"

	"ctdf/internal/dfg"
)

// LegalizeSynchTrees rewrites every synch operator with more than two
// inputs into a balanced tree of two-input synchs. The paper's Figure 2
// presents the n-input collector as a synch *tree*; explicit token store
// machines match at most two operands per activation frame, so wide
// collectors must be decomposed before such a machine could run the graph.
// The builder emits flat n-ary synchs for clarity; this pass is the
// machine-level legalization. End nodes (the program's terminal collector)
// and three-input stores are left alone — they model machine services, not
// single instructions.
//
// Returns a new graph and the number of synch nodes added; the input —
// any validated graph: translated, optimized, linked or loaded from text —
// is unchanged.
func LegalizeSynchTrees(g *dfg.Graph) (*dfg.Graph, int) {
	e := dfg.NewEditor(g)
	added := LegalizeEdited(e)
	out, err := e.Graph()
	if err != nil {
		// The pass kills every arc into a node it removes and removes no
		// node of a call's linkage, so an error is a bug in it.
		panic(fmt.Sprintf("translate: internal error: %v", err))
	}
	return out, added
}

// LegalizeEdited is LegalizeSynchTrees on a graph being edited: it
// rewrites the synchs wider than two inputs among e's nodes and returns
// the number of synch nodes added.
func LegalizeEdited(e *dfg.Editor) int {
	added := 0
	type end struct{ node, port int32 }
	for _, n := range e.Nodes {
		if n == nil || n.Kind != dfg.Synch || n.NIns <= 2 {
			continue
		}
		id := n.ID
		cur := make([]end, n.NIns)
		for p := range cur {
			a := e.Arcs[e.Ins().First(e.Ins().Slot(id, int32(p)))]
			cur[p] = end{a.From, a.FromPort}
		}
		e.KillArcsInto(id)

		// Pairwise reduction to a balanced binary tree.
		for len(cur) > 1 {
			var next []end
			for i := 0; i+1 < len(cur); i += 2 {
				s := e.AddNode(&dfg.Node{Kind: dfg.Synch, NIns: 2, Tok: n.Tok, Stmt: n.Stmt})
				e.AddArc(dfg.Arc{From: cur[i].node, FromPort: cur[i].port, To: s, ToPort: 0, Dummy: true})
				e.AddArc(dfg.Arc{From: cur[i+1].node, FromPort: cur[i+1].port, To: s, ToPort: 1, Dummy: true})
				next = append(next, end{s, 0})
				added++
			}
			if len(cur)%2 == 1 {
				next = append(next, cur[len(cur)-1])
			}
			cur = next
		}
		for slot := e.Outs().Slot(id, 0); e.Outs().First(slot) >= 0; {
			e.MoveSource(e.Outs().First(slot), cur[0].node, cur[0].port)
		}
		e.Remove(id)
	}
	return added
}

// MaxSynchArity returns the widest synch operator in the graph (0 if none).
func MaxSynchArity(g *dfg.Graph) int {
	max := 0
	for _, n := range g.Nodes {
		if n.Kind == dfg.Synch && int(n.NIns) > max {
			max = int(n.NIns)
		}
	}
	return max
}
