package opt

import (
	"ctdf/internal/dfg"
	"ctdf/internal/translate"
)

// eliminateDead deletes pure value nodes (const, binop, unop, fused)
// none of whose outputs has a consumer — typically predicate chains
// orphaned when sink-switches removed the switch that consumed them.
// The tokens such a node produces were already being discarded; what
// needs care is the tokens it consumes. Deleting the node empties its
// producers' output ports, which is only sound when each such port
// either still has another live consumer or may legitimately go
// unconsumed — the same conditions vet's token-balance pass accepts: a
// pure value source, a load's value output (port 0), or a §6.1
// value-token line, where tokens are droppable. Access-token ports
// (stores, switches, merges, synchs, start) must keep at least one
// consumer, so a dead node fed by one of those stays in place (vet
// tolerates it: unconsumed pure values are dead code, not leaks).
//
// Runs to a fixpoint so a whole orphaned chain unravels back-to-front,
// and returns the number of nodes deleted.
func (w *work) eliminateDead(res *translate.Result) int {
	isValue := func(k dfg.Kind) bool {
		return k == dfg.Const || k == dfg.BinOp || k == dfg.UnOp || k == dfg.Fused
	}
	// droppable: the arc's source port may go unconsumed, or keeps
	// another consumer.
	droppable := func(a dfg.Arc) bool {
		sn := w.Nodes[a.From]
		switch {
		case w.Outs().Size(w.Outs().Slot(a.From, a.FromPort)) > 1, isValue(sn.Kind):
			return true
		case (sn.Kind == dfg.Load || sn.Kind == dfg.LoadIdx || sn.Kind == dfg.ILoad) && a.FromPort == 0:
			return true
		}
		return res != nil && sn.Tok != dfg.NoName && res.ValueTokens[w.Name(sn.Tok)] != ""
	}

	n := 0
	for changed := true; changed; {
		changed = false
	nodes:
		for _, v := range w.Nodes {
			if v == nil || !isValue(v.Kind) || v.OutPorts() == 0 || w.OutDegree(v.ID) != 0 {
				continue
			}
			id := v.ID
			for p := int32(0); p < v.NIns; p++ {
				for ai := w.Ins().First(w.Ins().Slot(id, p)); ai >= 0; ai = w.Ins().Next(ai) {
					if !droppable(w.Arcs[ai]) {
						continue nodes
					}
				}
			}
			w.KillArcsInto(id)
			w.Remove(id)
			changed = true
			n++
		}
	}
	return n
}
