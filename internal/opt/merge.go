package opt

import "ctdf/internal/dfg"

// collapseMerges flattens merge chains: a merge m1 whose single
// consumer is port 0 of another merge m2 for the same token forwards
// every arriving token verbatim into m2, so m1's arms can feed m2
// directly and m1 disappears. Merge is non-strict first-come-forward
// routing; flattening preserves the multiset of tokens m2 emits (merge
// composition is associative) and determinacy, because the guard sets
// of m1's arms were already pairwise disjoint from each other and from
// m2's other arms (they reached m2 before the rewrite too, just one hop
// later).
//
// Within a sweep, a merge that has already absorbed arms, or whose own
// output was rewired into another merge, is skipped as a flattening
// source (the sweep's rewrites stay independent of their order); sweeps
// repeat until no chain remains. It returns the number of merges removed.
func (w *work) collapseMerges() int {
	total := 0
	for {
		w.sweep++
		n := 0
		for _, m1 := range w.Nodes {
			if m1 == nil || m1.Kind != dfg.Merge || !w.fresh(m1.ID) {
				continue
			}
			id := m1.ID
			out := w.Outs().Only(w.Outs().Slot(id, 0))
			if out < 0 {
				continue
			}
			a := w.Arcs[out]
			if a.ToPort != 0 || a.To == id {
				continue
			}
			m2 := w.Nodes[a.To]
			if m2.Kind != dfg.Merge || m2.Tok != m1.Tok {
				continue
			}
			arms := w.Ins().Slot(id, 0)
			ok := true
			for ii := w.Ins().First(arms); ii >= 0 && ok; ii = w.Ins().Next(ii) {
				// An arm that already feeds m2 directly would be duplicated.
				ok = !w.HasArc(w.Arcs[ii].From, w.Arcs[ii].FromPort, m2.ID, 0)
			}
			if !ok {
				continue
			}
			for ii := w.Ins().First(arms); ii >= 0; ii = w.Ins().First(arms) {
				ia := w.Arcs[ii]
				w.AddArc(dfg.Arc{From: ia.From, FromPort: ia.FromPort, To: m2.ID, ToPort: 0, Dummy: ia.Dummy})
				w.KillArc(ii)
				w.touch(ia.From)
			}
			w.KillArc(out)
			w.Remove(id)
			w.touch(m2.ID)
			n++
		}
		if n == 0 {
			return total
		}
		total += n
	}
}
