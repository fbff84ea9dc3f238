package opt

import (
	"ctdf/internal/dfg"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
)

// sinkSwitches removes switch/merge identity pairs — the Figure 9
// rewrite. A candidate switch must satisfy two independent conditions:
//
// Legality (semantic): the recomputed §4 minimal placement does not
// need a switch for (fork, token). By Theorem 1 the token's value is
// not live across the conditional in a way that requires routing, so
// steering it per-arm is pure overhead. This is exactly the predicate
// behind vet's "redundant switch" warning. A graph without a CFG has no
// placement to recompute, and there the pattern alone decides.
//
// Pattern (structural): both switch arms are wired, via exactly one arc
// each, into port 0 of the same 2-input merge for the same token, and
// the switch's data and control ports each have exactly one feeder.
// Then every token entering the switch exits the merge unchanged — the
// pair composes to the identity — so the data source is wired straight
// to the merge's consumers and switch, merge, and the control arc are
// deleted. Loop-circulation switches never match: their false arm feeds
// a loop-exit, not a merge.
//
// Two matching pairs can be chained — one pair's merge feeding the
// other's switch directly, as data or as control — and then rewriting one
// edits the arcs the other is matched on. A pair therefore waits for the
// next sweep when this sweep already edited the adjacency of its switch
// or its merge. The sweeps also collapse nested diamonds inside-out,
// since deleting an inner pair turns the outer pair's arms into single
// arcs. It returns the number of pairs removed.
//
// Neither condition has an effect until both hold, so the cheap one is
// tested first: the placement is recomputed when the first pair that
// matches the pattern asks for it (needsSwitch), and a translation that
// already placed its switches minimally never pays for it.
func (w *work) sinkSwitches(res *translate.Result) int {
	total := 0
	for {
		w.sweep++
		n := 0
		for _, sw := range w.Nodes {
			if sw == nil || sw.Kind != dfg.Switch || sw.Stmt < 0 || sw.Tok == dfg.NoName || !w.fresh(sw.ID) {
				continue
			}
			id := sw.ID
			o0, o1 := w.Outs().Only(w.Outs().Slot(id, 0)), w.Outs().Only(w.Outs().Slot(id, 1))
			if o0 < 0 || o1 < 0 {
				continue
			}
			a0, a1 := w.Arcs[o0], w.Arcs[o1]
			if a0.To != a1.To || a0.ToPort != 0 || a1.ToPort != 0 {
				continue
			}
			m := w.Nodes[a0.To]
			if m.Kind != dfg.Merge || m.Tok != sw.Tok || w.Ins().Size(w.Ins().Slot(m.ID, 0)) != 2 || !w.fresh(m.ID) {
				continue
			}
			din, cin := w.Ins().Only(w.Ins().Slot(id, 0)), w.Ins().Only(w.Ins().Slot(id, 1))
			if din < 0 || cin < 0 {
				continue
			}
			data, mouts := w.Arcs[din], w.Outs().Slot(m.ID, 0)
			ok := true
			for mi := w.Outs().First(mouts); mi >= 0 && ok; mi = w.Outs().Next(mi) {
				// Wiring the data source straight through must not
				// duplicate an existing arc; if it would, leave the pair.
				ok = !w.HasArc(data.From, data.FromPort, w.Arcs[mi].To, w.Arcs[mi].ToPort)
			}
			if !ok || w.needsSwitch(res, sw) {
				continue // required by Theorem 1: removing it would break determinacy
			}
			for k := w.Outs().Size(mouts); k > 0; k-- {
				mi := w.Outs().First(mouts)
				w.MoveSource(mi, data.From, data.FromPort)
				w.touch(w.Arcs[mi].To)
			}
			w.touch(data.From)
			w.touch(w.Arcs[cin].From)
			for _, a := range [...]int32{din, cin, o0, o1} {
				w.KillArc(a)
			}
			w.Remove(id)
			w.Remove(m.ID)
			n++
		}
		if n == 0 {
			return total
		}
		total += n
	}
}

// needsSwitch reports whether the §4 minimal placement requires switch
// sw. Without a CFG there is no placement to consult and the identity
// pattern alone decides, which is the rule as §4 states it: no switch is
// required. With one, the placement is vet's recomputation, independent
// of the translator's, made at the first call and kept for the run; a
// placement that cannot be computed requires every switch.
func (w *work) needsSwitch(res *translate.Result, sw *dfg.Node) bool {
	if res.CFG == nil {
		return false
	}
	if w.placements == 0 {
		w.placements++
		w.minimal, _ = vet.MinimalPlacement(res)
	}
	return w.minimal == nil || w.minimal.NeedsSwitch(int(sw.Stmt), w.Name(sw.Tok))
}
