package vet

import (
	"ctdf/internal/dfg"
	"ctdf/internal/translate"
)

// This file is the self-test harness for the verifier: seeded mutations
// that each break one of the paper's correctness conditions in a known
// way. The mutation tests assert that every class is caught by at least
// one pass — if a pass regresses into vacuity, the harness fails, not
// just the (always-clean) translator sweep.
//
// Mutations edit the graph through a dfg.Editor, so every graph a
// translation can hand over — optimized and linked ones too — can be
// mutated; node provenance (Stmt, Tok) is copied, so the translation
// metadata of the original Result still describes the mutated graph's
// intent.

// A Mutation derives a defective graph from a translation.
type Mutation struct {
	// Name identifies the mutation class.
	Name string
	// Doc says what the mutation breaks.
	Doc string
	// Edit returns the editor holding the mutated graph, or ok=false
	// when the translation has no site this mutation applies to.
	Edit func(res *translate.Result) (e *dfg.Editor, ok bool)
}

// Apply returns the mutated graph, or ok=false when the translation has
// no site this mutation applies to.
func (m Mutation) Apply(res *translate.Result) (g *dfg.Graph, ok bool) {
	e, ok := m.Edit(res)
	if !ok {
		return nil, false
	}
	g, err := e.Graph()
	return g, err == nil
}

// Mutations returns the seeded mutation classes.
func Mutations() []Mutation {
	return []Mutation{
		{
			Name: "drop-switch",
			Doc:  "remove a switch and feed its consumers the unrouted token (Theorem 1 violation)",
			Edit: dropSwitch,
		},
		{
			Name: "retarget-arc",
			Doc:  "retarget a token arc onto end port 0: one port double-fed, one starved",
			Edit: retargetArc,
		},
		{
			Name: "drop-merge-arm",
			Doc:  "disconnect one arm of a merge: the arm's token line leaks",
			Edit: dropMergeArm,
		},
		{
			Name: "truncate-synch",
			Doc:  "shrink a synch tree by one operand: the §5 gather set loses a cover element",
			Edit: truncateSynch,
		},
		{
			Name: "bypass-synch",
			Doc:  "wire a memory op's access input past its synch gate to a single operand line",
			Edit: bypassSynch,
		},
	}
}

// dropSwitch removes the first switch and rewires both arms' consumers
// straight to the switch's data source: the token now arrives regardless
// of the branch taken — exactly the unsoundness Theorem 1's placement
// exists to prevent.
func dropSwitch(res *translate.Result) (*dfg.Editor, bool) {
	e := dfg.NewEditor(res.Graph)
	for _, n := range e.Nodes {
		if n.Kind != dfg.Switch {
			continue
		}
		sw := n.ID
		din := e.Ins().First(e.Ins().Slot(sw, 0))
		if din < 0 {
			return nil, false
		}
		data := e.Arcs[din]
		for p := int32(0); p < 2; p++ {
			for slot := e.Outs().Slot(sw, p); e.Outs().First(slot) >= 0; {
				e.MoveSource(e.Outs().First(slot), data.From, data.FromPort)
			}
		}
		e.KillArcsInto(sw)
		e.Remove(sw)
		return e, true
	}
	return nil, false
}

// retargetArc redirects the first dummy arc not already feeding end onto
// end port 0: that port is now double-fed (two tokens, one tag) and the
// arc's original destination starves.
func retargetArc(res *translate.Result) (*dfg.Editor, bool) {
	g := res.Graph
	if g.EndID < 0 || g.Nodes[g.EndID].NIns == 0 {
		return nil, false
	}
	for i, a := range g.Arcs {
		if a.Dummy && a.To != g.EndID {
			e := dfg.NewEditor(g)
			e.KillArc(int32(i))
			a.To, a.ToPort = g.EndID, 0
			e.AddArc(a)
			return e, true
		}
	}
	return nil, false
}

// dropMergeArm deletes one input arc of the first merge fed by two or
// more arcs: the deleted arm's line has no consumer left.
func dropMergeArm(res *translate.Result) (*dfg.Editor, bool) {
	e := dfg.NewEditor(res.Graph)
	for i, a := range e.Arcs {
		if a.ToPort == 0 && e.Nodes[a.To].Kind == dfg.Merge && e.Ins().Size(e.Ins().Slot(a.To, 0)) >= 2 {
			e.KillArc(int32(i))
			return e, true
		}
	}
	return nil, false
}

// synchSites finds synchs with at least two operands.
func synchSites(g *dfg.Graph) []*dfg.Node {
	var out []*dfg.Node
	for _, n := range g.Nodes {
		if n.Kind == dfg.Synch && n.NIns >= 2 {
			out = append(out, n)
		}
	}
	return out
}

// truncateSynch shrinks the first eligible synch by one operand: its
// gather set (Figure 13) silently loses a line, and that line's producer
// loses its consumer.
func truncateSynch(res *translate.Result) (*dfg.Editor, bool) {
	sites := synchSites(res.Graph)
	if len(sites) == 0 {
		return nil, false
	}
	e := dfg.NewEditor(res.Graph)
	s := *sites[0]
	s.NIns--
	for slot := e.Ins().Slot(s.ID, s.NIns); e.Ins().First(slot) >= 0; {
		e.KillArc(e.Ins().First(slot))
	}
	e.Nodes[s.ID] = &s
	return e, true
}

// bypassSynch rewires a memory operation's access input past its synch
// gate, straight to the line feeding the synch's first operand: the
// operation now fires holding one cover element's token instead of all of
// them — the §5 race the synch tree exists to prevent.
func bypassSynch(res *translate.Result) (*dfg.Editor, bool) {
	e := dfg.NewEditor(res.Graph)
	for _, s := range synchSites(res.Graph) {
		oi := e.Ins().First(e.Ins().Slot(s.ID, 0))
		if oi < 0 {
			continue
		}
		operand := e.Arcs[oi] // line feeding the synch's first operand
		// synch output → memory op access input
		for op := e.Outs().First(e.Outs().Slot(s.ID, 0)); op >= 0; op = e.Outs().Next(op) {
			switch e.Nodes[e.Arcs[op].To].Kind {
			case dfg.Load, dfg.Store, dfg.LoadIdx, dfg.StoreIdx:
				e.MoveSource(op, operand.From, operand.FromPort)
				return e, true
			}
		}
	}
	return nil, false
}
