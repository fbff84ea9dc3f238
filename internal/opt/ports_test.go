package opt

import (
	"fmt"
	"slices"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
	"ctdf/internal/workloads"
)

// portsMatchLiveArcs holds e's per-port lists to its arc table: every
// Outs and Ins list, walked, is the live arcs at that port in creation
// order, Size is its length and Only its arc when it has exactly one,
// and the lists of the live nodes hold every live arc once on each side.
func portsMatchLiveArcs(e *dfg.Editor) error {
	type port struct{ node, port int32 }
	outs, ins := map[port][]int32{}, map[port][]int32{}
	live := 0
	for i, a := range e.Arcs {
		if id := int32(i); e.Live(id) {
			outs[port{a.From, a.FromPort}] = append(outs[port{a.From, a.FromPort}], id)
			ins[port{a.To, a.ToPort}] = append(ins[port{a.To, a.ToPort}], id)
			live += 2 // one end on each side
		}
	}
	check := func(side string, p *dfg.Ports, n *dfg.Node, ports int32, want map[port][]int32) error {
		for q := int32(0); q < ports; q++ {
			var got []int32
			slot := p.Slot(n.ID, q)
			for id := p.First(slot); id >= 0; id = p.Next(id) {
				got = append(got, id)
			}
			w := want[port{n.ID, q}]
			only := int32(-1)
			if len(w) == 1 {
				only = w[0]
			}
			if !slices.Equal(got, w) || int(p.Size(slot)) != len(w) || p.Only(slot) != only {
				return fmt.Errorf("d%d %s port %d lists %v (size %d, only %d), want %v", n.ID, side, q, got, p.Size(slot), p.Only(slot), w)
			}
			live -= len(w)
		}
		return nil
	}
	for _, n := range e.Nodes {
		if n == nil {
			continue
		}
		if err := check("out", e.Outs(), n, int32(n.OutPorts()), outs); err != nil {
			return err
		}
		if err := check("in", e.Ins(), n, n.NIns, ins); err != nil {
			return err
		}
	}
	if live != 0 {
		return fmt.Errorf("%d live arc ends are on no list of a live node", live)
	}
	return nil
}

// checked wraps every rewrite of passes so that the editor's port lists
// are held to its live arcs after each.
func checked(t *testing.T, name string, passes []pass, rewrites *int) []pass {
	out := make([]pass, len(passes))
	for i, p := range passes {
		out[i] = pass{p.name, func(w *work, res *translate.Result) int {
			n := p.rewrite(w, res)
			if err := portsMatchLiveArcs(w.Editor); err != nil {
				t.Fatalf("%s: after %s: %v", name, p.name, err)
			}
			*rewrites += n
			return n
		}}
	}
	return out
}

// TestEditorPortsMatchLiveArcs: after every rewrite of every pass — the
// optimizer on the translator's editor, §4's switch elimination, synch
// legalization and the five vet mutators — the editor's Outs and Ins
// lists, with their Size and Only, are the ones rebuilt from the live arc
// table in creation order.
func TestEditorPortsMatchLiveArcs(t *testing.T) {
	var optimized, eliminated, legalized, mutated, rewrites int
	matches := func(name string, e *dfg.Editor) {
		if err := portsMatchLiveArcs(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// lowered runs passes on an editor of g, checking it as lowered too.
	lowered := func(name string, g *dfg.Graph, res *translate.Result, passes []pass) {
		w := newWork(dfg.NewEditor(g))
		matches(name+" as lowered", w.Editor)
		if _, err := w.run(res, checked(t, name, passes, &rewrites)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	each := func(w workloads.Workload) {
		prog := w.Parse()
		if len(prog.Procs()) > 0 {
			if res, err := translate.TranslateLinked(prog); err == nil {
				lowered(w.Name+"/linked", res.Graph, res, pipeline)
				optimized++
			}
		}
		g, err := cfg.Build(prog)
		if err != nil {
			return // procedure workloads translate linked only
		}
		for _, s := range []translate.Schema{translate.Schema2, translate.Schema2Opt, translate.Schema3Opt} {
			name := fmt.Sprintf("%s/%v", w.Name, s)
			edit := func(e *dfg.Editor, res *translate.Result) (err error) {
				res.Opt, err = newWork(e).run(res, checked(t, name, pipeline, &rewrites))
				return err
			}
			if _, err := translate.TranslateEdited(g, translate.Options{Schema: s, Optimize: 1}, edit); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			optimized++
			res, err := translate.Translate(g, translate.Options{Schema: s})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lowered(name+" eliminate-redundant-switches", res.Graph, &translate.Result{ValueTokens: res.ValueTokens}, figure9)
			eliminated++
			e := dfg.NewEditor(res.Graph)
			rewrites += translate.LegalizeEdited(e)
			matches(name+" legalize", e)
			legalized++
			for _, m := range vet.Mutations() {
				if e, ok := m.Edit(res); ok {
					matches(name+" "+m.Name, e)
					mutated++
				}
			}
		}
	}
	for _, w := range workloads.All() {
		each(w)
	}
	for seed := int64(0); seed < 6; seed++ {
		each(workloads.Random(seed, 8, 3))
		each(workloads.RandomUnstructured(seed, 4))
		each(workloads.RandomAliased(seed, 6, 2))
		each(workloads.RandomMultiExit(seed, 4))
		each(workloads.RandomIrreducible(seed, 4))
		each(workloads.RandomProcs(seed, 3))
	}
	if optimized < 150 || eliminated < 150 || legalized < 150 || mutated < 400 || rewrites < 5000 {
		t.Fatalf("%d optimized, %d eliminated, %d legalized, %d mutated, %d rewrites; the suite lost coverage",
			optimized, eliminated, legalized, mutated, rewrites)
	}
	t.Logf("%d optimized, %d eliminated, %d legalized, %d mutated, %d rewrites", optimized, eliminated, legalized, mutated, rewrites)
}
