package translate

import (
	"fmt"
	"slices"
	"testing"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/workloads"
)

// checkWiring holds the merges the builder emitted for one unit — graph
// nodes lo up to hi, built on CFG g under plan — to the plan's source
// vectors, which the walk of analysis.Plan.SourceVectors computes apart
// from the builder's. Every merge's inputs, in arc order, are produced by
// nodes of the statements of its row's sources, in source order, a
// switch's true output for a true out-direction and its false one for a
// false; and there is a merge for every entry with several sources. It
// returns how many merges it checked.
func checkWiring(t *testing.T, label string, d *dfg.Graph, g *cfg.Graph, plan *analysis.Plan, lo, hi int) int {
	t.Helper()
	sv, err := plan.SourceVectors()
	if err != nil {
		t.Fatalf("%s: source vectors: %v", label, err)
	}
	ins, outs := make([][]dfg.Arc, hi-lo), make([][]dfg.Arc, hi-lo)
	for _, a := range d.Arcs {
		if a.To >= lo && a.To < hi {
			ins[a.To-lo] = append(ins[a.To-lo], a)
		}
		if a.From >= lo && a.From < hi {
			outs[a.From-lo] = append(outs[a.From-lo], a)
		}
	}
	// A merge's row is its statement's, or for a loop entry's merge
	// feeding its iteration port, the entry's back row.
	type row struct {
		stmt int
		tok  int32
		back bool
	}
	got := map[row]int{}
	for m := lo; m < hi; m++ {
		n := d.Nodes[m]
		if n.Kind != dfg.Merge {
			continue
		}
		tok, ok := slices.BinarySearch(sv.Universe, n.Tok)
		if !ok || len(outs[m-lo]) == 0 {
			t.Fatalf("%s: merge d%d of token %q feeds %d arcs", label, m, n.Tok, len(outs[m-lo]))
		}
		to := outs[m-lo][0]
		r := row{n.Stmt, int32(tok), d.Nodes[to.To].Kind == dfg.LoopEntry && d.Nodes[to.To].Stmt == n.Stmt && to.ToPort == 1}
		got[r]++
		srcs := sv.Sources(r.stmt, r.tok)
		if r.back {
			srcs = sv.BackSources(r.stmt, r.tok)
		}
		var have []string
		for _, a := range ins[m-lo] {
			p := d.Nodes[a.From]
			have = append(have, fmt.Sprintf("n%d", p.Stmt))
			if p.Kind == dfg.Switch && a.FromPort == 1 {
				have[len(have)-1] += "/f"
			}
		}
		var want []string
		for _, s := range srcs {
			want = append(want, fmt.Sprintf("n%d", s.Node))
			if !s.Dir && g.Nodes[s.Node].Kind == cfg.KindFork {
				want[len(want)-1] += "/f"
			}
		}
		if !slices.Equal(have, want) {
			t.Fatalf("%s: merge d%d (%+v, %s) takes %v, its sources are %v", label, m, r, n.Tok, have, want)
		}
	}
	want := map[row]int{}
	for id, n := range g.Nodes {
		switch n.Kind {
		case cfg.KindJoin, cfg.KindEnd:
			for _, tok := range sv.Merges(id, nil) {
				want[row{id, tok, false}]++
			}
		case cfg.KindLoopEntry:
			for _, tok := range sv.LoopNeed(id) {
				if len(sv.Sources(id, tok)) > 1 {
					want[row{id, tok, false}]++
				}
				if len(sv.BackSources(id, tok)) > 1 {
					want[row{id, tok, true}]++
				}
			}
		}
	}
	for r, k := range want {
		if got[r] != k {
			t.Fatalf("%s: %d merges for %+v, whose sources are %v", label, got[r], r, sv.Sources(r.stmt, r.tok))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: merges at %d rows, the vectors merge at %d", label, len(got), len(want))
	}
	return len(got)
}

// TestBuilderWiringMatchesSourceVectors: two computations of Figure 11
// agree — the builder's walk, which wires the graph, and the plan's
// SourceVectors, which vet reads. Every workload under every schema,
// eight seeds of every generator, and every unit of the linked
// compilations.
func TestBuilderWiringMatchesSourceVectors(t *testing.T) {
	merges, graphs, units := 0, 0, 0
	var progs []workloads.Workload
	for seed := int64(0); seed < 8; seed++ {
		progs = append(progs,
			workloads.Random(seed, 6, 3), workloads.RandomUnstructured(seed, 6), workloads.RandomAliased(seed, 6, 2),
			workloads.RandomMultiExit(seed, 3), workloads.RandomMultiLatch(seed, 3), workloads.RandomIrreducible(seed, 3))
	}
	for k := 2; k <= 5; k++ {
		progs = append(progs, workloads.KEntry(k))
	}
	var linked []workloads.Workload
	for _, w := range append(workloads.All(), progs...) {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			linked = append(linked, w) // procedure workloads need linked translation
			continue
		}
		for _, s := range []Schema{Schema1, Schema2, Schema2Opt, Schema3, Schema3Opt} {
			res, err := Translate(g, Options{Schema: s})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, s, err)
			}
			merges += checkWiring(t, fmt.Sprintf("%s/%v", w.Name, s), res.Graph, res.CFG, res.Plan, 0, len(res.Graph.Nodes))
			graphs++
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		linked = append(linked, workloads.RandomProcs(seed, 3))
	}
	for _, w := range linked {
		res, built, err := translateLinked(w.Parse())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for i, b := range built {
			lo, hi := int(b.start), len(res.Graph.Nodes)
			if b.procMode {
				lo = b.paramNodes[0]
			}
			if i+1 < len(built) {
				hi = built[i+1].paramNodes[0]
			}
			merges += checkWiring(t, fmt.Sprintf("%s/unit %q", w.Name, b.procName), res.Graph, b.g, b.plan, lo, hi)
			units++
		}
	}
	if graphs < 400 || units < 15 || merges < 10000 {
		t.Fatalf("checked %d merges in %d graphs and %d linked units; the suite lost coverage", merges, graphs, units)
	}
	t.Logf("checked %d merges in %d graphs and %d linked units", merges, graphs, units)
}
