package dfg_test

import (
	"fmt"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/lang"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// checkOpTable holds g.OpTable() to g: the table changes how an operator
// is found, never what it is.
func checkOpTable(t *testing.T, name string, g *dfg.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tab := g.OpTable()
	if len(tab.Ops) != len(g.Nodes) {
		t.Fatalf("%s: table has %d ops, graph %d nodes", name, len(tab.Ops), len(g.Nodes))
	}
	targets := 0
	for i, n := range g.Nodes {
		id, o := n.ID, tab.Ops[i]
		if dfg.Kind(o.Kind) != n.Kind || o.NIns != n.NIns || lang.Op(o.Code) != n.Op || o.Val != n.Val {
			t.Fatalf("%s: %s has row %+v", name, g.Label(n), o)
		}
		// The class bits are the node's firing-rule classes (pinned per
		// kind by TestFiringRuleClasses), nothing of the table's own.
		if o.Flags&dfg.OpSolo != 0 != n.FiresPerToken() || o.Flags&dfg.OpMatchSite != 0 != n.MatchSite() ||
			o.Flags&dfg.OpMem != 0 != n.SplitPhase() {
			t.Fatalf("%s: %s has class bits %03b", name, g.Label(n), o.Flags)
		}
		if int(n.NIns) > tab.MaxIns {
			t.Fatalf("%s: MaxIns %d below %s's %d", name, tab.MaxIns, g.Label(n), n.NIns)
		}
		for port := 0; port < n.OutPorts(); port++ {
			arcs, span := g.OutArcs(id, port), tab.Out(id, port)
			if len(arcs) != len(span) {
				t.Fatalf("%s: %s port %d: %d targets, %d arcs", name, g.Label(n), port, len(span), len(arcs))
			}
			for i, ai := range arcs {
				a := g.Arcs[ai]
				if span[i].Node != a.To || span[i].Port != a.ToPort {
					t.Fatalf("%s: %s port %d target %d = %+v, arc %+v", name, g.Label(n), port, i, span[i], a)
				}
			}
			targets += len(span)
		}
		switch {
		case n.Kind == dfg.Fused:
			if o.Aux < 0 || int(o.Aux) >= len(g.Fusions) || g.Fusions[o.Aux].Node != int32(id) {
				t.Fatalf("%s: %s lost its step program (aux %d)", name, g.Label(n), o.Aux)
			}
		case o.Aux != -1:
			t.Fatalf("%s: %s has side-table row %d", name, g.Label(n), o.Aux)
		}
	}
	if targets != len(g.Arcs) {
		t.Fatalf("%s: table has %d targets, graph %d arcs", name, targets, len(g.Arcs))
	}
	if g.OpTable() != tab {
		t.Fatalf("%s: an unchanged graph rebuilt its table", name)
	}
}

// TestOpTableIsTheGraph: every committed workload under every schema and
// transform, plain and optimized, linked graphs included, and a sweep of
// generated programs.
func TestOpTableIsTheGraph(t *testing.T) {
	options := []translate.Options{
		{Schema: translate.Schema1}, {Schema: translate.Schema2}, {Schema: translate.Schema2Opt},
		{Schema: translate.Schema3}, {Schema: translate.Schema3Opt},
		{Schema: translate.Schema2Opt, EliminateMemory: true},
		{Schema: translate.Schema2Opt, ParallelReads: true},
		{Schema: translate.Schema2Opt, ParallelArrayStores: true},
		{Schema: translate.Schema2Opt, EliminateMemory: true, ParallelReads: true, ParallelArrayStores: true},
		{Schema: translate.Schema2Opt, EliminateMemory: true, UseIStructures: true},
		{Schema: translate.Schema3Opt, ParallelReads: true},
	}
	graphs := 0
	check := func(w workloads.Workload) {
		prog := w.Parse()
		if len(prog.Procs()) > 0 {
			if res, err := translate.TranslateLinked(prog); err == nil {
				checkOpTable(t, w.Name+"/linked", res.Graph)
				graphs++
			}
		}
		g, err := cfg.Build(prog)
		if err != nil {
			return // procedure workloads translate linked only
		}
		for i, o := range options {
			res, err := translate.Translate(g, o)
			if err != nil {
				continue // combination rejected by the schema
			}
			checkOpTable(t, fmt.Sprintf("%s/%d", w.Name, i), res.Graph)
			if _, err := opt.Run(res); err == nil {
				checkOpTable(t, fmt.Sprintf("%s/%d+opt", w.Name, i), res.Graph)
			}
			graphs++
		}
	}
	for _, w := range workloads.All() {
		check(w)
	}
	generated := 0
	for seed := int64(0); seed < 50; seed++ {
		for _, w := range []workloads.Workload{
			workloads.Random(seed, 6, 2),
			workloads.RandomUnstructured(seed, 3),
			workloads.RandomMultiLatch(seed, 2),
			workloads.RandomAliased(seed, 5, 2),
			workloads.Wide(1+int(seed)%9, 3),
			workloads.RandomProcs(seed, 3),
		} {
			check(w)
			generated++
		}
	}
	if generated < 300 || graphs < 1000 {
		t.Fatalf("only %d generated programs / %d graphs checked; suite lost coverage", generated, graphs)
	}
}

// TestOpTableFollowsTheGraph: a graph that grew after its table was read
// — by Add, Connect or an appended step program — hands out a new table,
// and the tables handed out earlier still describe the graph as it was.
func TestOpTableFollowsTheGraph(t *testing.T) {
	g := dfg.NewGraph(lang.MustParse("var x\n"))
	s := g.Add(&dfg.Node{Kind: dfg.Start})
	e := g.Add(&dfg.Node{Kind: dfg.End, NIns: 2})
	g.Connect(s.ID, 0, e.ID, 0, true)
	t0 := g.OpTable()
	if g.OpTable() != t0 || len(t0.Out(s.ID, 0)) != 1 {
		t.Fatal("an unchanged graph rebuilt its table, or the table lost the first arc")
	}

	g.Connect(s.ID, 0, e.ID, 1, true)
	t1 := g.OpTable()
	if t1 == t0 || len(t1.Out(s.ID, 0)) != 2 {
		t.Fatal("table is stale after Connect")
	}

	f := g.Add(&dfg.Node{Kind: dfg.Fused, NIns: 1, NOuts: 1})
	if t2 := g.OpTable(); t2 == t1 || len(t2.Ops) != 3 {
		t.Fatal("table is stale after Add")
	}
	g.Connect(s.ID, 0, f.ID, 0, true)
	t2 := g.OpTable()
	if len(t2.Out(s.ID, 0)) != 3 || t2.Ops[f.ID].Aux != -1 {
		t.Fatal("table is stale after Connect")
	}
	g.Fusions = append(g.Fusions, dfg.FusedInfo{Node: f.ID, Steps: []dfg.FusedOp{{Kind: dfg.UnOp, Op: lang.OpNeg, A: dfg.FusedInput(0)}}, Outs: []int32{0}})
	if t3 := g.OpTable(); t3 == t2 || t3.Ops[f.ID].Aux != 0 {
		t.Fatal("table is stale after a step program was added")
	}
	if len(t0.Ops) != 2 || len(t0.Out(s.ID, 0)) != 1 || len(t1.Out(s.ID, 0)) != 2 || t2.Ops[f.ID].Aux != -1 {
		t.Fatal("a published table changed")
	}
}
