package opt

import (
	"slices"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// Mutation-style self-tests: each pass gets one graph it must rewrite
// and one it must leave alone. The must-not cases assert zero rewrites —
// and a run without rewrites returns its input graph, not a copy
// (TestOptimizeIsIdempotent).

// runPass applies one pass to g's working graph and returns the graph
// that results and the pass's rewrite count.
func runPass(t *testing.T, g *dfg.Graph, pass func(w *work) int) (*dfg.Graph, int) {
	t.Helper()
	w := newWork(dfg.NewEditor(g))
	n := pass(w)
	ng, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return ng, n
}

func collapse(w *work) int { return w.collapseMerges() }
func fuse(w *work) int     { return w.fuseOperators() }
func dead(w *work) int     { return w.eliminateDead(nil) }

// mergeChain builds start → {c1 → m1 → m2, c2 → m2} → end, with both
// merges on token tok2 unless tok1 overrides m1's.
func mergeChain(tok1, tok2 string) *dfg.Graph {
	g := dfg.NewGraph(nil)
	g.Names = slices.Compact([]string{tok1, tok2})
	tok := func(name string) int32 { return int32(slices.Index(g.Names, name)) + 1 }
	start := g.Add(&dfg.Node{Kind: dfg.Start})
	c1 := g.Add(&dfg.Node{Kind: dfg.Const, Val: 1})
	c2 := g.Add(&dfg.Node{Kind: dfg.Const, Val: 2})
	m1 := g.Add(&dfg.Node{Kind: dfg.Merge, Tok: tok(tok1)})
	m2 := g.Add(&dfg.Node{Kind: dfg.Merge, Tok: tok(tok2)})
	end := g.Add(&dfg.Node{Kind: dfg.End, NIns: 1})
	g.Connect(start.ID, 0, c1.ID, 0, false)
	g.Connect(start.ID, 0, c2.ID, 0, false)
	g.Connect(c1.ID, 0, m1.ID, 0, false)
	g.Connect(m1.ID, 0, m2.ID, 0, false)
	g.Connect(c2.ID, 0, m2.ID, 0, false)
	g.Connect(m2.ID, 0, end.ID, 0, false)
	return g
}

func TestCollapseMergesFlattensChain(t *testing.T) {
	g := mergeChain("t", "t")
	ng, count := runPass(t, g, collapse)
	if count != 1 {
		t.Fatalf("want 1 merge collapsed, got %d", count)
	}
	if got := countKind(ng, dfg.Merge); got != 1 {
		t.Fatalf("want 1 surviving merge, got %d", got)
	}
	for _, m := range ng.Nodes {
		if m.Kind == dfg.Merge && ng.InDegree(m.ID, 0) != 2 {
			t.Fatalf("surviving merge should have absorbed both arms, has %d", ng.InDegree(m.ID, 0))
		}
	}
}

func TestCollapseMergesLeavesDistinctTokens(t *testing.T) {
	g := mergeChain("x", "y")
	if _, count := runPass(t, g, collapse); count != 0 {
		t.Fatalf("merges on distinct tokens must not flatten (count %d)", count)
	}
}

// opChain builds start → {c1, c2} → add → neg → end: a fusable
// four-node pure tree with two external trigger inputs.
func opChain() *dfg.Graph {
	g := dfg.NewGraph(nil)
	start := g.Add(&dfg.Node{Kind: dfg.Start})
	c1 := g.Add(&dfg.Node{Kind: dfg.Const, Val: 1})
	c2 := g.Add(&dfg.Node{Kind: dfg.Const, Val: 2})
	add := g.Add(&dfg.Node{Kind: dfg.BinOp, Op: lang.OpAdd})
	neg := g.Add(&dfg.Node{Kind: dfg.UnOp, Op: lang.OpNeg})
	end := g.Add(&dfg.Node{Kind: dfg.End, NIns: 1})
	g.Connect(start.ID, 0, c1.ID, 0, false)
	g.Connect(start.ID, 0, c2.ID, 0, false)
	g.Connect(c1.ID, 0, add.ID, 0, false)
	g.Connect(c2.ID, 0, add.ID, 1, false)
	g.Connect(add.ID, 0, neg.ID, 0, false)
	g.Connect(neg.ID, 0, end.ID, 0, false)
	return g
}

func TestFuseOperatorsCollapsesTree(t *testing.T) {
	g := opChain()
	ng, count := runPass(t, g, fuse)
	if count != 1 {
		t.Fatalf("want 1 tree fused, got %d", count)
	}
	if got := countKind(ng, dfg.Fused); got != 1 {
		t.Fatalf("want 1 fused node, got %d", got)
	}
	for _, k := range []dfg.Kind{dfg.Const, dfg.BinOp, dfg.UnOp} {
		if got := countKind(ng, k); got != 0 {
			t.Fatalf("tree member kind %v survived fusion (%d left)", k, got)
		}
	}
	if err := ng.Validate(); err != nil {
		t.Fatalf("fused graph invalid: %v", err)
	}
	for _, node := range ng.Nodes {
		if node.Kind != dfg.Fused {
			continue
		}
		fi := &ng.Fusions[ng.OpTable().Ops[node.ID].Aux]
		if len(fi.Steps) != 4 || len(fi.Outs) != 1 {
			t.Fatalf("want 4 steps and 1 output, got %d/%d", len(fi.Steps), len(fi.Outs))
		}
		res, err := interp.EvalFused(fi.Steps, make([]int64, node.NIns), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res[fi.Outs[0]]; got != -3 {
			t.Fatalf("fused -(1+2): want -3, got %d", got)
		}
	}
}

// TestFuseIdleRoundAllocatesNothing: fusion keeps its tables and the
// unused tail of its step arena between rounds, so a round after the
// first that fuses nothing allocates nothing.
func TestFuseIdleRoundAllocatesNothing(t *testing.T) {
	res, err := translate.Translate(cfg.MustBuild(workloads.Random(1990, 40, 3).Parse()), translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	w := newWork(dfg.NewEditor(res.Graph))
	if w.fuseOperators() == 0 {
		t.Fatal("the first round fused no tree")
	}
	if got := testing.AllocsPerRun(3, func() {
		if n := w.fuseOperators(); n != 0 {
			t.Fatalf("a second round fused %d trees", n)
		}
	}); got != 0 {
		t.Errorf("a round that fuses nothing allocates %.0f times", got)
	}
}

func TestFuseOperatorsLeavesSingleOperator(t *testing.T) {
	g := dfg.NewGraph(nil)
	start := g.Add(&dfg.Node{Kind: dfg.Start})
	b := g.Add(&dfg.Node{Kind: dfg.BinOp, Op: lang.OpAdd})
	end := g.Add(&dfg.Node{Kind: dfg.End, NIns: 1})
	g.Connect(start.ID, 0, b.ID, 0, false)
	g.Connect(start.ID, 0, b.ID, 1, false)
	g.Connect(b.ID, 0, end.ID, 0, false)
	if _, count := runPass(t, g, fuse); count != 0 {
		t.Fatalf("a lone operator must not fuse (count %d)", count)
	}
}

func TestEliminateDeadUnravelsOrphanedValues(t *testing.T) {
	g := dfg.NewGraph(nil)
	start := g.Add(&dfg.Node{Kind: dfg.Start})
	c := g.Add(&dfg.Node{Kind: dfg.Const, Val: 5})
	u := g.Add(&dfg.Node{Kind: dfg.UnOp, Op: lang.OpNeg})
	g.Connect(start.ID, 0, c.ID, 0, false)
	g.Connect(c.ID, 0, u.ID, 0, false)
	ng, count := runPass(t, g, dead)
	// The unop dies (its feeder is a pure value source); the const stays
	// — deleting it would leave the start port with no consumer.
	if count != 1 {
		t.Fatalf("want exactly the unop removed, got %d removals", count)
	}
	if countKind(ng, dfg.UnOp) != 0 || countKind(ng, dfg.Const) != 1 {
		t.Fatalf("want unop gone and const kept: %d unops, %d consts", countKind(ng, dfg.UnOp), countKind(ng, dfg.Const))
	}
}

func TestEliminateDeadKeepsAccessFedNode(t *testing.T) {
	g := dfg.NewGraph(nil)
	start := g.Add(&dfg.Node{Kind: dfg.Start})
	u := g.Add(&dfg.Node{Kind: dfg.UnOp, Op: lang.OpNeg})
	g.Connect(start.ID, 0, u.ID, 0, false)
	if _, count := runPass(t, g, dead); count != 0 {
		t.Fatalf("a dead node emptying an access port must stay (count %d)", count)
	}
}

// TestSinkLeavesMinimalPlacementAlone: the Schema2Opt translation of
// fig9-bypass already places only the switches §4 requires, so the
// sinking pass must report zero rewrites (TestFigure9SwitchPairRemoved
// is its must-rewrite dual).
func TestSinkLeavesMinimalPlacementAlone(t *testing.T) {
	g, err := cfg.Build(workloads.MustByName("fig9-bypass").Parse())
	if err != nil {
		t.Fatal(err)
	}
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Passes[0].Name != "sink-switches" || cert.Passes[0].Rewrites != 0 {
		t.Fatalf("sink-switches should find nothing under Schema2Opt: %+v", cert.Passes)
	}
}

// TestPlacementComputedOnDemand pins both halves of the on-demand rule on
// the ruler's structured program. Under plain Schema2 the sinking pass
// removes exactly the pairs it removed when the placement was computed up
// front (counts recorded from that version), and recomputes the placement
// once for all of them and every round. Under Schema2Opt no switch/merge
// pair matches the structural pattern, so the run never computes it. A
// graph without a CFG never computes it either.
func TestPlacementComputedOnDemand(t *testing.T) {
	for _, c := range []struct {
		schema     translate.Schema
		passes     [4]int
		nodes      int
		placements int
	}{
		{translate.Schema2, [4]int{1622, 344, 562, 0}, 10548, 1},
		{translate.Schema2Opt, [4]int{0, 93, 562, 0}, 3118, 0},
	} {
		res, err := translate.Translate(cfg.MustBuild(workloads.Random(1990, 40, 3).Parse()), translate.Options{Schema: c.schema})
		if err != nil {
			t.Fatal(err)
		}
		w := newWork(dfg.NewEditor(res.Graph))
		cert, err := w.run(res, pipeline)
		if err != nil {
			t.Fatal(err)
		}
		g, err := w.Graph()
		if err != nil {
			t.Fatal(err)
		}
		var got [4]int
		for i, p := range cert.Passes {
			got[i] = p.Rewrites
		}
		if got != c.passes || len(g.Nodes) != c.nodes {
			t.Errorf("%v: rewrites %v leaving %d nodes, want %v leaving %d", c.schema, got, len(g.Nodes), c.passes, c.nodes)
		}
		if w.placements != c.placements {
			t.Errorf("%v: placement recomputed %d times, want %d", c.schema, w.placements, c.placements)
		}
	}
	// Without a CFG there is no placement to recompute: the pattern alone
	// decides, and both identity pairs sink without the placement being
	// tried.
	res, err := translate.Translate(cfg.MustBuild(workloads.MustByName("fig9-bypass").Parse()), translate.Options{Schema: translate.Schema2})
	if err != nil {
		t.Fatal(err)
	}
	bare := &translate.Result{Graph: res.Graph}
	w := newWork(dfg.NewEditor(bare.Graph))
	cert, err := w.run(bare, pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Passes[0].Rewrites != 2 || w.placements != 0 {
		t.Errorf("metadata-free graph: %d pairs sunk, placement tried %d times", cert.Passes[0].Rewrites, w.placements)
	}
}
