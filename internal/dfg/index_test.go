package dfg_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/lang"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// checkIndex holds g.Index() to one plain scan of g.Arcs: every row is
// exactly the well-formed arcs at that port, in arc order; a node's rows
// concatenate to OutOf / InTo; output rows are numbered densely; and an
// arc that names no node or no port is in no row.
func checkIndex(t *testing.T, name string, g *dfg.Graph) {
	t.Helper()
	x := g.Index()
	type port struct{ node, port int32 }
	outs, ins := map[port][]int32{}, map[port][]int32{}
	for i, a := range g.Arcs {
		if a.From >= 0 && int(a.From) < len(g.Nodes) && a.To >= 0 && int(a.To) < len(g.Nodes) &&
			a.FromPort >= 0 && int(a.FromPort) < g.Nodes[a.From].OutPorts() &&
			a.ToPort >= 0 && a.ToPort < g.Nodes[a.To].NIns {
			outs[port{a.From, a.FromPort}] = append(outs[port{a.From, a.FromPort}], int32(i))
			ins[port{a.To, a.ToPort}] = append(ins[port{a.To, a.ToPort}], int32(i))
		}
	}
	rows, all := 0, 0
	for _, n := range g.Nodes {
		id, label := n.ID, g.Label(n)
		if x.OutRow(id) != rows {
			t.Fatalf("%s: %s has output row %d, want %d", name, label, x.OutRow(id), rows)
		}
		rows += n.OutPorts()
		var outOf, inTo []int32
		for p := 0; p < n.OutPorts(); p++ {
			want := outs[port{id, int32(p)}]
			if got := x.Out(id, p); !slices.Equal(got, want) || !slices.Equal(g.OutArcs(id, p), want) {
				t.Fatalf("%s: %s out port %d holds arcs %v, want %v", name, label, p, got, want)
			}
			outOf = append(outOf, want...)
		}
		for p := 0; p < int(n.NIns); p++ {
			want := ins[port{id, int32(p)}]
			if got := x.In(id, p); !slices.Equal(got, want) || g.InDegree(id, p) != len(want) {
				t.Fatalf("%s: %s in port %d holds arcs %v, want %v", name, label, p, got, want)
			}
			inTo = append(inTo, want...)
		}
		if !slices.Equal(x.OutOf(id), outOf) || !slices.Equal(x.InTo(id), inTo) {
			t.Fatalf("%s: %s: OutOf %v InTo %v, want %v %v", name, label, x.OutOf(id), x.InTo(id), outOf, inTo)
		}
		for _, p := range []int{-1, n.OutPorts(), int(n.NIns), 1 << 40} {
			if p < 0 || p >= n.OutPorts() {
				if got := x.Out(id, p); got != nil {
					t.Fatalf("%s: %s has no out port %d, index holds %v", name, label, p, got)
				}
			}
			if p < 0 || p >= int(n.NIns) {
				if got := x.In(id, p); got != nil {
					t.Fatalf("%s: %s has no in port %d, index holds %v", name, label, p, got)
				}
			}
		}
		all += len(outOf)
	}
	if x.OutRow(int32(len(g.Nodes))) != rows || x.NumArcs() != all {
		t.Fatalf("%s: %d output rows and %d arcs, want %d and %d", name, x.OutRow(int32(len(g.Nodes))), x.NumArcs(), rows, all)
	}
}

// malform appends arcs that name no node or no port of g — the kinds a
// mutated or hand-written graph may hold.
func malform(g *dfg.Graph) int {
	n, start, end := int32(len(g.Nodes)), g.StartID, g.EndID
	bad := []dfg.Arc{
		{From: n + 7, To: end},
		{From: start, To: n},
		{From: -1, To: end},
		{From: start, To: -3},
		{From: start, FromPort: 1, To: end},
		{From: start, FromPort: -1, To: end},
		{From: start, To: end, ToPort: g.Nodes[end].NIns},
		{From: start, To: end, ToPort: -1},
		{From: start, To: start}, // start has no input port
		{From: end, To: end},     // end has no output port
	}
	g.Arcs = append(g.Arcs, bad...)
	return len(bad)
}

// TestIndexIsTheArcTable: every committed workload under every schema,
// plain and optimized, linked graphs included, and generated programs; then
// the same graphs with malformed arcs appended, which the index must leave
// out and Validate must still report.
func TestIndexIsTheArcTable(t *testing.T) {
	graphs := 0
	check := func(name string, g *dfg.Graph) {
		checkIndex(t, name, g)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		arcs, before := len(g.Arcs), g.Index()
		bad := malform(g)
		checkIndex(t, name+"+malformed", g)
		if x := g.Index(); x == before || x.NumArcs() != arcs || len(g.Arcs) != arcs+bad {
			t.Fatalf("%s: index holds %d arcs after %d malformed ones joined %d", name, x.NumArcs(), bad, arcs)
		}
		if err := g.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a graph with malformed arcs", name)
		}
		graphs++
	}
	forEachSuiteGraph(check)
	if graphs < 600 {
		t.Fatalf("only %d graphs checked; suite lost coverage", graphs)
	}
}

// forEachSuiteGraph hands check every committed workload under every
// schema, plain and optimized, linked graphs included, and generated
// programs.
func forEachSuiteGraph(check func(name string, g *dfg.Graph)) {
	each := func(w workloads.Workload) {
		prog := w.Parse()
		if len(prog.Procs()) > 0 {
			if res, err := translate.TranslateLinked(prog); err == nil {
				check(w.Name+"/linked", res.Graph)
			}
		}
		g, err := cfg.Build(prog)
		if err != nil {
			return // procedure workloads translate linked only
		}
		for _, s := range []translate.Schema{translate.Schema1, translate.Schema2, translate.Schema2Opt, translate.Schema3, translate.Schema3Opt} {
			res, err := translate.Translate(g, translate.Options{Schema: s})
			if err != nil {
				continue // schema rejects the program
			}
			plain := res.Graph
			if _, err := opt.Run(res); err == nil && res.Graph != plain {
				check(fmt.Sprintf("%s/%v+opt", w.Name, s), res.Graph)
			}
			check(fmt.Sprintf("%s/%v", w.Name, s), plain)
		}
	}
	for _, w := range workloads.All() {
		each(w)
	}
	for seed := int64(0); seed < 10; seed++ {
		each(workloads.Random(seed, 6, 2))
		each(workloads.RandomUnstructured(seed, 3))
		each(workloads.RandomAliased(seed, 5, 2))
		each(workloads.RandomProcs(seed, 3))
	}
}

// TestIndexFollowsTheGraph: a graph that grew after its index was read
// hands out a new index — by Add, by Connect, or by an append to Arcs
// behind its back — so a stale one cannot be observed; an unchanged graph
// keeps the one it has.
func TestIndexFollowsTheGraph(t *testing.T) {
	g := dfg.NewGraph(lang.MustParse("var x\n"))
	s := g.Add(&dfg.Node{Kind: dfg.Start})
	e := g.Add(&dfg.Node{Kind: dfg.End, NIns: 2})
	g.Connect(s.ID, 0, e.ID, 0, true)
	x0 := g.Index()
	if g.Index() != x0 {
		t.Fatal("an unchanged graph rebuilt its index")
	}
	if len(g.OutArcs(s.ID, 0)) != 1 || g.InDegree(e.ID, 1) != 0 {
		t.Fatal("index does not hold the first arc")
	}

	g.Connect(s.ID, 0, e.ID, 1, true)
	x1 := g.Index()
	if x1 == x0 || len(g.OutArcs(s.ID, 0)) != 2 || g.InDegree(e.ID, 1) != 1 {
		t.Fatal("index is stale after Connect")
	}
	checkIndex(t, "after Connect", g)

	u := g.Add(&dfg.Node{Kind: dfg.UnOp, Op: lang.OpNeg})
	if g.Index() == x1 || len(g.OutArcs(u.ID, 0)) != 0 || g.InDegree(u.ID, 0) != 0 {
		t.Fatal("index is stale after Add")
	}
	g.Connect(s.ID, 0, u.ID, 0, false)
	checkIndex(t, "after Add", g)

	x2 := g.Index()
	g.Arcs = append(g.Arcs, dfg.Arc{From: u.ID, To: e.ID, ToPort: 1})
	if g.Index() == x2 || g.InDegree(e.ID, 1) != 2 {
		t.Fatal("index is stale after an append to Arcs")
	}
	checkIndex(t, "after append", g)
	// The indexes handed out earlier still describe the graph as it was.
	if len(x0.Out(s.ID, 0)) != 1 || len(x1.Out(s.ID, 0)) != 2 {
		t.Fatal("a published index changed")
	}
}

// TestValidateFollowsTheGraph: a graph that passed Validate is not checked
// again while it keeps its size, and is checked again once it grows — by a
// node, an arc or a step program — so a bad addition after a clean
// validation cannot slip through.
func TestValidateFollowsTheGraph(t *testing.T) {
	grow := map[string]func(g *dfg.Graph){
		"arc": func(g *dfg.Graph) { g.Arcs = append(g.Arcs, dfg.Arc{From: int32(len(g.Nodes)) + 7, To: g.EndID}) },
		"node": func(g *dfg.Graph) {
			g.Nodes = append(g.Nodes, &dfg.Node{ID: int32(len(g.Nodes)), Kind: dfg.UnOp, NIns: 1})
		},
		"fusion": func(g *dfg.Graph) { g.Fusions = append(g.Fusions, dfg.FusedInfo{Node: g.StartID}) },
	}
	for name, grow := range grow {
		res, err := translate.Translate(cfg.MustBuild(workloads.MustByName("fib-iterative").Parse()), translate.Options{Schema: translate.Schema2})
		if err != nil {
			t.Fatal(err)
		}
		g := res.Graph
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// An edit in place is not growth: Validate keeps its verdict.
		sw := g.Nodes[g.StartID].Kind
		g.Nodes[g.StartID].Kind = dfg.Merge
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: a graph of unchanged size was checked again: %v", name, err)
		}
		g.Nodes[g.StartID].Kind = sw
		grow(g)
		if err := g.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a graph that grew a bad %s after a clean validation", name, name)
		}
	}
}

// TestIndexVariableArity: End and Synch get their input rows from the
// NIns the caller sets after Add — also when something read the index in
// between, while the node still had none.
func TestIndexVariableArity(t *testing.T) {
	for _, readBetween := range []bool{false, true} {
		g := dfg.NewGraph(lang.MustParse("var x\n"))
		s := g.Add(&dfg.Node{Kind: dfg.Start})
		e := g.Add(&dfg.Node{Kind: dfg.End, NIns: 1})
		sy := g.Add(&dfg.Node{Kind: dfg.Synch})
		if readBetween && g.InDegree(sy.ID, 2) != 0 {
			t.Fatal("a synch without inputs has an input row")
		}
		sy.NIns = 3
		for p := int32(0); p < 3; p++ {
			g.Connect(s.ID, 0, sy.ID, p, true)
		}
		g.Connect(sy.ID, 0, e.ID, 0, true)
		checkIndex(t, fmt.Sprintf("read between %v", readBetween), g)
		if g.InDegree(sy.ID, 2) != 1 || len(g.Index().InTo(sy.ID)) != 3 {
			t.Fatalf("read between %v: synch input rows missing", readBetween)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("read between %v: %v", readBetween, err)
		}
	}
}

// TestIndexSharedByConcurrentReaders: readers that race to build the index
// and the operator table of a finished graph all get complete ones (run
// under -race).
func TestIndexSharedByConcurrentReaders(t *testing.T) {
	res, err := translate.Translate(cfg.MustBuild(workloads.MustByName("bubble-sort").Parse()), translate.Options{Schema: translate.Schema2})
	if err != nil {
		t.Fatal(err)
	}
	// Translate has validated its graph, and so indexed it: copy it.
	g := dfg.NewGraph(res.Graph.Prog)
	g.Names = res.Graph.Names
	for _, n := range res.Graph.Nodes {
		c := *n
		g.Add(&c)
	}
	for _, a := range res.Graph.Arcs {
		g.Connect(a.From, a.FromPort, a.To, a.ToPort, a.Dummy)
	}
	want := len(g.Arcs)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Validate(); err != nil {
				t.Error(err)
			}
			if x := g.Index(); x.NumArcs() != want || len(x.Out(g.StartID, 0)) == 0 {
				t.Errorf("reader saw an index of %d arcs, want %d", x.NumArcs(), want)
			}
			if tab := g.OpTable(); len(tab.Ops) != len(g.Nodes) || len(tab.Out(g.StartID, 0)) == 0 {
				t.Errorf("reader saw a table of %d ops, want %d", len(tab.Ops), len(g.Nodes))
			}
		}()
	}
	wg.Wait()
}
