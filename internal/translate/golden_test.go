package translate

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/workloads"
)

// Structural "golden" checks against the paper's figures: the shapes of
// the translated graphs, not just their behavior.

// Figure 5: the Schema 1 translation of the running example has exactly
// one access token line — a single switch routes it at the fork, a single
// merge joins it at the label, and all memory operations thread it.
func TestGoldenSchema1RunningExample(t *testing.T) {
	g := cfg.MustBuild(workloads.RunningExample.Parse())
	res, err := Translate(g, Options{Schema: Schema1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Universe) != 1 || res.Universe[0] != SingleTokenName {
		t.Fatalf("universe = %v, want just the single access token", res.Universe)
	}
	st := res.Graph.Stats()
	// y := x+1 loads x; x := x+1 loads x; fork loads x: 3 loads.
	if st.Loads != 3 {
		t.Errorf("loads = %d, want 3", st.Loads)
	}
	// Stores: y and x.
	if st.Stores != 2 {
		t.Errorf("stores = %d, want 2", st.Stores)
	}
	// One switch for the single token at the fork. The label join of
	// Figure 5 is realized by the loop entry's two ports (initial/back)
	// once loop control is inserted, so no separate merge remains.
	if st.Switches != 1 {
		t.Errorf("switches = %d, want 1", st.Switches)
	}
	if st.Merges != 0 {
		t.Errorf("merges = %d, want 0 (the loop entry subsumes the join)", st.Merges)
	}
	if res.Graph.CountKind(dfg.LoopEntry) != 1 || res.Graph.CountKind(dfg.LoopExit) != 1 {
		t.Errorf("loop control = %d/%d, want 1/1",
			res.Graph.CountKind(dfg.LoopEntry), res.Graph.CountKind(dfg.LoopExit))
	}
	// Memory operations are strictly serialized on the single token: no
	// synch trees needed.
	if st.Synchs != 0 {
		t.Errorf("synchs = %d, want 0", st.Synchs)
	}
}

// Figure 8: Schema 2 on the running example — one token per variable, so
// per-variable switches at the fork, merges at the join, and loop
// entry/exit per variable.
func TestGoldenSchema2RunningExample(t *testing.T) {
	g := cfg.MustBuild(workloads.RunningExample.Parse())
	res, err := Translate(g, Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Universe) != 2 {
		t.Fatalf("universe = %v, want x and y", res.Universe)
	}
	byTok := map[string]map[dfg.Kind]int{}
	for _, n := range res.Graph.Nodes {
		if tok := res.Graph.Name(n.Tok); tok != "" {
			if byTok[tok] == nil {
				byTok[tok] = map[dfg.Kind]int{}
			}
			byTok[tok][n.Kind]++
		}
	}
	for _, v := range []string{"x", "y"} {
		if byTok[v][dfg.Switch] != 1 {
			t.Errorf("switches for %s = %d, want 1", v, byTok[v][dfg.Switch])
		}
		if byTok[v][dfg.Merge] != 0 {
			t.Errorf("merges for %s = %d, want 0 (loop entry subsumes the join)", v, byTok[v][dfg.Merge])
		}
		if byTok[v][dfg.LoopEntry] != 1 || byTok[v][dfg.LoopExit] != 1 {
			t.Errorf("loop control for %s = %d/%d, want 1/1",
				v, byTok[v][dfg.LoopEntry], byTok[v][dfg.LoopExit])
		}
	}
}

// Figure 9(b)→(a): under the optimized construction the access token for
// x flows directly from "x := x+1" to "x := 0" without passing any switch,
// merge, or other statement's operators.
func TestGoldenFig9BypassWiring(t *testing.T) {
	g := cfg.MustBuild(workloads.Fig9Example.Parse())
	res, err := Translate(g, Options{Schema: Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	dg := res.Graph
	// Find the store of the first x assignment (x := x+1) and of the
	// second (x := 0).
	var firstStore, secondStore *dfg.Node
	for _, n := range dg.Nodes {
		if n.Kind == dfg.Store && dg.Name(n.Var) == "x" {
			if firstStore == nil {
				firstStore = n
			} else {
				secondStore = n
			}
		}
	}
	if firstStore == nil || secondStore == nil {
		t.Fatal("expected two stores to x")
	}
	// The access-out of the first store must feed the second statement's x
	// operation chain directly: follow the single dummy arc.
	arcs := dg.OutArcs(firstStore.ID, 0)
	foundDirect := false
	for _, ai := range arcs {
		a := dg.Arcs[ai]
		to := dg.Nodes[a.To]
		// Acceptable direct targets: the load of x in the second statement
		// (x := 0 has no load — so the store itself) or the store.
		if (to.Kind == dfg.Load || to.Kind == dfg.Store) && dg.Name(to.Var) == "x" && to.Stmt == secondStore.Stmt {
			foundDirect = true
		}
		if to.Kind == dfg.Switch {
			t.Errorf("access_x still passes a switch (d%d)", a.To)
		}
	}
	if !foundDirect {
		t.Errorf("access_x does not flow directly between the two x statements; arcs: %v", arcs)
	}
}

// §3: Schema 2's loop control carries the complete token set; §4's
// optimized construction lets unneeded tokens bypass the loop.
func TestGoldenLoopBypass(t *testing.T) {
	w := workloads.Workload{Name: "bypass-loop", Source: `
var x, i
x := 42
while i < 5 {
  i := i + 1
}
x := x + 1
`}
	g := cfg.MustBuild(w.Parse())
	s2, err := Translate(g, Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Translate(g, Options{Schema: Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	countLE := func(res *Result, tok string) int {
		c := 0
		for _, n := range res.Graph.Nodes {
			if n.Kind == dfg.LoopEntry && res.Graph.Name(n.Tok) == tok {
				c++
			}
		}
		return c
	}
	if countLE(s2, "x") != 1 {
		t.Errorf("Schema 2 must thread x through the loop (complete set), got %d", countLE(s2, "x"))
	}
	if countLE(opt, "x") != 0 {
		t.Errorf("optimized construction must let x bypass the loop, got %d loop entries", countLE(opt, "x"))
	}
	if countLE(opt, "i") != 1 {
		t.Errorf("i is needed by the loop: %d loop entries", countLE(opt, "i"))
	}
}
