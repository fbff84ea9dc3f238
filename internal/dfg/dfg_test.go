package dfg

import (
	"strings"
	"testing"
	"unsafe"

	"ctdf/internal/lang"
)

func scratch() *Graph {
	return NewGraph(lang.MustParse("var x\n"))
}

func TestAddAssignsIDsAndArity(t *testing.T) {
	g := scratch()
	s := g.Add(&Node{Kind: Start})
	e := g.Add(&Node{Kind: End, NIns: 1})
	b := g.Add(&Node{Kind: BinOp, Op: lang.OpAdd})
	if s.ID != 0 || e.ID != 1 || b.ID != 2 {
		t.Errorf("IDs not sequential: %d %d %d", s.ID, e.ID, b.ID)
	}
	if b.NIns != 2 {
		t.Errorf("binop NIns = %d, want 2", b.NIns)
	}
	if g.StartID != s.ID || g.EndID != e.ID {
		t.Error("start/end not registered")
	}
}

func TestConnectAndArcLookup(t *testing.T) {
	g := scratch()
	s := g.Add(&Node{Kind: Start})
	e := g.Add(&Node{Kind: End, NIns: 1})
	g.Connect(s.ID, 0, e.ID, 0, true)
	arcs := g.OutArcs(s.ID, 0)
	if len(arcs) != 1 || g.Arcs[arcs[0]].To != e.ID || !g.Arcs[arcs[0]].Dummy {
		t.Errorf("arcs = %+v", arcs)
	}
	if g.InDegree(e.ID, 0) != 1 {
		t.Errorf("in-degree = %d", g.InDegree(e.ID, 0))
	}
	if g.NumArcs() != 1 || g.NumNodes() != 2 {
		t.Errorf("counts wrong")
	}
}

func TestValidateRules(t *testing.T) {
	// Unconnected input port.
	g := scratch()
	s := g.Add(&Node{Kind: Start})
	e := g.Add(&Node{Kind: End, NIns: 1})
	b := g.Add(&Node{Kind: BinOp, Op: lang.OpAdd})
	g.Connect(s.ID, 0, e.ID, 0, true)
	g.Connect(s.ID, 0, b.ID, 0, false)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "port 1") {
		t.Errorf("want unconnected-port error, got %v", err)
	}

	// Double-fed non-merge port.
	g2 := scratch()
	s2 := g2.Add(&Node{Kind: Start})
	e2 := g2.Add(&Node{Kind: End, NIns: 1})
	u := g2.Add(&Node{Kind: UnOp, Op: lang.OpNeg})
	g2.Connect(s2.ID, 0, u.ID, 0, false)
	g2.Connect(s2.ID, 0, u.ID, 0, false)
	g2.Connect(u.ID, 0, e2.ID, 0, false)
	if err := g2.Validate(); err == nil {
		t.Error("doubly-fed unop port must be rejected")
	}

	// Merge with fewer than 2 arcs.
	g3 := scratch()
	s3 := g3.Add(&Node{Kind: Start})
	e3 := g3.Add(&Node{Kind: End, NIns: 1})
	m := g3.Add(&Node{Kind: Merge})
	g3.Connect(s3.ID, 0, m.ID, 0, true)
	g3.Connect(m.ID, 0, e3.ID, 0, true)
	if err := g3.Validate(); err == nil {
		t.Error("1-input merge must be rejected")
	}

	// Missing start/end.
	g4 := scratch()
	if err := g4.Validate(); err == nil {
		t.Error("graph without start/end must be rejected")
	}

	// Out-of-range port.
	g5 := scratch()
	s5 := g5.Add(&Node{Kind: Start})
	e5 := g5.Add(&Node{Kind: End, NIns: 1})
	g5.Connect(s5.ID, 0, e5.ID, 0, true)
	g5.Arcs = append(g5.Arcs, Arc{From: s5.ID, FromPort: 3, To: e5.ID, ToPort: 0})
	if err := g5.Validate(); err == nil {
		t.Error("out-of-range port must be rejected")
	}
}

func TestStatsAndCounts(t *testing.T) {
	g := scratch()
	g.Names = []string{"x"}
	s := g.Add(&Node{Kind: Start})
	e := g.Add(&Node{Kind: End, NIns: 1})
	ld := g.Add(&Node{Kind: Load, Var: 1})
	st := g.Add(&Node{Kind: Store, Var: 1})
	sw := g.Add(&Node{Kind: Switch})
	_ = sw
	g.Connect(s.ID, 0, ld.ID, 0, true)
	g.Connect(ld.ID, 0, st.ID, 0, false)
	g.Connect(ld.ID, 1, st.ID, 1, true)
	g.Connect(st.ID, 0, e.ID, 0, true)
	stats := g.Stats()
	if stats.Loads != 1 || stats.Stores != 1 || stats.Switches != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if g.CountKind(Load) != 1 {
		t.Error("CountKind wrong")
	}
}

func TestNodeLabels(t *testing.T) {
	g := &Graph{Names: []string{"x", "y", "q"}}
	cases := []struct {
		n    *Node
		want string
	}{
		{&Node{ID: 1, Kind: Const, Val: 42}, "d1: const 42"},
		{&Node{ID: 2, Kind: BinOp, Op: lang.OpMul}, "d2: binop *"},
		{&Node{ID: 3, Kind: Load, Var: 3}, "d3: load q"},
		{&Node{ID: 7, Kind: Param, Var: 3, Tok: 1}, "d7: param q[x]"},
		{&Node{ID: 4, Kind: Switch, Tok: 1}, "d4: switch[x]"},
		{&Node{ID: 5, Kind: LoopEntry, Tok: 2}, "d5: loop-entry[y]"},
		{&Node{ID: 6, Kind: Merge}, "d6: merge"},
	}
	for _, c := range cases {
		if got := g.Label(c.n); got != c.want {
			t.Errorf("label %q, want %q", got, c.want)
		}
	}
}

// TestRecordSizes pins the graph's records at their 32-bit widths: a
// translated graph holds O(E·V) arcs (§3), so every byte of Arc counts
// E·V times, a Node that holds no pointer is never scanned by the
// collector, and a fused step stands for a pure node of the graph it
// replaced.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(Arc{}); got > 20 {
		t.Errorf("Arc is %d bytes, want at most 20", got)
	}
	if got := unsafe.Sizeof(Node{}); got > 40 {
		t.Errorf("Node is %d bytes, want at most 40", got)
	}
	if got := unsafe.Sizeof(FusedOp{}); got > 24 {
		t.Errorf("FusedOp is %d bytes, want at most 24", got)
	}
}

func TestDOT(t *testing.T) {
	g := scratch()
	s := g.Add(&Node{Kind: Start})
	e := g.Add(&Node{Kind: End, NIns: 1})
	g.Connect(s.ID, 0, e.ID, 0, true)
	dot := g.DOT()
	if !strings.Contains(dot, "digraph dfg") || !strings.Contains(dot, "style=dashed") {
		t.Errorf("DOT output missing dashed dummy arcs:\n%s", dot)
	}
}

// TestFiringRuleClasses pins the §2.2 firing-rule classes per kind and
// arity, independently of the engines that read them.
func TestFiringRuleClasses(t *testing.T) {
	for _, c := range []struct {
		n                          Node
		perToken, matchSite, split bool
	}{
		{Node{Kind: End, NIns: 1}, true, true, false},
		{Node{Kind: End, NIns: 3}, false, true, false},
		{Node{Kind: Const, NIns: 1}, true, false, false},
		{Node{Kind: BinOp, NIns: 2}, false, true, false},
		{Node{Kind: UnOp, NIns: 1}, true, false, false},
		{Node{Kind: Switch, NIns: 2}, false, true, false},
		{Node{Kind: Merge, NIns: 1}, true, false, false},
		{Node{Kind: Synch, NIns: 1}, true, false, false},
		{Node{Kind: Synch, NIns: 4}, false, true, false},
		{Node{Kind: Load, NIns: 1}, true, false, true},
		{Node{Kind: Store, NIns: 2}, false, true, true},
		{Node{Kind: LoadIdx, NIns: 2}, false, true, true},
		{Node{Kind: StoreIdx, NIns: 3}, false, true, true},
		{Node{Kind: LoopEntry, NIns: 2}, true, false, false},
		{Node{Kind: LoopExit, NIns: 1}, true, false, false},
		{Node{Kind: ILoad, NIns: 1}, true, false, true},
		{Node{Kind: IStore, NIns: 2}, false, true, true},
		{Node{Kind: Apply, NIns: 2}, false, true, false},
		{Node{Kind: Param, NIns: 1}, true, false, false},
		{Node{Kind: ProcReturn, NIns: 2}, false, true, false},
		{Node{Kind: Fused, NIns: 3}, false, true, false},
	} {
		n := c.n
		if n.FiresPerToken() != c.perToken || n.MatchSite() != c.matchSite || n.SplitPhase() != c.split {
			t.Errorf("%v/%d: per-token %v match-site %v split-phase %v, want %v %v %v", n.Kind, n.NIns,
				n.FiresPerToken(), n.MatchSite(), n.SplitPhase(), c.perToken, c.matchSite, c.split)
		}
	}
}
