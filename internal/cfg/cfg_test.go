package cfg

import (
	"slices"
	"strings"
	"testing"

	"ctdf/internal/lang"
)

// runningExample is the paper's running example program (§2.1, Figure 1).
const runningExample = `
var x, y
l: y := x + 1
x := x + 1
if x < 5 then goto l else goto end
`

func build(t *testing.T, src string) *Graph {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func countKind(g *Graph, k NodeKind) int {
	n := 0
	for _, nd := range g.Nodes {
		if nd.Kind == k {
			n++
		}
	}
	return n
}

func TestBuildRunningExample(t *testing.T) {
	g := build(t, runningExample)
	// Figure 1: start, end, join l, two assignments, one fork.
	if got := countKind(g, KindAssign); got != 2 {
		t.Errorf("assignments = %d, want 2", got)
	}
	if got := countKind(g, KindFork); got != 1 {
		t.Errorf("forks = %d, want 1", got)
	}
	if got := countKind(g, KindJoin); got != 1 {
		t.Errorf("joins = %d, want 1", got)
	}
	// start has the conventional extra edge to end.
	start := g.Nodes[g.Start]
	if len(start.Succs) != 2 || start.Succs[1] != g.End {
		t.Errorf("start succs = %v, want [entry end]", start.Succs)
	}
	// The fork's true arm goes to the join, false arm to end.
	for _, n := range g.Nodes {
		if n.Kind == KindFork {
			if g.Nodes[n.Succs[0]].Kind != KindJoin {
				t.Errorf("fork true arm goes to %v, want join", g.Nodes[n.Succs[0]].Kind)
			}
			if n.Succs[1] != g.End {
				t.Errorf("fork false arm goes to n%d, want end", n.Succs[1])
			}
		}
	}
}

func TestBuildStructuredIf(t *testing.T) {
	g := build(t, `
var a, b, c
if a < b {
  c := 1
} else {
  c := 2
}
a := c
`)
	if got := countKind(g, KindFork); got != 1 {
		t.Errorf("forks = %d, want 1", got)
	}
	if got := countKind(g, KindJoin); got != 1 {
		t.Errorf("joins = %d, want 1 (if-merge)", got)
	}
	if got := countKind(g, KindAssign); got != 3 {
		t.Errorf("assigns = %d, want 3", got)
	}
}

func TestBuildIfWithoutElse(t *testing.T) {
	g := build(t, "var a\nif a < 3 {\n  a := 3\n}\na := a + 1\n")
	// fork false arm must reach the statement after the if (via the merge join).
	var fork *Node
	for _, n := range g.Nodes {
		if n.Kind == KindFork {
			fork = n
		}
	}
	if fork == nil {
		t.Fatal("no fork built")
	}
	j := g.Nodes[fork.Succs[1]]
	if j.Kind != KindJoin {
		t.Fatalf("fork false arm = %v, want join", j.Kind)
	}
}

func TestBuildWhile(t *testing.T) {
	g := build(t, "var i\nwhile i < 10 {\n  i := i + 1\n}\n")
	if got := countKind(g, KindJoin); got != 1 {
		t.Errorf("joins = %d, want 1 (loop header)", got)
	}
	// The join must have two preds: entry and back edge.
	for _, n := range g.Nodes {
		if n.Kind == KindJoin && len(n.Preds) != 2 {
			t.Errorf("loop header preds = %v, want 2", n.Preds)
		}
	}
}

func TestBuildDeadCodeEliminated(t *testing.T) {
	g := build(t, `
var x
goto done
x := 42
done:
x := 1
`)
	if got := countKind(g, KindAssign); got != 1 {
		t.Errorf("assigns = %d, want 1 (x := 42 is unreachable)", got)
	}
}

func TestBuildRejectsInfiniteLoop(t *testing.T) {
	p, err := lang.Parse("var x\nspin:\nx := x + 1\ngoto spin\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(p); err == nil {
		t.Fatal("Build accepted a program that can never reach end")
	} else if !strings.Contains(err.Error(), "cannot reach end") {
		t.Errorf("error = %v, want 'cannot reach end'", err)
	}
}

func TestValidateCatchesBrokenGraphs(t *testing.T) {
	g := build(t, "var x\nx := 1\n")
	// Break the pred list.
	g.Nodes[g.End].Preds = nil
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted inconsistent pred list")
	}
}

func TestEmptyProgram(t *testing.T) {
	g := build(t, "var x\n")
	if g.Len() != 2 {
		t.Errorf("nodes = %d, want 2 (start, end)", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRefs(t *testing.T) {
	g := build(t, "var x, y\narray a[4]\na[y] := y + x\nif x < 2 then goto end else goto end\n")
	var assign, fork *Node
	for _, n := range g.Nodes {
		switch n.Kind {
		case KindAssign:
			assign = n
		case KindFork:
			fork = n
		}
	}
	if refs := g.RefSet([]string{"kept"}, assign.ID); !slices.Equal(refs, []string{"kept", "a", "x", "y"}) {
		t.Errorf("assign refs = %v, want a, x and y appended, sorted and once each", refs)
	}
	if reads := g.ReadSet([]string{"kept"}, assign.ID); !slices.Equal(reads, []string{"kept", "x", "y"}) {
		t.Errorf("reads = %v, want x and y appended, sorted and once each (a is written, not read, by a[y] := y+x)", reads)
	}
	if frefs := g.RefSet(nil, fork.ID); !slices.Equal(frefs, []string{"x"}) {
		t.Errorf("fork refs = %v, want [x]", frefs)
	}
}

func TestRPOAndReverseRPO(t *testing.T) {
	g := build(t, runningExample)
	rpo := g.RPO()
	if rpo[0] != g.Start {
		t.Errorf("RPO must start at start, got n%d", rpo[0])
	}
	pos := map[int]int{}
	for i, id := range rpo {
		pos[id] = i
	}
	if len(pos) != g.Len() {
		t.Errorf("RPO covers %d nodes, want %d", len(pos), g.Len())
	}
	rrpo := g.ReverseRPO()
	if rrpo[0] != g.End {
		t.Errorf("reverse RPO must start at end, got n%d", rrpo[0])
	}
}

func TestDOTOutput(t *testing.T) {
	g := build(t, runningExample)
	dot := g.DOT()
	if !strings.Contains(dot, "digraph cfg") || !strings.Contains(dot, "->") {
		t.Errorf("DOT output malformed:\n%s", dot)
	}
}

func TestGotoEndFromMiddle(t *testing.T) {
	g := build(t, `
var x
if x < 1 then goto quit else goto cont
cont:
x := 5
quit:
`)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if countKind(g, KindAssign) != 1 {
		t.Errorf("assigns = %d, want 1", countKind(g, KindAssign))
	}
}
