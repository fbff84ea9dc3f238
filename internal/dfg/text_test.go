package dfg

import (
	"strings"
	"testing"

	"ctdf/internal/lang"
)

func sampleGraph(t *testing.T) *Graph {
	t.Helper()
	prog := lang.MustParse("var x, z\narray a[4]\nalias x ~ z\nx := 1\n")
	g := NewGraph(prog)
	g.Names = []string{"x"}
	start := g.Add(&Node{Kind: Start})
	end := g.Add(&Node{Kind: End, NIns: 2})
	c := g.Add(&Node{Kind: Const, Val: 7, Stmt: 3})
	ld := g.Add(&Node{Kind: Load, Var: 1})
	st := g.Add(&Node{Kind: Store, Var: 1})
	bin := g.Add(&Node{Kind: BinOp, Op: lang.OpAdd})
	un := g.Add(&Node{Kind: UnOp, Op: lang.OpNeg})
	sy := g.Add(&Node{Kind: Synch, NIns: 2, Tok: 1})
	g.Connect(start.ID, 0, c.ID, 0, true)
	g.Connect(start.ID, 0, ld.ID, 0, true)
	g.Connect(c.ID, 0, bin.ID, 0, false)
	g.Connect(ld.ID, 0, bin.ID, 1, false)
	g.Connect(bin.ID, 0, un.ID, 0, false)
	g.Connect(un.ID, 0, st.ID, 0, false)
	g.Connect(ld.ID, 1, st.ID, 1, true)
	g.Connect(st.ID, 0, sy.ID, 0, true)
	g.Connect(start.ID, 0, sy.ID, 1, true)
	g.Connect(sy.ID, 0, end.ID, 0, true)
	g.Connect(start.ID, 0, end.ID, 1, true)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTextRoundTrip(t *testing.T) {
	g := sampleGraph(t)
	text := Text(g)
	g2, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, text)
	}
	if Text(g2) != text {
		t.Errorf("round trip not a fixed point:\n%s\nvs\n%s", text, Text(g2))
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumArcs() != g.NumArcs() {
		t.Error("round trip changed sizes")
	}
	// Program context carried over.
	if g2.Prog.ArraySize("a") != 4 || len(g2.Prog.Aliases) != 1 {
		t.Error("program declarations lost")
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"no header", "node d0 start\n"},
		{"bad kind", "ctdf-dataflow v1\nnode d0 zorp\n"},
		{"non-dense id", "ctdf-dataflow v1\nnode d1 start\n"},
		{"bad attr", "ctdf-dataflow v1\nnode d0 start frob=1\n"},
		{"arc before node", "ctdf-dataflow v1\narc d0.0 -> d1.0\n"},
		{"bad arc port", "ctdf-dataflow v1\nnode d0 start\nnode d1 end ins=1\narc d0.7 -> d1.0\n"},
		{"unknown node in arc", "ctdf-dataflow v1\nnode d0 start\nnode d1 end ins=1\narc d0.0 -> d9.0\n"},
		{"decl after node", "ctdf-dataflow v1\nnode d0 start\nvar x\n"},
		{"empty", "ctdf-dataflow v1\n"},
		{"bad op", "ctdf-dataflow v1\nnode d0 binop op=@\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseText(strings.NewReader(c.text)); err == nil {
				t.Errorf("accepted %q", c.text)
			}
		})
	}
}

func TestUnaryOpNamesDistinct(t *testing.T) {
	prog := lang.MustParse("var x\nx := 1\n")
	g := NewGraph(prog)
	s := g.Add(&Node{Kind: Start})
	e := g.Add(&Node{Kind: End, NIns: 1})
	neg := g.Add(&Node{Kind: UnOp, Op: lang.OpNeg})
	not := g.Add(&Node{Kind: UnOp, Op: lang.OpNot})
	g.Connect(s.ID, 0, neg.ID, 0, false)
	g.Connect(neg.ID, 0, not.ID, 0, false)
	g.Connect(not.ID, 0, e.ID, 0, false)
	text := Text(g)
	if !strings.Contains(text, "op=neg") || !strings.Contains(text, "op=not") {
		t.Errorf("unary ops not distinguished:\n%s", text)
	}
	g2, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Nodes[2].Op != lang.OpNeg || g2.Nodes[3].Op != lang.OpNot {
		t.Error("unary ops scrambled after round trip")
	}
}

func TestListing(t *testing.T) {
	g := sampleGraph(t)
	l := Listing(g)
	if !strings.Contains(l, "=>") || !strings.Contains(l, "load x") {
		t.Errorf("listing malformed:\n%s", l)
	}
	// Every node appears.
	if got := strings.Count(l, "\n"); got != g.NumNodes() {
		t.Errorf("listing has %d lines, want %d", got, g.NumNodes())
	}
}
