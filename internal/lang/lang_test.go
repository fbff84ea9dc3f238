package lang

import (
	"slices"
	"strings"
	"testing"
)

func TestParseRunningExample(t *testing.T) {
	// The paper's running example (§2.1).
	src := `
var x, y
l: y := x + 1
x := x + 1
if x < 5 then goto l else goto end
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Vars) != 2 {
		t.Fatalf("vars = %d, want 2", len(p.Vars))
	}
	if len(p.Body) != 4 {
		t.Fatalf("body = %d statements, want 4", len(p.Body))
	}
	if _, ok := p.Body[0].(*Label); !ok {
		t.Errorf("body[0] = %T, want *Label", p.Body[0])
	}
	cg, ok := p.Body[3].(*CondGoto)
	if !ok {
		t.Fatalf("body[3] = %T, want *CondGoto", p.Body[3])
	}
	if cg.True != "l" || cg.False != "end" {
		t.Errorf("cond goto targets = %s/%s, want l/end", cg.True, cg.False)
	}
}

func TestParseStructured(t *testing.T) {
	src := `
var a, b, c
if a < b {
  c := 1
} else {
  c := 2
}
while c < 10 {
  c := c + 1
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Body) != 2 {
		t.Fatalf("body = %d statements, want 2", len(p.Body))
	}
	ifs, ok := p.Body[0].(*If)
	if !ok {
		t.Fatalf("body[0] = %T, want *If", p.Body[0])
	}
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Errorf("if arms = %d/%d statements, want 1/1", len(ifs.Then), len(ifs.Else))
	}
	wl, ok := p.Body[1].(*While)
	if !ok {
		t.Fatalf("body[1] = %T, want *While", p.Body[1])
	}
	if len(wl.Body) != 1 {
		t.Errorf("while body = %d statements, want 1", len(wl.Body))
	}
}

func TestParseArraysAndAliases(t *testing.T) {
	src := `
var x, y, z
array a[10], b[5]
alias x ~ z
alias y ~ z
a[x] := b[y] + 1
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Arrays) != 2 || p.Arrays[0].Size != 10 || p.Arrays[1].Size != 5 {
		t.Fatalf("arrays parsed wrong: %+v", p.Arrays)
	}
	if len(p.Aliases) != 2 {
		t.Fatalf("aliases = %d, want 2", len(p.Aliases))
	}
	aa, ok := p.Body[0].(*ArrayAssign)
	if !ok {
		t.Fatalf("body[0] = %T, want *ArrayAssign", p.Body[0])
	}
	if aa.Name != "a" {
		t.Errorf("array assign target = %s, want a", aa.Name)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	src := "var x\nx := 1 + 2 * 3 < 7 && 1 || 0\n"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Body[0].(*Assign).Expr.String()
	want := "(((1 + (2 * 3)) < 7) && 1) || 0"
	// Normalize: our printer parenthesizes every binary node.
	want = "((((1 + (2 * 3)) < 7) && 1) || 0)"
	if got != want {
		t.Errorf("parsed %q, want %q", got, want)
	}
}

func TestUnaryOperators(t *testing.T) {
	p, err := Parse("var x\nx := -x + !0\n")
	if err != nil {
		t.Fatal(err)
	}
	got := p.Body[0].(*Assign).Expr.String()
	if got != "(-x + !0)" {
		t.Errorf("parsed %q", got)
	}
}

func TestComments(t *testing.T) {
	src := `
var x  # hash comment
// line comment
x := 1 # trailing
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"undeclared scalar", "x := 1\n", "undeclared scalar x"},
		{"undeclared in expr", "var x\nx := y\n", "undeclared scalar y"},
		{"undeclared array", "var i\nb[i] := 0\n", "undeclared array b"},
		{"array as scalar", "array a[3]\na := 1\n", "undeclared scalar a"},
		{"scalar as array", "var a\na[0] := 1\n", "undeclared array a"},
		{"unknown label", "var x\ngoto nowhere\n", "undeclared label nowhere"},
		{"duplicate label", "var x\nl:\nl:\n", "duplicate label"},
		{"duplicate var", "var x, x\n", "duplicate declaration"},
		{"var array clash", "var a\narray a[3]\n", "duplicate declaration"},
		{"reserved end label", "var x\nend:\n", "reserved"},
		{"self alias", "var x\nalias x ~ x\n", "itself"},
		{"alias undeclared", "var x\nalias x ~ q\n", "undeclared"},
		{"single equals", "var x\nx := 1 = 2\n", "unexpected '='"},
		{"bad char", "var x\nx := 1 @ 2\n", "unexpected character"},
		{"zero size array", "array a[0]\n", "non-positive size"},
		{"missing brace", "var x\nif x { x := 1\n", "expected '}'"},
		{"garbage", "var x\n)\n", "expected statement"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", c.src, c.wantSub)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{
		"var x, y\nl: y := x + 1\nx := x + 1\nif (x < 5) then goto l else goto end\n",
		"var a, b\nif (a < b) {\n  a := 1\n} else {\n  b := 2\n}\n",
		"var i\narray a[10]\nwhile (i < 10) {\n  a[i] := i\n  i := i + 1\n}\n",
		"var x, z\nalias x ~ z\nx := 1\nz := 2\n",
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		f1 := p1.Format()
		p2, err := Parse(f1)
		if err != nil {
			t.Fatalf("reparse of formatted %q failed: %v\nformatted:\n%s", src, err, f1)
		}
		f2 := p2.Format()
		if f1 != f2 {
			t.Errorf("format not a fixed point:\nfirst:\n%s\nsecond:\n%s", f1, f2)
		}
	}
}

func TestReads(t *testing.T) {
	p := MustParse("var x, y\narray a[4]\nx := a[y] + x\n")
	got := AppendReads([]string{"kept"}, p.Body[0].(*Assign).Expr)
	if want := []string{"kept", "a", "y", "x"}; !slices.Equal(got, want) {
		t.Errorf("AppendReads = %v, want %v (in the order met)", got, want)
	}
}

func TestPosReporting(t *testing.T) {
	_, err := Parse("var x\n\n   x := y\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "3:") {
		t.Errorf("error %q should mention line 3", err)
	}
}

func TestKeywordsNotIdents(t *testing.T) {
	_, err := Parse("var while\n")
	if err == nil {
		t.Fatal("'while' must not parse as a variable name")
	}
}

func TestProgramAccessors(t *testing.T) {
	p := MustParse("var x, y\narray a[7]\nx := 1\n")
	if got := p.VarNames(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("VarNames = %v", got)
	}
	if got := p.ArrayNames(); len(got) != 1 || got[0] != "a" {
		t.Errorf("ArrayNames = %v", got)
	}
	if got := p.AllNames(); len(got) != 3 {
		t.Errorf("AllNames = %v", got)
	}
	if p.ArraySize("a") != 7 || p.ArraySize("x") != 0 {
		t.Errorf("ArraySize wrong")
	}
	if !p.IsArray("a") || p.IsArray("x") {
		t.Errorf("IsArray wrong")
	}
}
