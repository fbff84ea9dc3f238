package lang

import (
	"strings"
	"testing"
)

const fortranF = `
var a, b, c, d
proc f(x, y, z) {
  z := x + y
  x := x * 2
}
a := 1
b := 2
call f(a, b, a)
c := 10
d := 20
call f(c, d, d)
`

func TestParseProcAndCall(t *testing.T) {
	p, err := Parse(fortranF)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Procedures) != 1 {
		t.Fatalf("procs = %d", len(p.Procedures))
	}
	pr := p.Procedures[0]
	if pr.Name != "f" || len(pr.Params) != 3 || pr.Params[2] != "z" {
		t.Errorf("proc parsed wrong: %+v", pr)
	}
	calls := p.Calls()
	if len(calls) != 2 {
		t.Fatalf("calls = %d", len(calls))
	}
	if calls[0].Call.Args[0] != "a" || calls[0].Call.Args[2] != "a" {
		t.Errorf("call args = %v", calls[0].Call.Args)
	}
	if calls[0].Caller != "" {
		t.Errorf("caller = %q, want main", calls[0].Caller)
	}
}

func TestInlineSubstitutesByReference(t *testing.T) {
	p := MustParse(fortranF)
	inl, err := p.Inline()
	if err != nil {
		t.Fatal(err)
	}
	if len(inl.Procedures) != 0 {
		t.Error("inlined program still has procedures")
	}
	f := inl.Format()
	// First call: z→a, x→a, y→b: "a := a + b" then "a := a * 2".
	if !strings.Contains(f, "a := (a + b)") {
		t.Errorf("missing substituted statement in:\n%s", f)
	}
	// Second call: z→d, x→c, y→d.
	if !strings.Contains(f, "d := (c + d)") {
		t.Errorf("missing second expansion in:\n%s", f)
	}
	// Inlined output must reparse.
	if _, err := Parse(f); err != nil {
		t.Fatalf("inlined program does not reparse: %v\n%s", err, f)
	}
}

func TestInlineLabelsUnique(t *testing.T) {
	src := `
var a, b
proc g(v) {
  l: v := v + 1
  if v < 3 then goto l else goto done
  done:
}
call g(a)
call g(b)
`
	p := MustParse(src)
	inl, err := p.Inline()
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(inl); err != nil {
		t.Fatalf("inlined labels collide: %v", err)
	}
}

func TestNestedCallsInline(t *testing.T) {
	src := `
var a, r
proc inner(p, q) {
  q := p * 10
}
proc outer(u) {
  call inner(u, r)
}
a := 7
call outer(a)
`
	p := MustParse(src)
	inl, err := p.Inline()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(inl.Format(), "r := (a * 10)") {
		t.Errorf("nested inline wrong:\n%s", inl.Format())
	}
}

func TestProcErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown proc", "var a\ncall nope(a)\n", "undeclared procedure"},
		{"bad arity", "var a\nproc f(x, y) { x := y }\ncall f(a)\n", "want 2"},
		{"arg not scalar", "array a[3]\nproc f(x) { x := 1 }\ncall f(a)\n", "not a declared scalar"},
		{"param shadows global", "var x\nproc f(x) { x := 1 }\nx := 0\n", "shadows a global"},
		{"dup param", "var a\nproc f(x, x) { x := 1 }\ncall f(a)\n", "duplicate parameter"},
		{"dup proc", "var a\nproc f(x) { x := 1 }\nproc f(y) { y := 2 }\ncall f(a)\n", "duplicate procedure"},
		{"recursion", "var a\nproc f(x) { call f(x) }\ncall f(a)\n", "recursive"},
		{"mutual recursion", "var a\nproc f(x) { call g(x) }\nproc g(y) { call f(y) }\ncall f(a)\n", "recursive"},
		{"goto end in body", "var a\nproc f(x) { goto end }\ncall f(a)\n", "undeclared label end"},
		{"undeclared in body", "var a\nproc f(x) { y := 1 }\ncall f(a)\n", "undeclared scalar y"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("accepted %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestProcFormatRoundTrip(t *testing.T) {
	p := MustParse(fortranF)
	f1 := p.Format()
	p2, err := Parse(f1)
	if err != nil {
		t.Fatalf("formatted program does not reparse: %v\n%s", err, f1)
	}
	if f2 := p2.Format(); f1 != f2 {
		t.Errorf("format not a fixed point:\n%s\nvs\n%s", f1, f2)
	}
}

func TestProcAndReachable(t *testing.T) {
	p, err := Parse(`
var a, b
proc leaf(x) {
  x := x + 1
}
proc mid(y) {
  if y < 3 {
    call leaf(y)
  }
}
proc top(z) {
  while z < 10 {
    call mid(z)
  }
}
proc orphan(w) {
  call leaf(w)
}
call top(a)
b := a
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		from string
		want string
	}{
		{"", "leaf mid top"}, // a nested chain, reached through if and while
		{"top", "leaf mid"},  // from a procedure body
		{"mid", "leaf"},
		{"leaf", ""},
		{"orphan", "leaf"}, // declared, never called, yet its own calls count
	} {
		if got := strings.Join(p.Reachable(tc.from), " "); got != tc.want {
			t.Errorf("Reachable(%q) = %q, want %q", tc.from, got, tc.want)
		}
	}
	if pr := p.Proc("mid"); pr == nil || pr != &p.Procedures[1] {
		t.Errorf("Proc(mid) = %v, want the declaration", pr)
	}
	if pr := p.Proc("nosuch"); pr != nil {
		t.Errorf("Proc of an unknown name = %v, want nil", pr)
	}
	if got := p.Reachable("nosuch"); got != nil {
		t.Errorf("Reachable of an unknown name = %v, want none", got)
	}
}
