package translate

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/chanexec"
	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/machine"
	"ctdf/internal/workloads"
)

// checkLinked runs the separately compiled graph and compares against the
// sequential interpreter (over the inlined CFG).
func checkLinked(t *testing.T, w workloads.Workload) *Result {
	t.Helper()
	prog := w.Parse()
	res, err := TranslateLinked(prog)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	inlined := cfg.MustBuild(prog)
	want, err := interp.Run(inlined, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := machine.Run(res.Graph, machine.Config{DetectRaces: true})
	if err != nil {
		t.Fatalf("%s: linked execution failed: %v", w.Name, err)
	}
	if got := out.Store.Snapshot(); got != want.Store.Snapshot() {
		t.Errorf("%s: linked result differs\nlinked:\n%s\ninterp:\n%s", w.Name, got, want.Store.Snapshot())
	}
	return res
}

func TestLinkedBasicCall(t *testing.T) {
	checkLinked(t, workloads.Workload{Name: "one-call", Source: `
var a, b
proc double(x) {
  x := x * 2
}
a := 21
call double(a)
b := a + 1
`})
}

func TestLinkedPaperExample(t *testing.T) {
	res := checkLinked(t, workloads.MustByName("proc-fortran"))
	// The body is compiled ONCE: exactly one set of Param nodes and one
	// ProcReturn for f, with two Apply sites.
	if got := res.Graph.CountKind(dfg.Apply); got != 2 {
		t.Errorf("apply nodes = %d, want 2", got)
	}
	if got := res.Graph.CountKind(dfg.ProcReturn); got != 1 {
		t.Errorf("proc-return nodes = %d, want 1", got)
	}
	if len(res.Graph.Calls) != 2 {
		t.Errorf("call infos = %d, want 2", len(res.Graph.Calls))
	}
}

func TestLinkedCallInLoop(t *testing.T) {
	checkLinked(t, workloads.MustByName("proc-in-loop"))
}

func TestLinkedNestedCalls(t *testing.T) {
	checkLinked(t, workloads.Workload{Name: "nested", Source: `
var a, r, s
proc inner(p, q) {
  q := p * 10
}
proc outer(u) {
  call inner(u, r)
  s := r + 1
}
a := 7
call outer(a)
`})
}

func TestLinkedAliasedActuals(t *testing.T) {
	// f(a, b, a): formals x and z denote the same cell during the call;
	// the derived alias structure makes the shared body serialize them.
	checkLinked(t, workloads.Workload{Name: "aliased-actuals", Source: `
var a, b
proc f(x, y, z) {
  x := 5
  z := z + 1
  y := z * 10
}
call f(a, b, a)
`})
}

func TestLinkedCallsWithLoopsInside(t *testing.T) {
	checkLinked(t, workloads.Workload{Name: "loopy-callee", Source: `
var n, out1, out2
proc sumto(limit, acc) {
  acc := 0
  iv := 0
  while iv < limit {
    iv := iv + 1
    acc := acc + iv
  }
}
var iv
n := 6
call sumto(n, out1)
n := 4
call sumto(n, out2)
`})
}

func TestLinkedConditionalCall(t *testing.T) {
	checkLinked(t, workloads.Workload{Name: "conditional-call", Source: `
var a, b, w
proc bump(x) {
  x := x + 100
}
w := 1
if w == 1 {
  call bump(a)
} else {
  call bump(b)
}
`})
}

func TestLinkedGlobalAccessInCallee(t *testing.T) {
	checkLinked(t, workloads.Workload{Name: "callee-global", Source: `
var g, a, b
proc addg(x) {
  x := x + g
  g := g + 1
}
g := 5
a := 1
b := 2
call addg(a)
call addg(b)
`})
}

func TestLinkedRejectsProcFreePrograms(t *testing.T) {
	prog := workloads.RunningExample.Parse()
	if _, err := TranslateLinked(prog); err == nil {
		t.Error("linked translation of a procedure-free program must be rejected")
	}
}

// Independent calls on disjoint data overlap: two activations of the same
// body run concurrently under different activation frames.
func TestLinkedActivationsOverlap(t *testing.T) {
	w := workloads.Workload{Name: "parallel-calls", Source: `
var a, b
proc work(x) {
  x := x + 1
  x := x * 3
  x := x - 2
  x := x * x
}
a := 2
b := 5
call work(a)
call work(b)
`}
	prog := w.Parse()
	res, err := TranslateLinked(prog)
	if err != nil {
		t.Fatal(err)
	}
	out, err := machine.Run(res.Graph, machine.Config{MemLatency: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Sequentialized calls would cost at least 2× the single-call path;
	// overlapping activations should do noticeably better than the serial
	// sum. Compare against the inlined Schema 1 (fully serial) baseline.
	inlined := cfg.MustBuild(prog)
	serial, err := Translate(inlined, Options{Schema: Schema1})
	if err != nil {
		t.Fatal(err)
	}
	so, err := machine.Run(serial.Graph, machine.Config{MemLatency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Cycles >= so.Stats.Cycles {
		t.Errorf("linked activations (%d cycles) no faster than serial schema 1 (%d)",
			out.Stats.Cycles, so.Stats.Cycles)
	}
}

// Both engines agree on linked graphs too (same stores, same firings).
func TestLinkedEnginesAgree(t *testing.T) {
	for _, w := range []workloads.Workload{
		workloads.MustByName("proc-fortran"),
		workloads.MustByName("proc-in-loop"),
	} {
		res, err := TranslateLinked(w.Parse())
		if err != nil {
			t.Fatal(err)
		}
		mo, err := machine.Run(res.Graph, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		co, err := chanexec.Run(res.Graph, chanexec.Config{})
		if err != nil {
			t.Fatalf("%s: chanexec: %v", w.Name, err)
		}
		if mo.Store.Snapshot() != co.Store.Snapshot() {
			t.Errorf("%s: engines disagree on linked graph", w.Name)
		}
		if int64(mo.Stats.Ops) != co.Ops {
			t.Errorf("%s: firing counts differ: %d vs %d", w.Name, mo.Stats.Ops, co.Ops)
		}
	}
}

// Linked graphs stay deterministic under randomized issue order.
func TestLinkedDeterminacy(t *testing.T) {
	res, err := TranslateLinked(workloads.MustByName("proc-fortran").Parse())
	if err != nil {
		t.Fatal(err)
	}
	base, err := machine.Run(res.Graph, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		out, err := machine.Run(res.Graph, machine.Config{RandomSeed: seed, Processors: 2})
		if err != nil {
			t.Fatal(err)
		}
		if out.Store.Snapshot() != base.Store.Snapshot() {
			t.Errorf("seed %d: nondeterministic linked result", seed)
		}
	}
}

// The point of separate compilation: the body appears once, so the graph
// grows with the number of procedures, not the number of call sites.
func TestLinkedSmallerThanInlining(t *testing.T) {
	w := workloads.Workload{Name: "many-calls", Source: `
var a, b, c, d, e
proc work(x) {
  x := x + 1
  x := x * 3
  x := x - 2
  x := x * x
  x := x % 97
}
call work(a)
call work(b)
call work(c)
call work(d)
call work(e)
`}
	prog := w.Parse()
	linked, err := TranslateLinked(prog)
	if err != nil {
		t.Fatal(err)
	}
	inlined, err := Translate(cfg.MustBuild(prog), Options{Schema: Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	if linked.Graph.NumNodes() >= inlined.Graph.NumNodes() {
		t.Errorf("linked graph (%d nodes) not smaller than inlined (%d nodes)",
			linked.Graph.NumNodes(), inlined.Graph.NumNodes())
	}
	checkLinked(t, w)
}

// TestLinkedIrreducibleBodies: a callee and a main body that each jump
// into the middle of a loop get one dispatch header apiece; the selector
// is one more global of the linked program.
func TestLinkedIrreducibleBodies(t *testing.T) {
	checkLinked(t, workloads.Workload{Name: "irreducible-bodies", Source: `
var x, y, r
proc bump(a, s) {
  if a == 0 then goto p else goto q
  p:
  s := s + 1
  goto q2
  q:
  s := s + 2
  goto p2
  p2:
  if s < 10 then goto p else goto done
  q2:
  if s < 20 then goto q else goto done
  done:
  a := s
}
x := 0
call bump(x, y)
if y > 3 then goto m else goto n
m:
call bump(x, r)
x := x + 1
goto n2
n:
r := r + 5
goto m2
m2:
if r < 30 then goto m else goto end
n2:
if x < 50 then goto n else goto end
`})
}
