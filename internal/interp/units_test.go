package interp_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/machcheck"
	"ctdf/internal/token"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// wantCheck fails unless err is the unit's machine check with that text.
func wantCheck(t *testing.T, what string, err error, check machcheck.Check, msg string) {
	t.Helper()
	var ce *machcheck.Error
	if !errors.As(err, &ce) || ce.Check != check || ce.Engine != "test" || ce.Msg != msg {
		t.Errorf("%s: got %v, want test: %s: %s", what, err, string(check), msg)
	}
}

func linked(t *testing.T, w workloads.Workload) *dfg.Graph {
	t.Helper()
	res, err := translate.TranslateLinked(w.Parse())
	if err != nil {
		t.Fatalf("%s: link: %v", w.Name, err)
	}
	return res.Graph
}

// TestActivationsCallLookup holds the registry's Apply → CallInfo look-up
// to the graph on every procedure workload and a sweep of generated ones:
// each Apply node finds its own call record, no other node finds one, and
// a record naming a node out of range or not an Apply is dropped.
func TestActivationsCallLookup(t *testing.T) {
	var ws []workloads.Workload
	for _, w := range workloads.All() {
		if len(w.Parse().Procs()) > 0 {
			ws = append(ws, w)
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		ws = append(ws, workloads.RandomProcs(seed, 3))
	}
	calls := 0
	for _, w := range ws {
		g := linked(t, w)
		a := interp.NewActivations[int](g, "test")
		if !a.Linked() {
			t.Fatalf("%s: linked graph without call records", w.Name)
		}
		for id, n := range g.Nodes {
			if c := a.Call(id); (c != nil) != (n.Kind == dfg.Apply) || c != nil && int(c.Apply) != id {
				t.Fatalf("%s: %s looks up %+v", w.Name, g.Label(n), c)
			}
		}
		for i := range g.Calls {
			if a.Call(int(g.Calls[i].Apply)) != &g.Calls[i] {
				t.Fatalf("%s: call record %d does not round-trip", w.Name, i)
			}
			calls++
		}
	}
	if calls < 30 {
		t.Fatalf("only %d call records checked", calls)
	}

	g := linked(t, workloads.MustByName("proc-fortran"))
	apply := int(g.Calls[0].Apply)
	g.Calls[0].Apply = int32(len(g.Nodes))
	g.Calls[1].Apply = g.StartID
	a := interp.NewActivations[int](g, "test")
	for _, id := range []int{apply, len(g.Nodes), int(g.StartID)} {
		if a.Call(id) != nil {
			t.Errorf("node %d kept a call record", id)
		}
	}
	_, _, err := a.Open(apply, 0, token.Root)
	wantCheck(t, "open", err, machcheck.OperatorFault, fmt.Sprintf("apply d%d has no call linkage", apply))
}

// TestActivationsLifecycle opens, resolves, saves, restores and closes
// activations of proc-fortran's call sites, nested and not, and checks
// every error the registry raises.
func TestActivationsLifecycle(t *testing.T) {
	g := linked(t, workloads.MustByName("proc-fortran"))
	a := interp.NewActivations[string](g, "test")
	outer, inner := g.Calls[0], g.Calls[1]
	t0, info, err := a.Open(int(outer.Apply), "root", token.Root)
	if err != nil || info != &g.Calls[0] || t0.Activation() != 0 {
		t.Fatalf("open: tag %q, %v, %v", t0.Key(), info, err)
	}
	for formal, actual := range outer.Bindings {
		if got := a.Resolve(formal, t0); got != actual {
			t.Errorf("resolve %s in activation 0 = %s, want %s", formal, got, actual)
		}
	}
	if got := a.Resolve("c", t0); got != "c" {
		t.Errorf("a global resolved to %s", got)
	}
	// A call from inside the first activation binds its formals through it.
	t1, _, err := a.Open(int(inner.Apply), "callee", t0)
	if err != nil {
		t.Fatal(err)
	}
	for formal, actual := range inner.Bindings {
		if got, want := a.Resolve(formal, t1), a.Resolve(actual, t0); got != want {
			t.Errorf("resolve %s in activation 1 = %s, want %s", formal, got, want)
		}
	}
	wantCheck(t, "leak", a.Leak(), machcheck.TokenLeak, "2 procedure activations never returned")

	type saved struct {
		id       int
		caller   string
		resolved map[string]string
	}
	var got []saved
	next := a.Save(func(id int, _ *dfg.CallInfo, caller string, resolved map[string]string) {
		got = append(got, saved{id, caller, resolved})
	})
	if next != 2 || len(got) != 2 || got[0].id != 0 || got[1].caller != "callee" {
		t.Fatalf("save: next %d, %+v", next, got)
	}
	b := interp.NewActivations[string](g, "test")
	b.Restore(next)
	for _, s := range got {
		b.Reopen(s.id, b.Call([]int{int(outer.Apply), int(inner.Apply)}[s.id]), s.caller, s.resolved)
	}
	x := a.Resolve("x", t0)
	for _, r := range []*interp.Activations[string]{&a, &b} {
		info, caller, err := r.Close(int(inner.Return), t1)
		if err != nil || info.Apply != inner.Apply || caller != "callee" {
			t.Errorf("close inner: %v, %q, %v", info, caller, err)
		}
		if r.Resolve("x", t0) != x || x == "x" {
			t.Error("restored bindings differ")
		}
		if _, caller, err := r.Close(int(outer.Return), t0); err != nil || caller != "root" {
			t.Errorf("close outer: %q, %v", caller, err)
		}
		if err := r.Leak(); err != nil {
			t.Error(err)
		}
		_, _, err = r.Close(int(outer.Return), t0)
		wantCheck(t, "close twice", err, machcheck.TagViolation, "return for unknown activation 0")
		_, _, err = r.Close(int(outer.Return), token.Root)
		wantCheck(t, "close at root", err, machcheck.TagViolation,
			fmt.Sprintf("%s: token: procedure return outside any activation (unbalanced tags)", g.Label(g.Nodes[outer.Return])))
	}
	if t2, _, _ := b.Open(int(outer.Apply), "root", token.Root); t2.Activation() != 2 {
		t.Errorf("restored registry opened activation %d, want 2", t2.Activation())
	}

	// A graph without call records: names are themselves, and a return
	// meets no activation.
	plain := interp.NewActivations[string](&dfg.Graph{Nodes: g.Nodes}, "test")
	if plain.Linked() || plain.Resolve("x", t0) != "x" || plain.Leak() != nil {
		t.Error("a registry without call records is not empty")
	}
	_, _, err = plain.Close(int(outer.Return), t0)
	wantCheck(t, "close unlinked", err, machcheck.TagViolation, "return for unknown activation 0")
}

// TestIStructsCells drives the write-once cells of producer-consumer's
// array: deferral in arrival order, release by the write, the stored
// value, every error, and a save/restore round trip.
func TestIStructsCells(t *testing.T) {
	w := workloads.MustByName("producer-consumer")
	res, err := translate.Translate(cfg.MustBuild(w.Parse()), translate.Options{Schema: translate.Schema2Opt, UseIStructures: true})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	st := interp.NewStoreWithBinding(g.Prog, nil)
	u := interp.NewIStructs[string](g, st, "test")
	for _, r := range []string{"r1", "r2"} {
		if _, full, err := u.Read("a", 3, r); full || err != nil {
			t.Fatalf("read of an empty cell: full %v, %v", full, err)
		}
	}
	wantCheck(t, "pending", u.Pending(), machcheck.Deadlock, "I-structure reads of never-written cells: [a[3] (2 readers)]")

	var deferred []string
	full := u.Save(func(name string, idx int64, r string) { deferred = append(deferred, fmt.Sprint(name, idx, r)) })
	if len(full["a"]) != 16 || !reflect.DeepEqual(deferred, []string{"a3r1", "a3r2"}) {
		t.Fatalf("save: %v, %v", full, deferred)
	}
	v := interp.NewIStructs[string](g, interp.NewStoreWithBinding(g.Prog, nil), "test")
	if !v.SetFull("a", full["a"]) || v.SetFull("a", nil) || v.SetFull("b", nil) || v.Defer("b", 0, "r") {
		t.Error("restore accepted a mismatched array")
	}
	v.Defer("a", 3, "r1")
	v.Defer("a", 3, "r2")

	for _, c := range []*interp.IStructs[string]{&u, &v} {
		if ws, err := c.Write("a", 3, 42); err != nil || !reflect.DeepEqual(ws, []string{"r1", "r2"}) {
			t.Errorf("write released %v, %v", ws, err)
		}
		if got, full, err := c.Read("a", 3, "r3"); !full || got != 42 || err != nil {
			t.Errorf("read of a full cell: %d, %v, %v", got, full, err)
		}
		if err := c.Pending(); err != nil {
			t.Error(err)
		}
		_, err := c.Write("a", 3, 7)
		wantCheck(t, "second write", err, machcheck.OperatorFault, "I-structure write-once violation: a[3] written twice")
		_, _, err = c.Read("a", 16, "r")
		wantCheck(t, "read past the end", err, machcheck.OperatorFault, "I-structure index 16 out of range for a[16]")
		_, err = c.Write("a", -1, 0)
		wantCheck(t, "write before the start", err, machcheck.OperatorFault, "I-structure index -1 out of range for a[16]")
	}
	if st.Array("a")[3] != 42 {
		t.Error("the write did not reach the store")
	}
}
