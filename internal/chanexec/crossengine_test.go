package chanexec_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/chanexec"
	"ctdf/internal/dfg"
	"ctdf/internal/lang"
	"ctdf/internal/machcheck"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// TestCrossEngineFiringCountsAgree asserts dataflow determinacy at the
// operator level: the cycle-driven machine — under every scheduling
// regime it offers (unlimited processors, a tight processor bound and a
// seeded-random issue order) — and the
// goroutine-per-node channel engine must fire every node exactly the
// same number of times on every workload. Scheduling freedom may reorder
// firings but never add or remove one, and every engine must converge on
// the same final store.
func TestCrossEngineFiringCountsAgree(t *testing.T) {
	schemas := []translate.Options{
		{Schema: translate.Schema2},
		{Schema: translate.Schema2Opt},
	}
	variants := []struct {
		name string
		cfg  machine.Config
	}{
		{"p0", machine.Config{}},
		{"p1", machine.Config{Processors: 1}},
		{"p3", machine.Config{Processors: 3}},
		{"p0-rand", machine.Config{RandomSeed: 42}},
	}
	for _, w := range workloads.All() {
		for _, opt := range schemas {
			g := cfg.MustBuild(w.Parse())
			res, err := translate.Translate(g, opt)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}

			counters := obs.NewNodeCounters(res.Graph.NumNodes())
			cout, err := chanexec.Run(res.Graph, chanexec.Config{Counters: counters})
			if err != nil {
				t.Fatalf("%s/%v chanexec: %v", w.Name, opt.Schema, err)
			}
			cf := counters.Firings()

			for _, v := range variants {
				tag := fmt.Sprintf("%s/%v/%s", w.Name, opt.Schema, v.name)
				col := obs.NewCollector(res.Graph, obs.Options{})
				mc := v.cfg
				mc.Collector = col
				mout, err := machine.Run(res.Graph, mc)
				if err != nil {
					t.Fatalf("%s machine: %v", tag, err)
				}
				mrep := col.Report(mout.Stats.Cycles, nil)

				if mout.Stats.Ops != int(cout.Ops) {
					t.Errorf("%s: total ops differ: machine %d, chanexec %d",
						tag, mout.Stats.Ops, cout.Ops)
				}
				mf := mrep.NodeFirings()
				if len(mf) != len(cf) {
					t.Fatalf("%s: counter lengths differ: %d vs %d", tag, len(mf), len(cf))
				}
				for id := range mf {
					if mf[id] != cf[id] {
						t.Errorf("%s: node %s fired %d times on machine, %d on chanexec",
							tag, res.Graph.Label(res.Graph.Nodes[id]), mf[id], cf[id])
					}
				}
				if mout.Store.Snapshot() != cout.Store.Snapshot() {
					t.Errorf("%s: final stores differ", tag)
				}
			}
		}
	}
}

// TestOperatorFaultTextAgrees: an arithmetic fault is the kernel's error
// wrapped once per engine as "<node>: <cause>", so the sequential
// machine, the sharded machine and the channel engine word it
// identically — unfused, inside a fused tree, and for an operator no
// evaluator defines.
func TestOperatorFaultTextAgrees(t *testing.T) {
	build := func(src string, optimize bool) *dfg.Graph {
		res, err := translate.Translate(cfg.MustBuild(lang.MustParse(src)),
			translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true})
		if err != nil {
			t.Fatal(err)
		}
		if optimize {
			if _, err := opt.Run(res); err != nil {
				t.Fatal(err)
			}
		}
		return res.Graph
	}
	badUnary := build("var x, y\nx := -y\n", false)
	for _, n := range badUnary.Nodes {
		if n.Kind == dfg.UnOp {
			n.Op = lang.OpMul
		}
	}
	fused := build("var x, y\nx := (y + 1) / (y * 2)\n", true)
	if fused.CountKind(dfg.Fused) == 0 {
		t.Fatal("optimizer fused nothing; the fused case lost its subject")
	}
	for _, c := range []struct {
		name  string
		g     *dfg.Graph
		cause string
	}{
		{"div0", build("var x, y\nx := 1 / y\n", false), ": division by zero"},
		{"div0-fused", fused, ": fused step "},
		{"bad-unary", badUnary, ": bad unary op *"},
	} {
		msg := func(engine string, err error) string {
			var ce *machcheck.Error
			if !errors.As(err, &ce) || ce.Check != machcheck.OperatorFault {
				t.Fatalf("%s/%s: want an operator fault, got %v", c.name, engine, err)
			}
			return ce.Msg
		}
		_, err := machine.Run(c.g, machine.Config{})
		want := msg("machine", err)
		if !strings.HasPrefix(want, "d") || !strings.Contains(want, c.cause) {
			t.Errorf("%s: machine fault %q is not \"<node>%s…\"", c.name, want, c.cause)
		}
		_, err = machine.Run(c.g, machine.Config{Workers: 2})
		if got := msg("sharded", err); got != want {
			t.Errorf("%s: sharded machine says %q, sequential %q", c.name, got, want)
		}
		_, err = chanexec.Run(c.g, chanexec.Config{})
		if got := msg("channels", err); got != want {
			t.Errorf("%s: channels says %q, machine %q", c.name, got, want)
		}
	}
}

// TestStatefulFaultTextAgrees: the stateful operators' faults are the
// interp units' own (IStructs, Activations), so the sequential machine,
// the sharded machine and the channel engine raise the same check with
// the same text — an I-structure index past the array, a second write to
// one cell, a read of a cell no one writes, and an apply with no call
// record.
func TestStatefulFaultTextAgrees(t *testing.T) {
	istruct := func(src string) *dfg.Graph {
		res, err := translate.Translate(cfg.MustBuild(lang.MustParse(src)),
			translate.Options{Schema: translate.Schema2Opt, UseIStructures: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IStructures) == 0 {
			t.Fatalf("no I-structure in %q", src)
		}
		return res.Graph
	}
	// Twice: a[i] := 1 with its index and value arcs swapped, so every
	// iteration stores into a[1].
	twice := istruct("var i, s\narray a[8]\nwhile i < 8 {\n  a[i] := 1\n  i := i + 1\n}\ns := a[1]\n")
	ed := dfg.NewEditor(twice)
	for _, n := range twice.Nodes {
		if n.Kind == dfg.IStore {
			ins := [2]dfg.Arc{}
			ids := [2]int32{}
			for ai, a := range twice.Arcs {
				if a.To == n.ID {
					ins[a.ToPort], ids[a.ToPort] = a, int32(ai)
				}
			}
			ed.MoveSource(ids[0], ins[1].From, ins[1].FromPort)
			ed.MoveSource(ids[1], ins[0].From, ins[0].FromPort)
		}
	}
	twice, err := ed.Graph()
	if err != nil {
		t.Fatal(err)
	}
	unlinked, err := translate.TranslateLinked(workloads.MustByName("proc-fortran").Parse())
	if err != nil {
		t.Fatal(err)
	}
	apply := unlinked.Graph.Calls[0].Apply
	unlinked.Graph.Calls[0].Apply = int32(len(unlinked.Graph.Nodes))
	for _, c := range []struct {
		name  string
		g     *dfg.Graph
		check machcheck.Check
		msg   string
	}{
		{"index-out-of-range",
			istruct("var i, s\narray a[4]\nwhile i < 6 {\n  a[i] := i\n  i := i + 1\n}\ns := a[2]\n"),
			machcheck.OperatorFault, "I-structure index 4 out of range for a[4]"},
		{"write-once", twice, machcheck.OperatorFault, "I-structure write-once violation: a[1] written twice"},
		{"never-written",
			istruct("var i, s\narray a[16]\nstart: i := i + 1\na[i] := i\nif i < 10 then goto start else goto done\ndone:\ns := a[12]\n"),
			machcheck.Deadlock, "I-structure reads of never-written cells: [a[12] (1 readers)]"},
		{"no-call-record", unlinked.Graph, machcheck.OperatorFault, fmt.Sprintf("apply d%d has no call linkage", apply)},
	} {
		for engine, run := range map[string]func() error{
			"machine":  func() error { _, err := machine.Run(c.g, machine.Config{}); return err },
			"sharded":  func() error { _, err := machine.Run(c.g, machine.Config{Workers: 2}); return err },
			"channels": func() error { _, err := chanexec.Run(c.g, chanexec.Config{}); return err },
		} {
			var ce *machcheck.Error
			if err := run(); !errors.As(err, &ce) || ce.Check != c.check || ce.Msg != c.msg {
				t.Errorf("%s/%s: got %v, want %s: %s", c.name, engine, err, string(c.check), c.msg)
			}
		}
	}
}
