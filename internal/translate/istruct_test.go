package translate

import (
	"errors"
	"strings"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/chanexec"
	"ctdf/internal/machcheck"
	"ctdf/internal/machine"
	"ctdf/internal/workloads"
)

// producerConsumer writes an array in one loop and folds it in a second:
// the §6.3 I-structure case, where the consumer can overlap the producer.
var producerConsumer = workloads.MustByName("producer-consumer")

func TestFindIStructures(t *testing.T) {
	g := cfg.MustBuild(producerConsumer.Parse())
	tg, loops, err := cfg.InsertLoopControl(g)
	if err != nil {
		t.Fatal(err)
	}
	got := FindIStructures(tg, loops)
	if len(got) != 1 || got[0] != "a" {
		t.Fatalf("FindIStructures = %v, want [a]", got)
	}
}

func TestFindIStructuresRejects(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"read inside storing loop",
			"var i, s\narray a[12]\nstart: i := i + 1\na[i] := 1\ns := s + a[i]\nif i < 10 then goto start else goto end\n"},
		{"two store statements",
			"var i\narray a[12]\na[0] := 5\nstart: i := i + 1\na[i] := 1\nif i < 10 then goto start else goto end\n"},
		{"non-unit stride",
			"var i, j, s\narray a[20]\nwhile i < 16 {\n  a[i] := 1\n  i := i + 2\n}\nwhile j < 16 {\n  s := s + a[j]\n  j := j + 1\n}\n"},
		{"aliased array",
			"var i, j, s\narray a[8]\narray b[8]\nalias a ~ b\nwhile i < 8 {\n  a[i] := 1\n  i := i + 1\n}\nwhile j < 8 {\n  s := s + b[j]\n  j := j + 1\n}\n"},
		{"read not dominated by exit",
			"var i, s, w\narray a[12]\nif w == 0 { s := a[3] }\nstart: i := i + 1\na[i] := 1\nif i < 10 then goto start else goto end\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := workloads.Workload{Name: c.name, Source: c.src}
			g := cfg.MustBuild(w.Parse())
			tg, loops, err := cfg.InsertLoopControl(g)
			if err != nil {
				t.Fatal(err)
			}
			if got := FindIStructures(tg, loops); len(got) != 0 {
				t.Errorf("wrongly accepted: %v", got)
			}
			// Correctness with the option on must hold regardless.
			checkEquivalence(t, w, Options{Schema: Schema2Opt, UseIStructures: true}, nil)
		})
	}
}

func TestIStructureCorrect(t *testing.T) {
	for _, w := range append(workloads.All(), producerConsumer) {
		for _, schema := range []Schema{Schema2, Schema2Opt} {
			t.Run(w.Name+"/"+schema.String(), func(t *testing.T) {
				checkEquivalence(t, w, Options{Schema: schema, UseIStructures: true, EliminateMemory: true}, nil)
			})
		}
	}
}

func TestIStructureGraphHasNoArrayTokens(t *testing.T) {
	g := cfg.MustBuild(producerConsumer.Parse())
	res, err := Translate(g, Options{Schema: Schema2Opt, UseIStructures: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IStructures) != 1 || res.IStructures[0] != "a" {
		t.Fatalf("IStructures = %v", res.IStructures)
	}
	for _, tok := range res.Universe {
		if tok == "a" {
			t.Error("I-structured array must not have an access token")
		}
	}
}

func TestIStructureOverlapsProducerConsumer(t *testing.T) {
	g := cfg.MustBuild(producerConsumer.Parse())
	base, err := Translate(g, Options{Schema: Schema2Opt, EliminateMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	ist, err := Translate(g, Options{Schema: Schema2Opt, EliminateMemory: true, UseIStructures: true})
	if err != nil {
		t.Fatal(err)
	}
	lat := 10
	bo, err := machine.Run(base.Graph, machine.Config{MemLatency: lat})
	if err != nil {
		t.Fatal(err)
	}
	io, err := machine.Run(ist.Graph, machine.Config{MemLatency: lat})
	if err != nil {
		t.Fatal(err)
	}
	if io.Stats.Cycles >= bo.Stats.Cycles {
		t.Errorf("I-structures did not overlap producer and consumer: %d vs %d cycles",
			io.Stats.Cycles, bo.Stats.Cycles)
	}
	if bo.Store.Snapshot() != io.Store.Snapshot() {
		t.Error("I-structures changed the result")
	}
}

func TestIStructureNeverWrittenCell(t *testing.T) {
	// The loop writes a[1..10]; the read of a[12] defers forever.
	w := workloads.Workload{Name: "hole", Source: `
var i, s
array a[16]
start: i := i + 1
a[i] := i
if i < 10 then goto start else goto done
done:
s := a[12]
`}
	g := cfg.MustBuild(w.Parse())
	res, err := Translate(g, Options{Schema: Schema2Opt, UseIStructures: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IStructures) == 0 {
		t.Skip("detection did not accept the array; nothing to test")
	}
	// Both engines name the cell, in the same words.
	var mce, cce *machcheck.Error
	if _, err := machine.Run(res.Graph, machine.Config{}); !errors.As(err, &mce) || !strings.Contains(mce.Msg, "never-written cells: [a[12] (1 readers)]") {
		t.Fatalf("machine err = %v, want never-written report", err)
	}
	if _, err := chanexec.Run(res.Graph, chanexec.Config{}); !errors.As(err, &cce) || cce.Check != mce.Check || cce.Msg != mce.Msg {
		t.Errorf("chanexec err = %v, want %s: %s", err, string(mce.Check), mce.Msg)
	}
}

func TestIStructureEnginesAgree(t *testing.T) {
	g := cfg.MustBuild(producerConsumer.Parse())
	res, err := Translate(g, Options{Schema: Schema2Opt, UseIStructures: true, EliminateMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	mo, err := machine.Run(res.Graph, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	co, err := chanexec.Run(res.Graph, chanexec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if mo.Store.Snapshot() != co.Store.Snapshot() {
		t.Error("engines disagree under I-structures")
	}
}

func TestIStructureRejectedForSchema1And3(t *testing.T) {
	g := cfg.MustBuild(producerConsumer.Parse())
	if _, err := Translate(g, Options{Schema: Schema1, UseIStructures: true}); err == nil {
		t.Error("Schema 1 + I-structures must be rejected")
	}
	if _, err := Translate(g, Options{Schema: Schema3, UseIStructures: true}); err == nil {
		t.Error("Schema 3 + I-structures must be rejected")
	}
}
