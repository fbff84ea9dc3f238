package machine

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ctdf/internal/dfg"
	"ctdf/internal/lang"
	"ctdf/internal/machcheck"
	"ctdf/internal/translate"
)

// FuzzCheckpointResume decodes arbitrary bytes as a checkpoint and resumes
// whatever DecodeCheckpoint accepts on the fib-iterative and bubble-sort
// graphs and on unlinkedReturnGraph (the fingerprint refuses the ones it
// was not taken on). Every input must come back as the decoder's error, a
// machine check, or a completed run — never a panic. Seeds are real
// checkpoints of the two programs; the committed corpus holds the crafted
// ports and matching bits restore once let through to delivery, and the
// procedure return that once met no activation registry.
func FuzzCheckpointResume(f *testing.F) {
	graphs := []*dfg.Graph{unlinkedReturnGraph()}
	for _, w := range []string{"fib-iterative", "bubble-sort"} {
		g := buildGraph(f, w, translate.Options{Schema: translate.Schema2Opt}).Graph
		graphs = append(graphs, g)
		var cks []*Checkpoint
		if _, err := Run(g, Config{MemLatency: 4, CheckpointEvery: 3, CheckpointSink: func(ck *Checkpoint) error {
			cks = append(cks, ck)
			return nil
		}}); err != nil {
			f.Fatal(err)
		}
		for _, ck := range sampleCheckpoints(cks, 4) {
			b, err := ck.Encode()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		for _, g := range graphs {
			out, err := Run(g, Config{MemLatency: 4, MaxCycles: 20_000, Deadline: 2 * time.Second, Resume: ck})
			var ce *machcheck.Error
			switch {
			case err == nil && out == nil:
				t.Fatal("resumed run returned no outcome")
			case err != nil && !errors.As(err, &ce):
				t.Fatalf("resume failed outside the machine checks: %v", err)
			}
		}
	})
}

// unlinkedReturnGraph has a proc-return but no call records: a constant 0
// steers start's token past the return, through two params, into end.
func unlinkedReturnGraph() *dfg.Graph {
	g := dfg.NewGraph(lang.MustParse("var x\n"))
	start := g.Add(&dfg.Node{Kind: dfg.Start})
	c := g.Add(&dfg.Node{Kind: dfg.Const})
	sw := g.Add(&dfg.Node{Kind: dfg.Switch})
	ret := g.Add(&dfg.Node{Kind: dfg.ProcReturn, NIns: 1})
	p1 := g.Add(&dfg.Node{Kind: dfg.Param})
	p2 := g.Add(&dfg.Node{Kind: dfg.Param})
	end := g.Add(&dfg.Node{Kind: dfg.End, NIns: 1})
	g.Connect(start.ID, 0, c.ID, 0, true)
	g.Connect(start.ID, 0, sw.ID, 0, true)
	g.Connect(c.ID, 0, sw.ID, 1, false)
	g.Connect(sw.ID, 0, ret.ID, 0, true)
	g.Connect(sw.ID, 1, p1.ID, 0, true)
	g.Connect(p1.ID, 0, p2.ID, 0, true)
	g.Connect(p2.ID, 0, end.ID, 0, true)
	return g
}

// TestResumeReturnWithoutActivations resumes unlinkedReturnGraph from the
// committed corpus entry unlinked-return: its first checkpoint with a
// ready firing of the proc-return under a call frame, "c0", added in node
// order. The graph has no activation registry to close it against; the
// run must fail with a tag violation naming the activation, not panic.
func TestResumeReturnWithoutActivations(t *testing.T) {
	g := unlinkedReturnGraph()
	var first *Checkpoint
	if _, err := Run(g, Config{CheckpointEvery: 1, CheckpointSink: func(ck *Checkpoint) error {
		if first == nil {
			first = ck
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no checkpoint taken")
	}
	first.Ready = append(first.Ready, ckBucket{Node: 3, Firings: []ckFiring{{Tag: "c0", Vals: []int64{0}}}})
	sort.Slice(first.Ready, func(i, j int) bool { return first.Ready[i].Node < first.Ready[j].Node })
	want, err := first.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fuzz", "FuzzCheckpointResume", "unlinked-return")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
	if got, err := strconv.Unquote(body); err != nil || got != string(want) {
		t.Fatalf("%s is not the edited checkpoint (%v):\n%s", path, err, want)
	}
	ck, err := DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(g, Config{Resume: ck})
	var ce *machcheck.Error
	if !errors.As(err, &ce) || ce.Check != machcheck.TagViolation || ce.Msg != "return for unknown activation 0" || out == nil {
		t.Fatalf("resume: outcome %v, error %v; want a tag violation for unknown activation 0", out != nil, err)
	}
}
