package machine

import (
	"errors"
	"testing"
	"time"

	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/translate"
)

// FuzzCheckpointResume decodes arbitrary bytes as a checkpoint and resumes
// whatever DecodeCheckpoint accepts on the fib-iterative and bubble-sort
// graphs (the fingerprint refuses the one it was not taken on). Every
// input must come back as the decoder's error, a machine check, or a
// completed run — never a panic. Seeds are real checkpoints of both
// programs; the committed corpus holds the crafted ports and matching
// bits restore once let through to delivery.
func FuzzCheckpointResume(f *testing.F) {
	var graphs []*dfg.Graph
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
