package ctdf

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"ctdf/internal/workloads"
)

// runningExampleSchema2 translates the paper's running example under
// Schema2.
func runningExampleSchema2(t *testing.T) *Dataflow {
	t.Helper()
	p, err := Compile(workloads.RunningExample.Source)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Translate(Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEventStreamGolden pins the NDJSON event stream byte for byte: a
// clean run, and a run whose duplicated token shows up as a "fault" line
// mid-stream and ends in an "abort" line.
func TestEventStreamGolden(t *testing.T) {
	d := runningExampleSchema2(t)
	for _, c := range []struct {
		golden string
		fault  *FaultPlan
		check  error
	}{
		{"testdata/events_running_example_l4.ndjson", nil, nil},
		{"testdata/events_running_example_dup_token.ndjson", &FaultPlan{Class: FaultDupToken, Site: 36}, ErrTokenLeak},
	} {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		_, err = d.Run(RunConfig{MemLatency: 4, Fault: c.fault,
			Obs: &ObsOptions{Events: &got, CriticalPath: true, Label: "schema2"}})
		if c.check == nil && err != nil || c.check != nil && !errors.Is(err, c.check) {
			t.Fatalf("%s: run error %v, want %v", c.golden, err, c.check)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: event stream diverged from the golden:\n--- got ---\n%s", c.golden, got.Bytes())
		}
	}
}

// failOnce fails the first write that contains mark, and no other.
type failOnce struct {
	mark   []byte
	failed bool
}

var errWriteFailed = errors.New("write failed")

func (w *failOnce) Write(p []byte) (int, error) {
	if !w.failed && bytes.Contains(p, w.mark) {
		w.failed = true
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestObservedWriteErrorsSurface checks that Run returns the first write
// error of the event stream and of the trace instead of dropping the rest
// of the output silently.
func TestObservedWriteErrorsSurface(t *testing.T) {
	d := runningExampleSchema2(t)
	events := &failOnce{mark: []byte(`"type":"fire"`)}
	if _, err := d.Run(RunConfig{MemLatency: 4, Obs: &ObsOptions{Events: events}}); !errors.Is(err, errWriteFailed) {
		t.Errorf("event stream write failure: Run returned %v", err)
	}
	trace := &failOnce{mark: []byte("cycle ")}
	if _, err := d.Run(RunConfig{MemLatency: 4, Trace: trace}); !errors.Is(err, errWriteFailed) {
		t.Errorf("trace write failure: Run returned %v", err)
	}
}
