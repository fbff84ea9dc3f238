package ctdf

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
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

var update = flag.Bool("update", false, "rewrite testdata/reports.golden")

// TestReportsGolden pins, byte for byte, the JSON and text forms of the
// reports the library hands out: a vet report with findings, an observed
// run's report and a diff of two, the stable telemetry snapshot after one
// run, and a recovery report that resumed from a checkpoint.
func TestReportsGolden(t *testing.T) {
	var got strings.Builder
	section := func(name, body string) {
		fmt.Fprintf(&got, "== %s ==\n%s", name, body)
		if !strings.HasSuffix(body, "\n") {
			got.WriteString("\n")
		}
	}
	// Figure 9's graph with start wired straight into a merge as well: the
	// graph stays well formed, and vet reports the extra token.
	p, err := Compile(workloads.MustByName("fig9-bypass").Source)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := p.Translate(Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	broken, err := LoadDataflow(strings.NewReader(fig9.Text() + "arc d0.0 -> d15.0 dummy\n"))
	if err != nil {
		t.Fatal(err)
	}
	vr := broken.Vet()
	if vr.Clean() {
		t.Fatal("vet found nothing on a graph with an arc removed")
	}
	section("vet json", reportJSON(t, vr))
	section("vet text", vr.String())

	observe := func(d *Dataflow, label string) *Result {
		r, err := d.Run(RunConfig{MemLatency: 4, Obs: &ObsOptions{CriticalPath: true, Label: label}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	d := runningExampleSchema2(t)
	if p, err = Compile(workloads.RunningExample.Source); err != nil {
		t.Fatal(err)
	}
	seq, err := p.Translate(Options{Schema: Schema1})
	if err != nil {
		t.Fatal(err)
	}
	base, r := observe(seq, "schema1"), observe(d, "schema2")
	section("obs json", reportJSON(t, r.Obs))
	section("obs diff", CompareObs(base.Obs, r.Obs).Text())

	reg := NewTelemetry()
	if _, err := d.Run(RunConfig{MemLatency: 4, Telemetry: reg}); err != nil {
		t.Fatal(err)
	}
	section("telemetry json", reportJSON(t, reg.Snapshot().Stable()))
	section("telemetry openmetrics", string(reg.Snapshot().Stable().OpenMetrics()))

	clean, err := d.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d.Run(RunConfig{MaxCycles: clean.Cycles / 2, Recovery: &RecoveryPolicy{CheckpointEvery: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recovery.CheckpointUsed == nil {
		t.Fatalf("recovery did not resume from a checkpoint: %+v", rec.Recovery)
	}
	section("recovery json", reportJSON(t, rec.Recovery))
	section("checkpoint json", reportJSON(t, rec.Checkpoint))

	const golden = "testdata/reports.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("%s: reports diverged from the golden (run with -update to accept):\n%s", golden, got.String())
	}
}

// reportJSON renders v as indented JSON: through its JSON method when the
// type has one, with encoding/json otherwise.
func reportJSON(t *testing.T, v any) string {
	t.Helper()
	var js []byte
	var err error
	if j, ok := v.(interface{ JSON() ([]byte, error) }); ok {
		js, err = j.JSON()
	} else {
		js, err = json.MarshalIndent(v, "", "  ")
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
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
