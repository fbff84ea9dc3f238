package ctdf

import (
	"errors"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// cleanRun executes d without faults or recovery and returns the result.
func cleanRun(t *testing.T, d *Dataflow, cfg RunConfig) *Result {
	t.Helper()
	r, err := d.Run(cfg)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	return r
}

// faultSite runs a counting pass and picks a deterministic site.
func faultSite(t *testing.T, d *Dataflow, engine Engine, class FaultClass, seed int64) int64 {
	t.Helper()
	r, err := d.Run(RunConfig{Engine: engine, Fault: &FaultPlan{Class: class, Site: 0}})
	if err != nil {
		t.Fatalf("counting pass: %v", err)
	}
	if r.Fault.Sites == 0 {
		t.Fatalf("no eligible %s sites", class)
	}
	return PickFaultSite(seed, r.Fault.Sites)
}

func TestRecoverMachineDropToken(t *testing.T) {
	d := translateExample(t)
	clean := cleanRun(t, d, RunConfig{})
	site := faultSite(t, d, EngineMachine, FaultDropToken, 42)

	r, err := d.Run(RunConfig{
		Fault:    &FaultPlan{Class: FaultDropToken, Site: site},
		Recovery: &RecoveryPolicy{CheckpointEvery: 2},
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if r.Recovery == nil || !r.Recovery.Recovered || r.Recovery.Attempts < 2 {
		t.Fatalf("recovery report = %+v, want a recovered retry", r.Recovery)
	}
	if r.Fault == nil || !r.Fault.Injected {
		t.Errorf("fault report lost across retries: %+v", r.Fault)
	}
	if r.Snapshot != clean.Snapshot {
		t.Errorf("recovered snapshot diverged:\n%s\nwant:\n%s", r.Snapshot, clean.Snapshot)
	}
	if r.Cycles != clean.Cycles || r.Ops != clean.Ops {
		t.Errorf("recovered timing diverged: cycles %d ops %d, want %d/%d",
			r.Cycles, r.Ops, clean.Cycles, clean.Ops)
	}
}

func TestRecoverChannelsWedge(t *testing.T) {
	d := translateExample(t)
	clean := cleanRun(t, d, RunConfig{Engine: EngineChannels})
	site := faultSite(t, d, EngineChannels, FaultWedgeMailbox, 7)

	// The wedge watchdog races injection-site delivery under load: if the
	// deadline fires before the wedged site is reached, the fault never
	// injects and the run completes cleanly on its own. Retry with a
	// doubled deadline until the wedge actually fires (see ROBUSTNESS.md).
	deadline := 150 * time.Millisecond
	for try := 0; ; try++ {
		r, err := d.Run(RunConfig{
			Engine:   EngineChannels,
			Deadline: deadline,
			Fault:    &FaultPlan{Class: FaultWedgeMailbox, Site: site},
			Recovery: &RecoveryPolicy{},
		})
		if err != nil {
			t.Fatalf("supervised run failed: %v", err)
		}
		if r.Snapshot != clean.Snapshot {
			t.Fatalf("recovered snapshot diverged:\n%s\nwant:\n%s", r.Snapshot, clean.Snapshot)
		}
		if r.Fault != nil && r.Fault.Injected {
			if r.Recovery == nil || !r.Recovery.Recovered {
				t.Fatalf("wedge fired but run not recovered: %+v", r.Recovery)
			}
			return
		}
		if try >= 4 {
			t.Skip("wedge never fired before the watchdog in 5 tries")
		}
		deadline *= 2
	}
}

func TestRecoverCyclesExceededRaisesBudget(t *testing.T) {
	d := translateExample(t)
	clean := cleanRun(t, d, RunConfig{})
	if clean.Cycles < 8 {
		t.Fatalf("example too short (%d cycles) for a budget test", clean.Cycles)
	}

	r, err := d.Run(RunConfig{
		MaxCycles: clean.Cycles / 2,
		Recovery:  &RecoveryPolicy{CheckpointEvery: 4},
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if r.Recovery == nil || !r.Recovery.Recovered {
		t.Fatalf("recovery report = %+v, want recovered", r.Recovery)
	}
	if len(r.Recovery.Checks) == 0 || r.Recovery.Checks[0] != "cycles-exceeded" {
		t.Errorf("checks = %v, want cycles-exceeded first", r.Recovery.Checks)
	}
	if r.Recovery.CheckpointUsed == nil {
		t.Errorf("budget retry did not resume from a checkpoint: %+v", r.Recovery)
	}
	if r.Snapshot != clean.Snapshot || r.Cycles != clean.Cycles || r.Ops != clean.Ops {
		t.Errorf("recovered run diverged: cycles %d ops %d snapshot %q", r.Cycles, r.Ops, r.Snapshot)
	}
}

func TestRecoverPermanentCheckNotRetried(t *testing.T) {
	p, err := Compile("var x, y\nx := 1\ny := x / (x - 1)\n")
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Translate(Options{Schema: Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(RunConfig{Recovery: &RecoveryPolicy{CheckpointEvery: 1}})
	if !errors.Is(err, ErrOperatorFault) {
		t.Fatalf("err = %v, want ErrOperatorFault", err)
	}
	if r == nil || r.Recovery == nil {
		t.Fatal("aborted supervised run lost its partial result or report")
	}
	if r.Recovery.Attempts != 1 {
		t.Errorf("permanent check retried: %+v", r.Recovery)
	}
	if len(r.Recovery.Checks) != 1 || r.Recovery.Checks[0] != "operator-fault" {
		t.Errorf("checks = %v", r.Recovery.Checks)
	}
}

// TestRecoverTeardownLeaksNothing is the supervisor-teardown regression
// test: a full fault → abort → restore → success cycle (with on-disk
// checkpoints) must leave no goroutines and no checkpoint files behind.
func TestRecoverTeardownLeaksNothing(t *testing.T) {
	d := translateExample(t)
	clean := cleanRun(t, d, RunConfig{})
	site := faultSite(t, d, EngineMachine, FaultDropToken, 99)
	dir := t.TempDir()
	before := runtime.NumGoroutine()

	r, err := d.Run(RunConfig{
		Fault:    &FaultPlan{Class: FaultDropToken, Site: site},
		Recovery: &RecoveryPolicy{CheckpointEvery: 2, Dir: dir},
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if !r.Recovery.Recovered || r.Snapshot != clean.Snapshot {
		t.Fatalf("not recovered byte-identically: %+v", r.Recovery)
	}
	if r.Recovery.CheckpointsTaken == 0 {
		t.Errorf("on-disk supervisor took no checkpoints")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("checkpoint files left behind: %d entries", len(entries))
	}
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestCheckClassificationCoversEveryCheck(t *testing.T) {
	table := CheckClassification()
	for _, name := range []string{
		"deadlock", "token-leak", "tag-violation", "cycles-exceeded",
		"deadline", "operator-fault", "determinacy", "invalid-config",
	} {
		kind, ok := table[name]
		if !ok {
			t.Errorf("check %q unclassified", name)
			continue
		}
		if kind != "transient" && kind != "permanent" {
			t.Errorf("check %q classified %q", name, kind)
		}
		if got := TransientCheck(name); got != (kind == "transient") {
			t.Errorf("TransientCheck(%q) = %v, table says %q", name, got, kind)
		}
	}
	if len(table) != 8 {
		t.Errorf("classification table has %d entries, want 8", len(table))
	}
}

// TestRecoveryDocClassificationInSync is the doc-sync test: the
// transient-vs-permanent table in ROBUSTNESS.md must match
// CheckClassification exactly.
func TestRecoveryDocClassificationInSync(t *testing.T) {
	data, err := os.ReadFile("ROBUSTNESS.md")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile("(?m)^\\| `([a-z-]+)` \\| (transient|permanent) \\|$")
	documented := map[string]string{}
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = m[2]
	}
	table := CheckClassification()
	for name, kind := range table {
		if got := documented[name]; got != kind {
			t.Errorf("ROBUSTNESS.md documents %q as %q, code says %q", name, got, kind)
		}
	}
	for name := range documented {
		if _, ok := table[name]; !ok {
			t.Errorf("ROBUSTNESS.md documents unknown check %q", name)
		}
	}
	if len(documented) != len(table) {
		t.Errorf("ROBUSTNESS.md documents %d checks, code classifies %d", len(documented), len(table))
	}
}
