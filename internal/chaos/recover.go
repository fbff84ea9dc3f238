package chaos

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"ctdf"
	"ctdf/internal/workloads"
)

// The recovery sweep (`ctdf chaos -recover`) closes the fault-tolerance
// loop the detection matrix opens: for every transient fault class it
// proves the fault is not just detected but *survived* — a supervised run
// (RunConfig.Recovery) must complete with output byte-identical to the
// fault-free golden. The machine engine additionally must match the
// golden's cycle count: checkpoint resume replays the exact execution,
// so even simulated time is preserved.
//
// The gate covers the classes whose faults are guaranteed to surface as
// machine-check aborts (drop-token, dup-token, lose-mem-response,
// wedge-mailbox), the benign delay-mem-response negative control (which
// must be tolerated in one attempt), and a synthetic "deadline" row that
// aborts the first attempts with an expiring wall clock and relies on
// the supervisor's deadline growth. Corrupt-tag and misfire-value are
// excluded by design: they corrupt values/tags in ways only the oracle
// comparison can always see, so the supervisor may never get an abort to
// retry (when they do abort, the injected-fault override still retries
// them — see ROBUSTNESS.md).

// RecoverCell is one recovery-matrix entry.
type RecoverCell struct {
	Engine   string `json:"engine"`
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	// Class is the injected fault class, or "deadline" for the synthetic
	// expiring-wall-clock row (no injector).
	Class   string `json:"class"`
	Workers int    `json:"workers"`
	Sites   int64  `json:"sites,omitempty"`
	Site    int64  `json:"site,omitempty"`
	// Attempts/Checks/checkpoint counters mirror the RecoveryReport of
	// the supervised run.
	Attempts         int                 `json:"attempts"`
	Checks           []string            `json:"checks,omitempty"`
	CheckpointsTaken int                 `json:"checkpoints_taken,omitempty"`
	CheckpointUsed   *ctdf.CheckpointRef `json:"checkpoint_used,omitempty"`
	CyclesReplayed   int                 `json:"cycles_replayed,omitempty"`
	// Outcome: "recovered" (aborted, retried, byte-identical),
	// "tolerated" (benign class, one attempt, byte-identical),
	// "survived" (fault fired but the first attempt already completed
	// byte-identically), "no-sites" (skipped), "diverged", "unrecovered",
	// or "not-injected".
	Outcome string `json:"outcome"`
	OK      bool   `json:"ok"`
	Err     string `json:"err,omitempty"`
}

// RecoverMatrix is the full recovery matrix and its summary counts.
type RecoverMatrix struct {
	Seed  int64         `json:"seed"`
	Cells []RecoverCell `json:"cells"`
	// Total counts cells with eligible sites; OK counts those that ended
	// in an acceptable outcome. The recovery gate demands OK == Total.
	Total int `json:"total"`
	OK    int `json:"ok"`
	// Recovered counts cells that actually exercised a retry (aborted at
	// least once, then completed).
	Recovered int `json:"recovered"`
	Skipped   int `json:"skipped"`
	// LeakedGoroutines must be 0: every aborted and every retried run
	// tears its workers down.
	LeakedGoroutines int `json:"leaked_goroutines"`
}

// Summary renders per-class recovery counts, in stable order.
func (m *RecoverMatrix) Summary() string {
	type agg struct{ ok, tot int }
	per := map[string]*agg{}
	for _, c := range m.Cells {
		if c.Outcome == "no-sites" {
			continue
		}
		a := per[c.Class]
		if a == nil {
			a = &agg{}
			per[c.Class] = a
		}
		a.tot++
		if c.OK {
			a.ok++
		}
	}
	classes := make([]string, 0, len(per))
	for c := range per {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	out := ""
	for _, c := range classes {
		a := per[c]
		out += fmt.Sprintf("  %-20s %d/%d recovered\n", c, a.ok, a.tot)
	}
	out += fmt.Sprintf("total: %d/%d cells ok (%d via retry), %d skipped, %d leaked goroutines\n",
		m.OK, m.Total, m.Recovered, m.Skipped, m.LeakedGoroutines)
	return out
}

// recoverWorkers are the worker counts every cell runs at. The channel
// engine ignores Workers; its rows prove recovery is insensitive to the
// knob. Machine fault rows force workers=1 on the injected attempt (the
// injector requires the sequential engine) and then resume on the full
// worker count — unseeded checkpoints are worker-portable.
var recoverWorkers = []int{1, 4}

// recoverClasses filters the fault classes the recovery gate covers for
// an engine (see the package comment for why corrupt-tag and
// misfire-value are out of scope).
func recoverClasses(engName string) []ctdf.FaultClass {
	var out []ctdf.FaultClass
	for _, class := range ctdf.FaultClasses() {
		if !class.AppliesTo(engName) {
			continue
		}
		if class == ctdf.FaultCorruptTag || class == ctdf.FaultMisfireValue {
			continue
		}
		out = append(out, class)
	}
	return out
}

// recoverPolicy is the supervised-run policy every fault cell uses: a
// short checkpoint interval so even small workloads checkpoint, and
// enough attempts for the watchdog rows.
func recoverPolicy() *ctdf.RecoveryPolicy {
	return &ctdf.RecoveryPolicy{CheckpointEvery: 8, MaxAttempts: 4}
}

// RunRecover executes the recovery sweep.
func RunRecover(cfg Config) (*RecoverMatrix, error) {
	if cfg.Deadline == 0 {
		cfg.Deadline = 10 * time.Second
	}
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()

	m := &RecoverMatrix{Seed: cfg.Seed}
	tally := func(cell RecoverCell) {
		m.Cells = append(m.Cells, cell)
		if cell.Outcome == "no-sites" {
			m.Skipped++
			return
		}
		m.Total++
		if cell.OK {
			m.OK++
			if cell.Attempts > 1 {
				m.Recovered++
			}
		}
	}
	for _, wname := range workloadSet(cfg.Smoke) {
		w, err := workloads.ByName(wname)
		if err != nil {
			return nil, err
		}
		p, err := ctdf.Compile(w.Source)
		if err != nil {
			return nil, fmt.Errorf("chaos: compile %s: %w", wname, err)
		}
		oracle, err := p.Interpret(nil)
		if err != nil {
			return nil, fmt.Errorf("chaos: interpret %s: %w", wname, err)
		}
		for _, schema := range schemaSet(cfg.Smoke) {
			d, err := p.Translate(ctdf.Options{Schema: schema})
			if err != nil {
				return nil, fmt.Errorf("chaos: translate %s/%s: %w", wname, schema, err)
			}
			for _, eng := range engines {
				for _, workers := range recoverWorkers {
					golden, err := d.Run(ctdf.RunConfig{Engine: eng.eng, Workers: workers})
					if err != nil {
						return nil, fmt.Errorf("chaos: golden %s/%s/%s/w%d: %w", wname, schema, eng.name, workers, err)
					}
					if golden.Snapshot != oracle.Snapshot {
						return nil, fmt.Errorf("chaos: golden %s/%s/%s/w%d diverged from the interpreter", wname, schema, eng.name, workers)
					}
					for _, class := range recoverClasses(eng.name) {
						tally(runRecoverCell(d, eng.eng, eng.name, schema.String(), wname, class, workers, golden, cfg))
					}
					tally(runDeadlineCell(d, eng.eng, eng.name, schema.String(), wname, workers, golden))
				}
			}
		}
	}

	m.LeakedGoroutines = leakedGoroutines(baseGoroutines)
	return m, nil
}

// recordReport copies the supervised run's recovery report into the cell.
func (c *RecoverCell) recordReport(r *ctdf.Result) {
	if r == nil || r.Recovery == nil {
		return
	}
	c.Attempts = r.Recovery.Attempts
	c.Checks = r.Recovery.Checks
	c.CheckpointsTaken = r.Recovery.CheckpointsTaken
	c.CheckpointUsed = r.Recovery.CheckpointUsed
	c.CyclesReplayed = r.Recovery.CyclesReplayed
}

// identicalTo checks byte-identity of the recovered result against the
// golden. Benign delay faults legitimately stretch simulated time, so
// cycles are compared only for non-benign machine rows.
func identicalTo(r, golden *ctdf.Result, engName string, compareCycles bool) string {
	if r.Snapshot != golden.Snapshot {
		return fmt.Sprintf("snapshot diverged:\n%s\nwant:\n%s", r.Snapshot, golden.Snapshot)
	}
	if r.Ops != golden.Ops {
		return fmt.Sprintf("ops %d, want %d", r.Ops, golden.Ops)
	}
	if engName == "machine" && compareCycles && r.Cycles != golden.Cycles {
		return fmt.Sprintf("cycles %d, want %d", r.Cycles, golden.Cycles)
	}
	return ""
}

// runRecoverCell runs one fault cell: counting pass, site selection,
// supervised faulted run, byte-identity check against the golden.
func runRecoverCell(d *ctdf.Dataflow, eng ctdf.Engine, engName, schema, wname string, class ctdf.FaultClass, workers int, golden *ctdf.Result, cfg Config) RecoverCell {
	cell := RecoverCell{Engine: engName, Schema: schema, Workload: wname, Class: string(class), Workers: workers}

	clean, err := d.Run(ctdf.RunConfig{
		Engine: eng, Workers: workers,
		Fault: &ctdf.FaultPlan{Class: class, Site: 0},
	})
	if err != nil {
		cell.Outcome = "clean-run-failed"
		cell.Err = err.Error()
		return cell
	}
	cell.Sites = clean.Fault.Sites
	if cell.Sites == 0 {
		cell.Outcome = "no-sites"
		return cell
	}
	cell.Site = ctdf.PickFaultSite(
		cellSeed(cfg.Seed, "recover", engName, schema, wname, string(class), fmt.Sprintf("w%d", workers)),
		cell.Sites)

	// The channel engine detects stuck runs only through its watchdog,
	// so every channels row needs a short deadline; machine aborts come
	// from the checks themselves. The deadline bounds idle time, not total
	// runtime: the watchdog re-arms while tokens move, so it cannot expire
	// before delivery reaches the injection site — the fault always fires
	// and the old doubled-deadline cell retries are gone.
	deadline := cfg.Deadline
	if engName == "channels" {
		deadline = 250 * time.Millisecond
	}
	r, err := d.Run(ctdf.RunConfig{
		Engine: eng, Workers: workers, Deadline: deadline,
		Fault:    &ctdf.FaultPlan{Class: class, Site: cell.Site},
		Recovery: recoverPolicy(),
	})
	cell.recordReport(r)
	if err != nil {
		cell.Outcome = "unrecovered"
		cell.Err = err.Error()
		return cell
	}
	if r.Fault == nil || !r.Fault.Injected {
		cell.Outcome = "not-injected"
		return cell
	}
	if diff := identicalTo(r, golden, engName, !class.Benign()); diff != "" {
		cell.Outcome = "diverged"
		cell.Err = diff
		return cell
	}
	switch {
	case class.Benign():
		if cell.Attempts == 1 {
			// The negative control: a delayed memory response must be
			// tolerated outright, not recovered from.
			cell.Outcome = "tolerated"
			cell.OK = true
		} else {
			cell.Outcome = "not-tolerated"
		}
	case cell.Attempts > 1:
		cell.Outcome = "recovered"
		cell.OK = true
	default:
		cell.Outcome = "survived"
		cell.OK = true
	}
	return cell
}

// runDeadlineCell runs the synthetic expiring-wall-clock row: no
// injector, a nanosecond first-attempt deadline, and a supervisor whose
// deadline growth must eventually let the run finish. On the machine
// engine the retries also resume from checkpoints, so partial progress
// survives each expiry; the channel engine restarts from scratch until
// one attempt's watchdog outlives the run.
func runDeadlineCell(d *ctdf.Dataflow, eng ctdf.Engine, engName, schema, wname string, workers int, golden *ctdf.Result) RecoverCell {
	cell := RecoverCell{Engine: engName, Schema: schema, Workload: wname, Class: "deadline", Workers: workers}
	r, err := d.Run(ctdf.RunConfig{
		Engine: eng, Workers: workers,
		Deadline: time.Nanosecond,
		Recovery: &ctdf.RecoveryPolicy{CheckpointEvery: 8, MaxAttempts: 12, DeadlineFactor: 16},
	})
	cell.recordReport(r)
	if err != nil {
		cell.Outcome = "unrecovered"
		cell.Err = err.Error()
		return cell
	}
	if diff := identicalTo(r, golden, engName, true); diff != "" {
		cell.Outcome = "diverged"
		cell.Err = diff
		return cell
	}
	if cell.Attempts > 1 {
		cell.Outcome = "recovered"
		cell.OK = true
	} else {
		// The workload outran even a nanosecond deadline (the machine
		// checks its clock on a cycle stride); nothing aborted, nothing
		// to recover.
		cell.Outcome = "survived"
		cell.OK = true
	}
	return cell
}
