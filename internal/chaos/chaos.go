// Package chaos is the fault-injection harness behind `ctdf chaos`: it
// runs a fault-class × schema × workload matrix through both execution
// engines and asserts that every injected fault is detected — by a named
// machine check (internal/machcheck), by final-state divergence from the
// sequential-interpreter oracle, or by a firing-count divergence. The
// delay-mem-response class is the built-in negative control: dataflow
// execution is determinate, so a delayed split-phase response must be
// tolerated with the oracle's exact result, proving the checks do not
// false-positive under timing perturbation.
//
// Each cell runs three executions: a counting pass (fault plan with Site
// 0) that doubles as the clean run and reports the number of eligible
// injection sites, then a faulted run at a site picked deterministically
// from the seed. Detection semantics per outcome are documented in
// ROBUSTNESS.md.
package chaos

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"ctdf"
	"ctdf/internal/workloads"
)

// Config configures a chaos sweep.
type Config struct {
	// Smoke restricts the matrix to one schema and two workloads — the
	// fast CI gate.
	Smoke bool
	// Seed drives deterministic site selection (cells mix it with their
	// own identity, so every cell picks an independent site).
	Seed int64
	// Deadline bounds each faulted run (default 10s; wedge runs, which
	// can only end via the watchdog, use a 250ms deadline).
	Deadline time.Duration
}

// Cell is one matrix entry: a (engine, schema, workload, class) point
// with the injection site chosen and the outcome observed.
type Cell struct {
	Engine   string `json:"engine"`
	Schema   string `json:"schema"`
	Workload string `json:"workload"`
	Class    string `json:"class"`
	// Sites is the number of eligible injection sites the counting pass
	// observed; Site is the 1-based site the faulted run hit.
	Sites int64 `json:"sites"`
	Site  int64 `json:"site"`
	// Outcome classifies how the fault surfaced: a machine-check name
	// ("deadlock", "tag-violation", ...), "oracle-mismatch",
	// "ops-divergence", "firing-divergence", "tolerated" (benign classes
	// only), "no-sites" (cell skipped, not counted), or "undetected".
	Outcome string `json:"outcome"`
	// Detected reports whether the outcome counts as detection (for
	// benign classes: tolerance with the oracle's exact result).
	Detected bool `json:"detected"`
	// Err is the abort message, when the run aborted.
	Err string `json:"err,omitempty"`
}

// Matrix is the full detection matrix and its summary counts.
type Matrix struct {
	Seed  int64  `json:"seed"`
	Cells []Cell `json:"cells"`
	// Total counts cells with eligible sites; Detected counts those whose
	// fault was detected. The chaos gate demands Detected == Total.
	Total    int `json:"total"`
	Detected int `json:"detected"`
	// Skipped counts cells with no eligible injection site.
	Skipped int `json:"skipped"`
	// LeakedGoroutines is the goroutine-count delta across the sweep
	// (must be 0: every aborted channel-engine run tears down its
	// workers).
	LeakedGoroutines int `json:"leaked_goroutines"`
	// Replay holds the journal-replay reproduction rows: one per
	// machine-applicable fault class. The causal journal records the
	// fault plan alongside the provenance DAG, so replaying a
	// fault-injected journal must reproduce the run exactly — same
	// firings, and for aborted runs the same machine check at the same
	// cycle. The gate demands ReplayReproduced == ReplayTotal.
	Replay           []ReplayCell `json:"replay"`
	ReplayTotal      int          `json:"replay_total"`
	ReplayReproduced int          `json:"replay_reproduced"`
}

// ReplayCell is one journal-replay reproduction row: a fault-injected
// machine run recorded to a journal, then replayed from it.
type ReplayCell struct {
	Workload string `json:"workload"`
	Schema   string `json:"schema"`
	Class    string `json:"class"`
	Site     int64  `json:"site"`
	// Abort is the machine check that ended the recorded run ("" when
	// the faulted run survived to completion); AbortCycle its cycle.
	Abort      string `json:"abort,omitempty"`
	AbortCycle int    `json:"abort_cycle,omitempty"`
	// Outcome is "reproduced" (replay identical, abort included),
	// "diverged" (with the first diffs in Err), or "no-sites".
	Outcome    string `json:"outcome"`
	Reproduced bool   `json:"reproduced"`
	Err        string `json:"err,omitempty"`
}

// Summary renders per-class detection counts, in stable order.
func (m *Matrix) Summary() string {
	type agg struct{ det, tot int }
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
		if c.Detected {
			a.det++
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
		out += fmt.Sprintf("  %-20s %d/%d detected\n", c, a.det, a.tot)
	}
	out += fmt.Sprintf("total: %d/%d detected, %d cells skipped (no eligible sites), %d leaked goroutines\n",
		m.Detected, m.Total, m.Skipped, m.LeakedGoroutines)
	if m.ReplayTotal > 0 {
		out += fmt.Sprintf("replay: %d/%d fault journals reproduced exactly\n",
			m.ReplayReproduced, m.ReplayTotal)
	}
	return out
}

// engines maps engine names to ctdf engine selectors.
var engines = []struct {
	name string
	eng  ctdf.Engine
}{
	{"machine", ctdf.EngineMachine},
	{"channels", ctdf.EngineChannels},
}

func schemaSet(smoke bool) []ctdf.Schema {
	if smoke {
		return []ctdf.Schema{ctdf.Schema2Opt}
	}
	return []ctdf.Schema{ctdf.Schema1, ctdf.Schema2, ctdf.Schema2Opt, ctdf.Schema3, ctdf.Schema3Opt}
}

func workloadSet(smoke bool) []string {
	if smoke {
		return []string{"fib-iterative", "array-sum"}
	}
	return []string{"fib-iterative", "array-sum", "gcd", "nested-loops", "bubble-sort"}
}

// cellSeed mixes the sweep seed with the cell identity so each cell picks
// an independent, reproducible site.
func cellSeed(seed int64, parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return seed + int64(h.Sum64()%1_000_003)
}

// Run executes the sweep.
func Run(cfg Config) (*Matrix, error) {
	if cfg.Deadline == 0 {
		cfg.Deadline = 10 * time.Second
	}
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()

	m := &Matrix{Seed: cfg.Seed}
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
				for _, class := range ctdf.FaultClasses() {
					if !class.AppliesTo(eng.name) {
						continue
					}
					cell := runCell(d, eng.eng, eng.name, schema.String(), wname, class, oracle.Snapshot, cfg)
					m.Cells = append(m.Cells, cell)
					if cell.Outcome == "no-sites" {
						m.Skipped++
						continue
					}
					m.Total++
					if cell.Detected {
						m.Detected++
					}
				}
			}
		}
	}

	// Journal-replay reproduction rows: one per machine-applicable fault
	// class on a fixed workload/schema point. These runs use only the
	// machine engine and so cannot leak goroutines.
	if err := runReplaySweep(m, cfg); err != nil {
		return nil, err
	}

	// The whole sweep must leave no goroutines behind: every aborted
	// channel-engine run tears its workers down before returning.
	m.LeakedGoroutines = leakedGoroutines(baseGoroutines)
	return m, nil
}

// leakedGoroutines gives the goroutines started since base was counted
// half a second to exit, collecting between looks, and returns how many
// are left.
func leakedGoroutines(base int) int {
	for i := 0; i < 50; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-base, 0)
}

// runCell executes one matrix cell: counting pass (the clean run), site
// selection, faulted run, classification.
func runCell(d *ctdf.Dataflow, eng ctdf.Engine, engName, schema, wname string, class ctdf.FaultClass, oracleSnap string, cfg Config) Cell {
	cell := Cell{Engine: engName, Schema: schema, Workload: wname, Class: string(class)}

	clean, err := d.Run(ctdf.RunConfig{
		Engine: eng,
		Fault:  &ctdf.FaultPlan{Class: class, Site: 0},
		Obs:    &ctdf.ObsOptions{},
	})
	if err != nil {
		cell.Outcome = "clean-run-failed"
		cell.Err = err.Error()
		return cell
	}
	if clean.Snapshot != oracleSnap {
		// The clean run is the per-cell oracle; it must itself agree with
		// the sequential interpreter before any fault is injected.
		cell.Outcome = "clean-run-diverged"
		return cell
	}
	cell.Sites = clean.Fault.Sites
	if cell.Sites == 0 {
		cell.Outcome = "no-sites"
		return cell
	}
	cell.Site = ctdf.PickFaultSite(cellSeed(cfg.Seed, engName, schema, wname, string(class)), cell.Sites)

	deadline := cfg.Deadline
	if class == ctdf.FaultWedgeMailbox {
		// A wedged run can only end via the watchdog, so it burns at least
		// one full idle window; keep it short. The watchdog re-arms while
		// tokens still move, so the short window cannot expire before
		// delivery reaches the injection site.
		deadline = 250 * time.Millisecond
	}
	faulted, err := d.Run(ctdf.RunConfig{
		Engine:   eng,
		Deadline: deadline,
		Fault:    &ctdf.FaultPlan{Class: class, Site: cell.Site},
		Obs:      &ctdf.ObsOptions{},
	})
	if err != nil {
		cell.Err = err.Error()
		if name, ok := ctdf.CheckName(err); ok {
			cell.Outcome = name
			// A benign fault must be tolerated, not aborted.
			cell.Detected = !class.Benign()
		} else {
			cell.Outcome = "untyped-error"
		}
		return cell
	}
	if faulted.Fault == nil || !faulted.Fault.Injected {
		cell.Outcome = "not-injected"
		return cell
	}
	switch {
	case class.Benign():
		if faulted.Snapshot == clean.Snapshot && faulted.Ops == clean.Ops &&
			firingsEqual(clean, faulted) {
			cell.Outcome = "tolerated"
			cell.Detected = true
		} else {
			cell.Outcome = "determinacy-violation"
		}
	case faulted.Snapshot != clean.Snapshot:
		cell.Outcome = "oracle-mismatch"
		cell.Detected = true
	case faulted.Ops != clean.Ops:
		cell.Outcome = "ops-divergence"
		cell.Detected = true
	case !firingsEqual(clean, faulted):
		// Dataflow determinacy fixes every node's firing count, so the
		// per-node profile is a finer oracle than the final store: a
		// flipped branch can restore the store yet fire different nodes.
		cell.Outcome = "firing-divergence"
		cell.Detected = true
	default:
		cell.Outcome = "undetected"
	}
	return cell
}

// runReplaySweep appends one journal-replay reproduction row per
// machine-applicable fault class: a faulted machine run is recorded to a
// causal journal (which captures the fault plan alongside the provenance
// DAG), then replayed from it. The replay diff covers the abort check and
// abort cycle, so a reproduced row means the same machine check fired at
// the same cycle — the journal is a faithful crash recording.
func runReplaySweep(m *Matrix, cfg Config) error {
	const wname = "fib-iterative"
	schema := ctdf.Schema2Opt
	w, err := workloads.ByName(wname)
	if err != nil {
		return err
	}
	p, err := ctdf.Compile(w.Source)
	if err != nil {
		return fmt.Errorf("chaos: compile %s: %w", wname, err)
	}
	d, err := p.Translate(ctdf.Options{Schema: schema})
	if err != nil {
		return fmt.Errorf("chaos: translate %s/%s: %w", wname, schema, err)
	}
	for _, class := range ctdf.FaultClasses() {
		if !class.AppliesTo("machine") {
			continue
		}
		rc := runReplayCell(d, wname, schema.String(), class, cfg)
		m.Replay = append(m.Replay, rc)
		if rc.Outcome == "no-sites" {
			continue
		}
		m.ReplayTotal++
		if rc.Reproduced {
			m.ReplayReproduced++
		}
	}
	return nil
}

// runReplayCell records one fault-injected machine run to a journal and
// replays it.
func runReplayCell(d *ctdf.Dataflow, wname, schema string, class ctdf.FaultClass, cfg Config) ReplayCell {
	rc := ReplayCell{Workload: wname, Schema: schema, Class: string(class)}

	clean, err := d.Run(ctdf.RunConfig{
		Engine: ctdf.EngineMachine,
		Fault:  &ctdf.FaultPlan{Class: class, Site: 0},
	})
	if err != nil {
		rc.Outcome = "clean-run-failed"
		rc.Err = err.Error()
		return rc
	}
	if clean.Fault.Sites == 0 {
		rc.Outcome = "no-sites"
		return rc
	}
	rc.Site = ctdf.PickFaultSite(cellSeed(cfg.Seed, "replay", schema, wname, string(class)), clean.Fault.Sites)

	// The faulted run may abort on a machine check; the journal is still
	// populated (the machine returns its partial outcome on abort), so the
	// run error itself is not a row failure — the replay diff decides.
	r, _ := d.Run(ctdf.RunConfig{
		Engine: ctdf.EngineMachine,
		Fault:  &ctdf.FaultPlan{Class: class, Site: rc.Site},
		Obs:    &ctdf.ObsOptions{Journal: true, Label: schema},
	})
	if r == nil || r.Journal == nil {
		rc.Outcome = "no-journal"
		return rc
	}
	rc.Abort, rc.AbortCycle = r.Journal.Abort()
	report, diverged, err := r.Journal.Replay()
	if err != nil {
		rc.Outcome = "replay-failed"
		rc.Err = err.Error()
		return rc
	}
	if diverged {
		rc.Outcome = "diverged"
		rc.Err = report
		return rc
	}
	rc.Outcome = "reproduced"
	rc.Reproduced = true
	return rc
}

// firingsEqual compares the per-node firing-count vectors of two observed
// runs.
func firingsEqual(a, b *ctdf.Result) bool {
	if a.Obs == nil || b.Obs == nil {
		return true
	}
	af, bf := a.Obs.NodeFirings(), b.Obs.NodeFirings()
	if len(af) != len(bf) {
		return false
	}
	for i := range af {
		if af[i] != bf[i] {
			return false
		}
	}
	return true
}
