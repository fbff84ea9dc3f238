package ctdf

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ctdf/internal/fault"
	"ctdf/internal/machcheck"
	"ctdf/internal/machine"
)

// Supervised recovery (see ROBUSTNESS.md, "Recovery").
//
// Setting RunConfig.Recovery wraps the execution in a supervisor: when a
// run aborts with a machine check classified transient — or with any
// check, if the attempt's planned fault actually fired — the supervisor
// retries it. The machine engine resumes from its last completed
// checkpoint (always pre-fault state; see internal/machine/checkpoint.go)
// so completed work is not re-executed; the channel engine has no
// checkpointable cycle structure and restarts from scratch. The paper's
// §5 determinacy condition is what makes the retry sound either way: a
// determinate dataflow graph re-executed from a consistent token snapshot
// (or from the start) must reproduce the byte-identical result.

// RecoveryPolicy configures the supervisor. The zero value of each field
// selects its default.
type RecoveryPolicy struct {
	// MaxAttempts bounds total attempts including the first (default 3).
	MaxAttempts int
	// CheckpointEvery is the machine checkpoint interval in cycles
	// (default 64). Negative disables checkpointing: machine retries then
	// restart from scratch like channel retries. Checkpointing is also
	// disabled automatically when the run is observed (Obs, Trace) or
	// race-checked, since those record events checkpoint resume would
	// replay twice.
	CheckpointEvery int
	// DeadlineFactor multiplies RunConfig.Deadline on every retry
	// (default 2) — the progress guarantee that keeps a too-tight
	// deadline from aborting each attempt at the same point forever.
	DeadlineFactor float64
	// Dir, when set, spills checkpoints to disk in that directory (only
	// the most recent is kept; it is removed when the supervisor
	// returns) and resumes by reloading the file — exercising the
	// serialized format. Empty keeps checkpoints in memory.
	Dir string
}

// withDefaults resolves zero-valued policy knobs.
func (p RecoveryPolicy) withDefaults() RecoveryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.CheckpointEvery == 0 {
		p.CheckpointEvery = 64
	}
	if p.DeadlineFactor == 0 {
		p.DeadlineFactor = 2
	}
	return p
}

// CheckpointRef identifies a completed machine checkpoint by id and
// cycle; the cycle is a valid `ctdf replay -at` target.
type CheckpointRef = machine.CheckpointRef

// RecoveryReport describes what the supervisor did.
type RecoveryReport struct {
	// Attempts is the number of attempts executed (1 = no retry needed).
	Attempts int `json:"attempts"`
	// Recovered reports that at least one attempt aborted and a later
	// attempt completed successfully.
	Recovered bool `json:"recovered"`
	// Checks lists the machine-check name of each aborted attempt, in
	// order.
	Checks []string `json:"checks,omitempty"`
	// CheckpointsTaken counts checkpoints captured across all attempts.
	CheckpointsTaken int `json:"checkpoints_taken"`
	// CheckpointUsed identifies the most recent checkpoint a retry
	// resumed from (nil when every retry restarted from scratch).
	CheckpointUsed *CheckpointRef `json:"checkpoint_used,omitempty"`
	// CyclesReplayed counts simulated cycles re-executed by retries —
	// work done by a failed attempt past its resume point (0 for the
	// channel engine, which has no cycle clock).
	CyclesReplayed int `json:"cycles_replayed"`
}

// transientChecks is the supervisor's classification table, asserted
// against ROBUSTNESS.md by a doc-sync test. Transient checks describe
// conditions a retry can plausibly outlive — stuck or lost tokens
// (injected faults and scheduling collapse manifest as deadlock), an
// expired wall clock, an exhausted cycle budget. Permanent checks
// describe structural defects — an impossible tag, a determinacy
// violation, a trapped operator, leaked tokens, a malformed
// configuration — that deterministic re-execution must reproduce.
var transientChecks = map[machcheck.Check]bool{
	machcheck.Deadlock:       true,
	machcheck.Deadline:       true,
	machcheck.CyclesExceeded: true,
	machcheck.TokenLeak:      false,
	machcheck.TagViolation:   false,
	machcheck.OperatorFault:  false,
	machcheck.Determinacy:    false,
	machcheck.InvalidConfig:  false,
}

// TransientCheck reports whether the named machine check ("deadlock",
// "deadline", ...) is classified transient — worth retrying. Independent
// of the table, the supervisor also retries any check when the attempt's
// planned fault actually fired: an injected fault is transient by
// construction, whatever check catches it.
func TransientCheck(name string) bool { return transientChecks[machcheck.Check(name)] }

// CheckClassification returns the full supervisor decision table:
// machine-check name → "transient" or "permanent", in Checks() order.
func CheckClassification() map[string]string {
	out := make(map[string]string, len(transientChecks))
	for _, c := range machcheck.Checks() {
		if transientChecks[c] {
			out[string(c)] = "transient"
		} else {
			out[string(c)] = "permanent"
		}
	}
	return out
}

// ckPlumb threads checkpoint plumbing from the supervisor into one
// machine attempt.
type ckPlumb struct {
	every  int
	sink   func(*machine.Checkpoint) error
	resume *machine.Checkpoint
}

// runSupervised executes cfg under the retry policy. Attempt 1 carries
// the fault plan; retries never re-inject (a fault plan describes one
// fault, and its site numbering counts from cycle 0 of a fresh run).
func (d *Dataflow) runSupervised(cfg RunConfig) (*Result, error) {
	pol := cfg.Recovery.withDefaults()
	rep := &RecoveryReport{}

	var inj *fault.Injector
	if cfg.Fault != nil {
		inj = fault.NewInjector(*cfg.Fault)
	}

	// Checkpointing is machine-only and incompatible with observation
	// (collectors and traces would record the replayed span twice) and
	// race detection (release hooks are not snapshotted).
	canCk := cfg.Engine == EngineMachine && pol.CheckpointEvery > 0 &&
		cfg.Obs == nil && cfg.Trace == nil && !cfg.DetectRaces
	var lastCk *machine.Checkpoint // in-memory mode
	var lastPath string            // on-disk mode
	if pol.Dir != "" {
		defer func() {
			if lastPath != "" {
				os.Remove(lastPath)
			}
		}()
	}
	sink := func(c *machine.Checkpoint) error {
		rep.CheckpointsTaken++
		if pol.Dir == "" {
			lastCk = c
			return nil
		}
		path := filepath.Join(pol.Dir, fmt.Sprintf("ctdf-ck-%03d.json", c.ID))
		if err := c.WriteFile(path); err != nil {
			return err
		}
		if lastPath != "" && lastPath != path {
			os.Remove(lastPath)
		}
		lastPath = path
		return nil
	}
	// loadLast returns the newest checkpoint, reloading it from disk in
	// on-disk mode so resume exercises the serialized format.
	loadLast := func() (*machine.Checkpoint, error) {
		if pol.Dir != "" && lastPath != "" {
			return machine.ReadCheckpointFile(lastPath)
		}
		return lastCk, nil
	}

	deadline := cfg.Deadline
	maxCycles, maxOps := cfg.MaxCycles, cfg.MaxOps
	for attempt := 1; ; attempt++ {
		acfg := cfg
		acfg.Deadline = deadline
		acfg.MaxCycles, acfg.MaxOps = maxCycles, maxOps
		var plumb ckPlumb
		if canCk {
			plumb.every = pol.CheckpointEvery
			plumb.sink = sink
			if attempt > 1 {
				ck, err := loadLast()
				if err != nil {
					return nil, fmt.Errorf("ctdf: reload checkpoint for retry: %w", err)
				}
				if ck != nil {
					plumb.resume = ck
					if ck.Seed != 0 {
						// Seeded checkpoints are bound to the worker
						// count that took them (per-shard RNG streams).
						acfg.Workers = ck.Workers
					}
					rep.CheckpointUsed = &CheckpointRef{ID: ck.ID, Cycle: ck.Cycle}
				}
			}
		}
		attInj := inj
		if attempt > 1 {
			attInj = nil
		}

		res, err := d.runOnce(acfg, attInj, plumb)
		rep.Attempts = attempt
		if res != nil {
			res.Recovery = rep
			if res.Fault == nil {
				res.Fault = faultReport(inj)
			}
		}
		if err == nil {
			rep.Recovered = attempt > 1
			return res, nil
		}

		name, isCheck := CheckName(err)
		if isCheck {
			rep.Checks = append(rep.Checks, name)
		}
		injected := inj != nil && inj.Injected()
		retryable := isCheck && (TransientCheck(name) || injected) &&
			!errors.Is(err, ErrInvalidConfig)
		if !retryable || attempt >= pol.MaxAttempts {
			return res, err
		}

		// Account for the work the retry will redo: everything the failed
		// attempt executed past its resume point.
		resumeCycle := 0
		if canCk {
			if ck, lerr := loadLast(); lerr == nil && ck != nil {
				resumeCycle = ck.Cycle
			}
		}
		if res != nil && res.Cycles > resumeCycle {
			rep.CyclesReplayed += res.Cycles - resumeCycle
		}
		if errors.Is(err, ErrCyclesExceeded) {
			// Double the exhausted budget (resolving the engines' shared
			// defaults: one million cycles, ten million firings), so the
			// retry has headroom rather than re-dying identically.
			if maxCycles == 0 {
				maxCycles = 1_000_000
			}
			if maxOps == 0 {
				maxOps = 10_000_000
			}
			maxCycles, maxOps = 2*maxCycles, 2*maxOps
		}
		if deadline > 0 {
			deadline = time.Duration(float64(deadline) * pol.DeadlineFactor)
		}
	}
}
