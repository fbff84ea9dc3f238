// Observability surface of the public API: RunConfig.Obs turns a run
// into an observed run, Result.Obs carries its report, and CompareObs
// diffs two reports. The event schema, counter semantics, and NDJSON
// format are documented in OBSERVABILITY.md; the full machinery lives
// in internal/obs and is driven from the command line by `ctdf profile`.
package ctdf

import (
	"io"

	"ctdf/internal/obs"
	"ctdf/internal/obs/journal"
)

// ObsOptions enables observability for one Run.
type ObsOptions struct {
	// Events, when non-nil, receives the run as an NDJSON stream: one
	// "meta" line per node, one "fire"/"wait"/"fault"/"abort" line per
	// event, and a trailing "summary" line holding the full report. It is
	// written when the run returns, after an abort too; on EngineMachine
	// from the run's record, which the run then keeps (32 bytes per
	// firing, 4 per producer edge, 20 per matching-store park).
	Events io.Writer
	// CriticalPath records the firing DAG so the report includes the
	// longest dependence chain with per-operator attribution
	// (EngineMachine only; costs one small record per firing).
	CriticalPath bool
	// Journal records the causal execution journal — the full provenance
	// DAG of the run plus matching-store parks — on Result.Journal
	// (EngineMachine only). It powers Explain/Impact causal queries,
	// deterministic replay, and the Chrome-trace and pprof exporters; see
	// OBSERVABILITY.md and `ctdf trace` / `ctdf replay`.
	Journal bool
	// Label names the run in reports and diffs (conventionally the
	// schema name); empty defaults to the engine name.
	Label string
}

// ExecJournal is the causal execution journal of one machine run; see
// internal/obs/journal for the full query surface (the CLI uses it
// directly) and OBSERVABILITY.md for the format.
type ExecJournal struct {
	j *journal.Journal
}

// Summary renders one line of run vitals.
func (e *ExecJournal) Summary() string { return e.j.Summary() }

// Abort returns the machine check that ended the journaled run and the
// cycle it fired at (check is "" when the run completed cleanly).
func (e *ExecJournal) Abort() (check string, cycle int) {
	return e.j.AbortCheck, e.j.AbortCycle
}

// WriteFile saves the journal as NDJSON, gzipped when path ends ".gz".
func (e *ExecJournal) WriteFile(path string) error { return e.j.WriteFile(path) }

// Explain renders the backward cause cone of the firings matching spec
// ("d10@0.1", "store x", "#42"): every firing whose value transitively
// flowed into them. maxDepth <= 0 means unlimited.
func (e *ExecJournal) Explain(spec string, maxDepth int) (string, error) {
	ids, err := journal.ResolveAnchor(e.j, spec)
	if err != nil {
		return "", err
	}
	c, err := journal.Explain(e.j, ids)
	if err != nil {
		return "", err
	}
	return c.Summary() + "\n" + c.Text(maxDepth), nil
}

// Impact renders the forward slice of the firings matching spec: every
// firing they transitively fed.
func (e *ExecJournal) Impact(spec string, maxDepth int) (string, error) {
	ids, err := journal.ResolveAnchor(e.j, spec)
	if err != nil {
		return "", err
	}
	c, err := journal.Impact(e.j, ids)
	if err != nil {
		return "", err
	}
	return c.Summary() + "\n" + c.Text(maxDepth), nil
}

// Replay re-executes the machine under the journal's recorded
// configuration and diffs the runs firing by firing; diverged is false
// when the replay reproduced the recording exactly.
func (e *ExecJournal) Replay() (report string, diverged bool, err error) {
	rr, err := journal.Replay(e.j)
	if err != nil {
		return "", false, err
	}
	return rr.Text(), len(rr.Divergences) > 0, nil
}

// StateAt renders the machine state at one cycle — firings in flight,
// live tokens, and matching-store contents — reconstructed from the
// journal without re-execution.
func (e *ExecJournal) StateAt(cycle int) (string, error) {
	st, err := e.j.StateAt(cycle)
	if err != nil {
		return "", err
	}
	return st.Text(e.j), nil
}

// WriteChromeTrace exports the journal as Chrome Trace Event JSON,
// loadable at ui.perfetto.dev.
func (e *ExecJournal) WriteChromeTrace(w io.Writer) error { return e.j.WriteChromeTrace(w) }

// WritePprof exports the journal as a gzipped pprof profile accepted by
// `go tool pprof`.
func (e *ExecJournal) WritePprof(w io.Writer) error { return e.j.WritePprof(w) }

// ObsReport is the structured outcome of an observed run: per-node and
// per-kind counters, the parallelism histogram, and (when requested) the
// critical path. encoding/json encodes it in full.
type ObsReport = obs.Report

// ObsDiff is a structured comparison of two observed runs.
type ObsDiff = obs.Diff

// CompareObs diffs two reports (a the baseline, b the configuration
// under test): cycles, ops, matching waits, memory stalls, critical
// path, and per-kind firing counts.
func CompareObs(a, b *ObsReport) *ObsDiff { return obs.Compare(a, b) }
