package journal

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"ctdf/internal/fault"
	"ctdf/internal/interp"
	"ctdf/internal/machcheck"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
)

// Divergence is one firing-level disagreement between a journal and its
// replay.
type Divergence struct {
	// Index is the firing id (or -1 for run-level divergences: cycle
	// count, abort, fire-count mismatch).
	Index int    `json:"index"`
	Field string `json:"field"`
	Want  string `json:"want"`
	Got   string `json:"got"`
}

func (d Divergence) String() string {
	if d.Index < 0 {
		return fmt.Sprintf("%s: recorded %s, replayed %s", d.Field, d.Want, d.Got)
	}
	return fmt.Sprintf("firing #%d %s: recorded %s, replayed %s", d.Index, d.Field, d.Want, d.Got)
}

// ReplayResult reports one time-travel replay.
type ReplayResult struct {
	// Replayed is the journal of the re-execution; StateAt against it
	// (equivalently, against the original when Divergences is empty)
	// implements the time-travel inspection.
	Replayed *Journal
	// Divergences lists recorded-vs-replayed disagreements, capped at
	// MaxDivergences; empty means the replay reproduced the run exactly.
	Divergences []Divergence
	// Truncated reports that more divergences existed than were kept.
	Truncated bool
}

// MaxDivergences caps how many diffs a replay reports: past the first
// disagreement the runs have different token histories and every later
// firing tends to diverge too, so an exhaustive list is noise.
const MaxDivergences = 20

// Replay re-executes the machine engine under the journal's recorded
// configuration — including the fault-injection plan, so a journal of a
// crashed run reproduces its machine-check abort — and diffs the
// re-execution against the recording firing by firing. The machine is
// deterministic by construction, so any divergence means the journal,
// the engine, or the configuration capture is broken; `ctdf replay`
// gates on zero divergences in scripts/verify.sh.
func Replay(j *Journal) (*ReplayResult, error) {
	g, err := j.Graph()
	if err != nil {
		return nil, err
	}
	cfg := machine.Config{
		Processors: j.Config.Processors,
		MemLatency: j.Config.MemLatency,
		MaxCycles:  j.Config.MaxCycles,
		MaxOps:     j.Config.MaxOps,
		RandomSeed: j.Config.RandomSeed,
		Workers:    j.Config.Workers,
	}
	if len(j.Config.Binding) > 0 {
		cfg.Binding = interp.Binding(j.Config.Binding)
	}
	if j.Config.FaultClass != "" {
		cfg.Inject = fault.NewInjector(fault.Plan{
			Class: fault.Class(j.Config.FaultClass),
			Site:  j.Config.FaultSite,
			Delay: j.Config.FaultDelay,
		})
	}
	col := obs.NewCollector(g, obs.Options{CriticalPath: true})
	cfg.Collector = col

	out, err := machine.Run(g, cfg)
	cycles := 0
	if err != nil {
		var ce *machcheck.Error
		if !errors.As(err, &ce) {
			return nil, fmt.Errorf("journal: replay failed outside machine checks: %w", err)
		}
		// The abort itself is in the record; the diff below compares it
		// against the recording.
		cycles = ce.Cycle
	} else {
		cycles = out.Stats.Cycles
	}
	replayed := New(g, col, j.Label, j.Config, cycles)

	res := &ReplayResult{Replayed: replayed}
	res.Divergences, res.Truncated = Diff(j, replayed), false
	if len(res.Divergences) > MaxDivergences {
		res.Divergences = res.Divergences[:MaxDivergences]
		res.Truncated = true
	}
	return res, nil
}

// Diff compares two journals of what should be the same run — a
// recording against its replay, or a sequential-engine journal against a
// sharded-engine one (byte-exactness gate, SCALING.md) — firing by
// firing. Tags compare rendered, since a file-loaded journal interns them
// in file order. It returns at most MaxDivergences+1 entries; an empty
// slice means the journals agree exactly.
func Diff(j, replayed *Journal) []Divergence {
	var out []Divergence
	truncated := false
	add := func(index int, field, want, got string) {
		if len(out) > MaxDivergences {
			truncated = true
			return
		}
		out = append(out, Divergence{Index: index, Field: field, Want: want, Got: got})
	}

	if len(j.Fires) != len(replayed.Fires) {
		add(-1, "firings", fmt.Sprint(len(j.Fires)), fmt.Sprint(len(replayed.Fires)))
	}
	n := len(j.Fires)
	if len(replayed.Fires) < n {
		n = len(replayed.Fires)
	}
	for i := 0; i < n; i++ {
		a, b := &j.Fires[i], &replayed.Fires[i]
		if a.Node != b.Node {
			add(i, "node", j.label(a.Node), j.label(b.Node))
		}
		if a.Cycle != b.Cycle {
			add(i, "cycle", fmt.Sprint(a.Cycle), fmt.Sprint(b.Cycle))
		}
		if a.Cost != b.Cost {
			add(i, "cost", fmt.Sprint(a.Cost), fmt.Sprint(b.Cost))
		}
		if j.Tags[a.Tag] != replayed.Tags[b.Tag] {
			add(i, "tag", j.tagName(a.Tag), replayed.tagName(b.Tag))
		}
		if da, db := j.Deps(int32(i)), replayed.Deps(int32(i)); !slices.Equal(da, db) {
			add(i, "deps", fmt.Sprint(da), fmt.Sprint(db))
		}
		if truncated {
			break
		}
	}
	if len(j.Parks) != len(replayed.Parks) {
		add(-1, "parks", fmt.Sprint(len(j.Parks)), fmt.Sprint(len(replayed.Parks)))
	}
	if j.Cycles != replayed.Cycles {
		add(-1, "cycles", fmt.Sprint(j.Cycles), fmt.Sprint(replayed.Cycles))
	}
	if j.AbortCheck != replayed.AbortCheck {
		add(-1, "abort check", orNone(j.AbortCheck), orNone(replayed.AbortCheck))
	}
	if j.AbortCheck == replayed.AbortCheck && j.AbortCycle != replayed.AbortCycle {
		add(-1, "abort cycle", fmt.Sprint(j.AbortCycle), fmt.Sprint(replayed.AbortCycle))
	}
	return out
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// Text renders the replay verdict for terminal output.
func (r *ReplayResult) Text() string {
	if len(r.Divergences) == 0 {
		return fmt.Sprintf("replay: identical — %d firings, %d cycles reproduced exactly\n",
			len(r.Replayed.Fires), r.Replayed.Cycles)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "replay: DIVERGED — %d disagreement(s):\n", len(r.Divergences))
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	if r.Truncated {
		b.WriteString("  ... (further divergences suppressed)\n")
	}
	return b.String()
}
