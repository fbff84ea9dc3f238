package machine

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/obs/telemetry"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// telemetryRun executes one workload with a fresh registry and returns
// the snapshot.
func telemetryRun(t *testing.T, w workloads.Workload, workers int) *telemetry.Snapshot {
	t.Helper()
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	reg := telemetry.NewRegistry()
	if _, err := Run(res.Graph, Config{MemLatency: 4, Workers: workers, Telemetry: reg}); err != nil {
		t.Fatalf("W=%d: %v", workers, err)
	}
	return reg.Snapshot()
}

// TestTelemetryInvariantAcrossWorkers pins the aggregation-determinism
// contract: the invariant projection of the registry — cycles, firings,
// tokens, matches, matching-store depth histogram and peak, checkpoint
// count — renders byte-identically at every worker count, because the
// simulated execution does. This is the telemetry companion to
// TestShardedObservablyIdentical.
func TestTelemetryInvariantAcrossWorkers(t *testing.T) {
	cases := []workloads.Workload{
		workloads.MustByName("running-example"),
		workloads.MustByName("fib-iterative"),
		workloads.Wide(64, 10),
		workloads.Random(7, 40, 3),
	}
	for _, w := range cases {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			base := telemetryRun(t, w, 1).Invariant().OpenMetrics()
			if len(base) == 0 || !bytes.HasSuffix(base, []byte("# EOF\n")) {
				t.Fatalf("sequential invariant exposition malformed:\n%s", base)
			}
			for _, workers := range []int{2, 4, 8} {
				got := telemetryRun(t, w, workers).Invariant().OpenMetrics()
				if !bytes.Equal(base, got) {
					t.Errorf("W=%d invariant exposition diverged from sequential:\n--- W=1 ---\n%s\n--- W=%d ---\n%s",
						workers, base, workers, got)
				}
			}
		})
	}
}

// TestTelemetryStableDeterministic pins the fixed-topology contract:
// for one worker count, the stable projection (everything but wall time)
// — including the lane → shard traffic matrix and the outbox/inbox
// occupancy histograms — is byte-reproducible run over run.
func TestTelemetryStableDeterministic(t *testing.T) {
	w := workloads.MustByName("running-example")
	base := telemetryRun(t, w, 3).Stable().OpenMetrics()
	for i := 0; i < 3; i++ {
		if got := telemetryRun(t, w, 3).Stable().OpenMetrics(); !bytes.Equal(base, got) {
			t.Fatalf("stable exposition not reproducible at fixed W:\n--- first ---\n%s\n--- rerun ---\n%s", base, got)
		}
	}
}

// TestTelemetryStableGolden pins the stable exposition of the running
// example at W=3 byte-for-byte, so any change to the engine's token
// routing, occupancy, or the renderer shows up as a reviewable diff.
func TestTelemetryStableGolden(t *testing.T) {
	got := telemetryRun(t, workloads.MustByName("running-example"), 3).Stable().OpenMetrics()
	path := filepath.Join("testdata", "telemetry_running_example_w3.om")
	if *updateGoldens {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (rerun with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stable telemetry exposition diverged from committed golden %s; rerun with -update if intended\n--- got ---\n%s", path, got)
	}
}

// TestTelemetryBreakdownConsistency checks the profiler's arithmetic on
// a four-shard run: every delivered token is on the seq or the mem lane,
// the matrix cells sum to its lanes, the shards' inbox occupancy sums to
// the tokens delivered, and the phase table renders its rows.
func TestTelemetryBreakdownConsistency(t *testing.T) {
	snap := telemetryRun(t, workloads.MustByName("fib-iterative"), 4)
	b := snap.MachineBreakdown()
	if b.Workers != 4 {
		t.Fatalf("workers = %d, want 4", b.Workers)
	}
	if b.Cycles == 0 || b.Tokens == 0 || b.Matches == 0 || b.MemTokens == 0 {
		t.Errorf("empty counters: %+v", b)
	}
	if b.Tokens != b.SeqTokens+b.MemTokens {
		t.Errorf("tokens %d != seq %d + mem %d", b.Tokens, b.SeqTokens, b.MemTokens)
	}
	rows := map[string]int64{}
	for _, c := range b.Traffic {
		rows[c.Src] += c.Tokens
	}
	if len(rows) != 2 || rows["seq"] != b.SeqTokens || rows["mem"] != b.MemTokens {
		t.Errorf("traffic matrix rows %v, want seq %d and mem %d only", rows, b.SeqTokens, b.MemTokens)
	}
	var inbox int64
	for _, ser := range snap.Family(telemetry.SpecMachineInbox.Name).Series {
		inbox += ser.Sum
	}
	if inbox != b.Tokens {
		t.Errorf("per-shard inbox occupancy sums to %d, tokens delivered %d", inbox, b.Tokens)
	}
	table := snap.PhaseTable()
	for _, want := range []string{"select", "fire", "deliver", "token traffic"} {
		if !bytes.Contains([]byte(table), []byte(want)) {
			t.Errorf("phase table missing %q:\n%s", want, table)
		}
	}
}
