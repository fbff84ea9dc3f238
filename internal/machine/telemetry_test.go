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
// count — renders byte-identically at every worker count and on either
// cycle body (poolGrains), because the simulated execution does, the
// pooled body's per-shard scratch is folded into the registry in shard
// order at the sequential merge point, and the sequential body writes
// from sequential code. This is the telemetry companion to
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
			atEachGrain(func(grain int) {
				for _, workers := range []int{2, 4, 8} {
					got := telemetryRun(t, w, workers).Invariant().OpenMetrics()
					if !bytes.Equal(base, got) {
						t.Errorf("W=%d grain=%d invariant exposition diverged from sequential:\n--- W=1 ---\n%s\n--- W=%d ---\n%s",
							workers, grain, base, workers, got)
					}
				}
			})
		})
	}
}

// TestTelemetryStableDeterministic pins the fixed-topology contract:
// for one worker count and one grain, the stable projection (everything
// but wall time) — including the cross-shard traffic matrix,
// outbox/inbox occupancy histograms, and the fire/retire firing split —
// is byte-reproducible run over run.
func TestTelemetryStableDeterministic(t *testing.T) {
	w := workloads.MustByName("running-example")
	atEachGrain(func(grain int) {
		base := telemetryRun(t, w, 3).Stable().OpenMetrics()
		for i := 0; i < 3; i++ {
			if got := telemetryRun(t, w, 3).Stable().OpenMetrics(); !bytes.Equal(base, got) {
				t.Fatalf("grain=%d: stable exposition not reproducible at fixed W:\n--- first ---\n%s\n--- rerun ---\n%s", grain, base, got)
			}
		}
	})
}

// TestTelemetryStableGolden pins the stable exposition of the running
// example at W=3 with every cycle that has work on the pooled body (the
// memory-wait cycles, with nothing ready, run the sequential one)
// byte-for-byte, so any change to the engine's token routing, occupancy,
// or the renderer shows up as a reviewable diff.
func TestTelemetryStableGolden(t *testing.T) {
	setPoolGrain(t, 1)
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
// a pooled run: the fire/retire split sums to total firings, every
// traffic row sums to the tokens the matrix attributes to its source,
// and the phase table renders the per-shard rows.
func TestTelemetryBreakdownConsistency(t *testing.T) {
	setPoolGrain(t, 1)
	snap := telemetryRun(t, workloads.MustByName("fib-iterative"), 4)
	b := snap.MachineBreakdown()
	if b.Workers != 4 {
		t.Fatalf("workers = %d, want 4", b.Workers)
	}
	if b.FireFirings+b.RetireFirings != b.Firings {
		t.Errorf("fire %d + retire %d != firings %d", b.FireFirings, b.RetireFirings, b.Firings)
	}
	if b.Cycles == 0 || b.Tokens == 0 || b.Matches == 0 {
		t.Errorf("empty counters: %+v", b)
	}
	if b.RemoteTokens == 0 {
		t.Error("no cross-shard traffic recorded on a 4-way sharded run")
	}
	var matrix int64
	for _, c := range b.Traffic {
		matrix += c.Tokens
	}
	if matrix != b.ShardTokens+b.SeqTokens+b.MemTokens {
		t.Errorf("traffic matrix sum %d != shard %d + seq %d + mem %d",
			matrix, b.ShardTokens, b.SeqTokens, b.MemTokens)
	}
	table := snap.PhaseTable()
	for _, want := range []string{"select", "fire", "retire", "deliver", "barrier", "cross-shard traffic"} {
		if !bytes.Contains([]byte(table), []byte(want)) {
			t.Errorf("phase table missing %q:\n%s", want, table)
		}
	}
}
