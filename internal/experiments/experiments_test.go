package experiments

import (
	"strconv"
	"strings"
	"testing"

	"ctdf/internal/machine"
	"ctdf/internal/translate"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run()
			if err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Title, err)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			if !strings.Contains(out, "\n") {
				t.Errorf("%s output is not a table:\n%s", e.ID, out)
			}
		})
	}
}

func TestAllExperimentsDeterministic(t *testing.T) {
	for _, e := range []string{"E1", "E4", "E7", "E8"} {
		exp, ok := ByID(e)
		if !ok {
			t.Fatalf("missing %s", e)
		}
		a, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s is nondeterministic:\n%s\nvs\n%s", e, a, b)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Error("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 should not exist")
	}
}

func TestTheorem1ExperimentReportsNoMismatches(t *testing.T) {
	exp, _ := ByID("E5")
	out, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Theorem 1 mismatches") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "mismatches") && !strings.Contains(line, " 0") {
			t.Errorf("Theorem 1 mismatches reported:\n%s", out)
		}
	}
}

// TestOptimizerDeltasExperiment pins E18's asserted metric on the exact
// cells the table reports: under schema2-opt with memory elimination —
// the strongest translation the paper builds — the graph optimizer must
// still strictly reduce both interconnect traffic (tokens moved) and the
// critical path (cycles) on Figure 9 and every loop workload, without
// changing any result.
func TestOptimizerDeltasExperiment(t *testing.T) {
	topt := translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}
	for _, name := range []string{"fig9-bypass", "running-example", "fib-iterative", "gcd", "collatz-bounded", "sieve"} {
		d, err := measureOptDelta(name, topt, machine.Config{MemLatency: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !d.agree {
			t.Errorf("%s: optimization changed the result", name)
		}
		if d.rewrites == 0 {
			t.Errorf("%s: optimizer found nothing to rewrite", name)
		}
		if d.opt.Stats.Cycles >= d.base.Stats.Cycles {
			t.Errorf("%s: cycles did not drop: %d -> %d", name, d.base.Stats.Cycles, d.opt.Stats.Cycles)
		}
		if d.opt.Stats.TokensMoved >= d.base.Stats.TokensMoved {
			t.Errorf("%s: tokens moved did not drop: %d -> %d", name, d.base.Stats.TokensMoved, d.opt.Stats.TokensMoved)
		}
	}
}

func TestEnginesAgreementExperiment(t *testing.T) {
	exp, _ := ByID("E12")
	out, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "false") {
		t.Errorf("engines disagreed somewhere:\n%s", out)
	}
}

// TestTelemetryScalingExperiment asserts E19's claims row by row:
// cycles, firings, and the token counts of both lanes are invariant
// across worker counts per workload; one shard receives every token at
// w=1, and the busiest of w>=4 shards less than half of them.
func TestTelemetryScalingExperiment(t *testing.T) {
	ts, err := e19()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 {
		t.Fatalf("e19 returned %d tables, want 1", len(ts))
	}
	col := map[string]int{}
	for i, c := range ts[0].cols {
		col[c] = i
	}
	base := map[string][]string{} // workload -> w=1 row
	for _, r := range ts[0].rows {
		wl, workers := r[col["workload"]], r[col["workers"]]
		if workers == "1" {
			base[wl] = r
			if r[col["busiest%"]] != "100.00" {
				t.Errorf("%s w=1: busiest shard receives %s%%, want 100.00", wl, r[col["busiest%"]])
			}
			continue
		}
		b, ok := base[wl]
		if !ok {
			t.Fatalf("%s: no w=1 baseline row", wl)
		}
		for _, c := range []string{"cycles", "firings", "tokens", "seq", "mem"} {
			if r[col[c]] != b[col[c]] {
				t.Errorf("%s w=%s: %s = %s, want %s (invariant across workers)", wl, workers, c, r[col[c]], b[col[c]])
			}
		}
		if busiest, _ := strconv.ParseFloat(r[col["busiest%"]], 64); busiest <= 0 || busiest >= 50 {
			t.Errorf("%s w=%s: busiest shard receives %v%% of the tokens, want under half", wl, workers, busiest)
		}
	}
	if len(base) == 0 {
		t.Fatal("no rows")
	}
}
