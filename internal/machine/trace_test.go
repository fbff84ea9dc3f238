package machine

import (
	"strings"
	"testing"

	"ctdf/internal/dfg"
	"ctdf/internal/obs"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// traced runs g under cfg with a collector that keeps the record and
// renders the run's trace from it, as `ctdf run -trace` does.
func traced(t *testing.T, g *dfg.Graph, cfg Config) (string, *Outcome) {
	t.Helper()
	col := obs.NewCollector(g, obs.Options{CriticalPath: true})
	cfg.Collector = col
	out, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := obs.WriteTrace(&buf, col.Meta(), col.Record()); err != nil {
		t.Fatal(err)
	}
	return buf.String(), out
}

func TestTraceOutput(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	trace, out := traced(t, res.Graph, Config{})
	lines := strings.Count(trace, "\n")
	if lines != out.Stats.Ops {
		t.Errorf("trace has %d lines, ops = %d", lines, out.Stats.Ops)
	}
	for _, want := range []string{"cycle 0:", "load x", "store y", "switch[x]", "[tag 0]", "[tag 4]"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestProfileChart(t *testing.T) {
	res := translateWorkload(t, workloads.MustByName("fib-iterative"), translate.Options{Schema: translate.Schema2})
	out, err := Run(res.Graph, Config{MemLatency: 4})
	if err != nil {
		t.Fatal(err)
	}
	chart := out.Stats.ProfileChart(60, 8)
	if !strings.Contains(chart, "#") || !strings.Contains(chart, "cycle") {
		t.Errorf("chart malformed:\n%s", chart)
	}
	// Height: 8 bar rows + axis + label.
	if got := strings.Count(chart, "\n"); got != 10 {
		t.Errorf("chart has %d lines, want 10", got)
	}
	// The peak row is labeled with MaxParallelism.
	if !strings.Contains(chart, "   ") {
		t.Error("chart missing axis labels")
	}
}

func TestProfileChartDegenerate(t *testing.T) {
	if got := (Stats{}).ProfileChart(10, 4); !strings.Contains(got, "empty") {
		t.Errorf("empty profile chart = %q", got)
	}
	s := Stats{Profile: []int{3}, Cycles: 1}
	if got := s.ProfileChart(0, 0); !strings.Contains(got, "#") {
		t.Errorf("degenerate dims chart = %q", got)
	}
}
