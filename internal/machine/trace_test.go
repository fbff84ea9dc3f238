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
