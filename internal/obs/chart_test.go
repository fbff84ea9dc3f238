package obs_test

import (
	"strings"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

func TestProfileChart(t *testing.T) {
	res, err := translate.Translate(cfg.MustBuild(workloads.MustByName("fib-iterative").Parse()), translate.Options{Schema: translate.Schema2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := machine.Run(res.Graph, machine.Config{MemLatency: 4})
	if err != nil {
		t.Fatal(err)
	}
	chart := obs.ProfileChart(out.Stats.Profile, out.Stats.Cycles, 60, 8)
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
	if got := obs.ProfileChart(nil, 0, 10, 4); !strings.Contains(got, "empty") {
		t.Errorf("empty profile chart = %q", got)
	}
	if got := obs.ProfileChart([]int{3}, 1, 0, 0); !strings.Contains(got, "#") {
		t.Errorf("degenerate dims chart = %q", got)
	}
}
