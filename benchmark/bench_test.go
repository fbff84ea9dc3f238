package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"testing"
)

func TestQuantilesAndSummary(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	s := summarize(xs)
	if s.P25 != 2 || s.P50 != 3 || s.P75 != 4 || s.N != 5 {
		t.Errorf("summarize(%v) = %+v", xs, s)
	}
	if s.HiPct != 50 || s.Hi != 3 {
		t.Errorf("5 samples leave fewer than ten beyond any percentile: got p%d = %v", s.HiPct, s.Hi)
	}
	if got := quantile([]float64{10, 20}, 0.25); got != 12.5 {
		t.Errorf("quantile interpolates: got %v, want 12.5", got)
	}
	var many []float64
	for i := 0; i <= 40; i++ {
		many = append(many, float64(i))
	}
	if s := summarize(many); s.HiPct != 75 || s.Hi != 30 {
		t.Errorf("41 samples: the highest percentile with ten beyond it is p75 = 30, got p%d = %v", s.HiPct, s.Hi)
	}
	if s := summarize(nil); s.P25 != 0 || s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestLogLogSlope(t *testing.T) {
	xs := []float64{100, 400, 1600}
	ys := []float64{1, 32, 1024} // y = (x/100)^2.5
	if got := logLogSlope(xs, ys); got < 2.499 || got > 2.501 {
		t.Errorf("slope = %v, want 2.5", got)
	}
}

func TestJudgeBounds(t *testing.T) {
	row := func(p25, p75 float64) metric {
		return metric{Value: p25, summary: summary{P25: p25, P75: p75}}
	}
	parent := row(1.00, 1.04)
	for _, c := range []struct {
		name   string
		change metric
		want   verdict
	}{
		{"better", row(0.90, 0.95), verdictOK},
		{"exactly at the bound", row(1.10, 1.20), verdictOK},
		{"beyond the bound, ranges apart", row(1.11, 1.20), verdictRegressed},
		{"beyond the bound, ranges overlap", metric{Value: 1.11, summary: summary{P25: 1.03, P75: 1.2}}, verdictUnresolved},
	} {
		if got := judge(parent, c.change, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// A count has no spread, so any growth beyond its bound regresses.
	if got := judge(row(5000, 5000), row(5006, 5006), 0.001); got != verdictRegressed {
		t.Errorf("count +6 of 5000 under a 0.1%% bound: %s", got)
	}
}

// TestSmokeEmitsTheManifest holds the benchmark to BENCHMARK.json: every
// workload and every metric it names is emitted exactly once, under the
// unit it states, and nothing else is.
func TestSmokeEmitsTheManifest(t *testing.T) {
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &man); err != nil {
		t.Fatal(err)
	}
	res, spans, err := measure(1, 0, "all", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Error("the traced phase recorded no spans")
	}
	if len(res.Workloads) != len(man.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json names %d", len(res.Workloads), len(man.Workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range res.Workloads {
		if w.Name != man.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, w.Name, man.Workloads[i].Name)
		}
		if w.FailedShare != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w.Name, w.Failed, w.Attempted)
		}
		for _, group := range []struct {
			rows []metric
			want []struct{ Name, Unit string }
		}{{w.EndToEnd, man.EndToEnd}, {w.PerLayer, man.PerLayer}} {
			if len(group.rows) != len(group.want) {
				t.Errorf("%s: %d rows, BENCHMARK.json names %d", w.Name, len(group.rows), len(group.want))
				continue
			}
			for j, m := range group.rows {
				if m.Name != group.want[j].Name || m.Unit != group.want[j].Unit {
					t.Errorf("%s row %d is %s [%s], BENCHMARK.json says %s [%s]", w.Name, j, m.Name, m.Unit, group.want[j].Name, group.want[j].Unit)
				}
				if !nameRE.MatchString(m.Name) {
					t.Errorf("%s: metric name %q", w.Name, m.Name)
				}
			}
		}
		for _, m := range w.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s %s = %v: end-to-end metrics are never 0", w.Name, m.Name, m.Value)
			}
		}
	}
	seq, sharded := res.Workloads[2], res.Workloads[3]
	for _, name := range []string{"dfg_nodes", "sim_cycles", "sim_firings"} {
		a, _ := findMetric(seq.EndToEnd, name)
		b, _ := findMetric(sharded.EndToEnd, name)
		if a.Value != b.Value || a.P25 != a.P75 {
			t.Errorf("%s: %v sequential (p75 %v), %v sharded", name, a.Value, a.P75, b.Value)
		}
	}
}

// TestSeedVariesTextNotWork pins the property the bounds rest on: another
// seed gives other program text and another final store, and the same
// graph sizes, cycles and firings.
func TestSeedVariesTextNotWork(t *testing.T) {
	a, b := buildWorkloads(1, smokeSizes), buildWorkloads(2, smokeSizes)
	for i := range a {
		if _, err := a[i].setUp(); err != nil {
			t.Fatal(err)
		}
		if _, err := b[i].setUp(); err != nil {
			t.Fatal(err)
		}
		byName := map[string]*program{}
		for _, p := range a[i].programs {
			byName[p.name] = p
		}
		textDiffers, storeDiffers := false, false
		for _, q := range b[i].programs {
			p := byName[q.name]
			if p == nil {
				t.Fatalf("%s: seed 2 has a program %s that seed 1 lacks", a[i].name, q.name)
			}
			textDiffers = textDiffers || p.src != q.src
			storeDiffers = storeDiffers || p.oracle != q.oracle
			if p.ref != q.ref {
				t.Errorf("%s %s: counts %+v under seed 1, %+v under seed 2", a[i].name, p.name, p.ref, q.ref)
			}
		}
		if !textDiffers || !storeDiffers {
			t.Errorf("%s: seeds 1 and 2 give the same text (%v) or the same stores (%v)", a[i].name, !textDiffers, !storeDiffers)
		}
	}
	if again := buildWorkloads(1, smokeSizes); again[0].programs[0].src != a[0].programs[0].src {
		t.Error("the same seed gave different programs")
	}
}

// TestWrongStoreIsCountedAsFailed corrupts what set-up learned and checks
// that both kinds of pass count the op as failed instead of timing it as
// if nothing had happened.
func TestWrongStoreIsCountedAsFailed(t *testing.T) {
	w := buildWorkloads(1, smokeSizes)[2]
	if _, err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	if s := w.pass(); s.failed != 0 {
		t.Fatalf("untouched oracle: %d ops failed", s.failed)
	}
	if _, failed := rec.tracedPass(w); failed != 0 {
		t.Fatalf("untouched oracle: %d traced ops failed", failed)
	}
	w.programs[0].oracle += "x=1\n"
	if s := w.pass(); s.failed != 1 {
		t.Errorf("corrupted oracle: %d ops failed in the untraced pass, want 1", s.failed)
	}
	if _, failed := rec.tracedPass(w); failed != 1 {
		t.Errorf("corrupted oracle: %d ops failed in the traced pass, want 1", failed)
	}
	w.programs[1].ref.firings++
	if s := w.pass(); s.failed != 2 {
		t.Errorf("drifted firing count: %d ops failed, want 2", s.failed)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64, failed int) string {
		rows := []metric{{Name: "run_s", Unit: "s", Value: scale, summary: summary{P25: scale, P75: scale * 1.01}}}
		r := results{Workloads: []workloadResult{{Name: "w", Attempted: 10, Failed: failed, FailedShare: float64(failed) / 10, EndToEnd: rows}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	man := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(man, map[string]any{"end_to_end": []map[string]any{{"name": "run_s", "bound": 0.1}}}); err != nil {
		t.Fatal(err)
	}
	base := write("a.json", 1, 0)
	for _, c := range []struct {
		name string
		path string
		want int
	}{
		{"same", write("same.json", 1.05, 0), 0},
		{"slower", write("slower.json", 1.2, 0), 1},
		{"failed ops", write("failed.json", 1, 1), 1},
		{"missing file", filepath.Join(dir, "none.json"), 2},
	} {
		var out bytes.Buffer
		if got := compareFiles(&out, man, base, c.path); got != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}
