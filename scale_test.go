package ctdf

import (
	"runtime"
	"testing"

	"ctdf/internal/vet"
	"ctdf/internal/workloads"
)

// scaleBound is the largest factor by which compile + vet bytes per
// dataflow node, or a work count per node, may grow when the program
// doubles. Bytes or work proportional to the graph read 1.0; a table dense
// in nodes × tokens (or nodes × memory operations), or a loop over every
// pair of them, reads about 2 wherever the token count grows with the
// program, as it does in both series below.
const scaleBound = 1.25

// scaleSeries are the two program families the scale tests double:
// Random's token count grows with its loop counters, Wide's with its two
// scalars per lane.
var scaleSeries = []struct {
	name string
	gen  func(n int) workloads.Workload
}{
	{"random", func(n int) workloads.Workload { return workloads.Random(7, n, 3) }},
	{"wide", func(n int) workloads.Workload { return workloads.Wide(n, 4) }},
}

// scaleRun is what one compile + vet of a series program measured.
type scaleRun struct {
	bytesPerNode float64
	nodes        int
	work         vet.Work
}

// scaleRuns memoizes the runs by series and size, so that the bytes and
// the work tests read the same compiles.
var scaleRuns = map[string]map[int]scaleRun{}

func scaleRunOf(t *testing.T, series string, gen func(int) workloads.Workload, n int) scaleRun {
	t.Helper()
	if r, ok := scaleRuns[series][n]; ok {
		return r
	}
	r := compileVet(t, gen(n).Source)
	if scaleRuns[series] == nil {
		scaleRuns[series] = map[int]scaleRun{}
	}
	scaleRuns[series][n] = r
	return r
}

// TestCompileScalesLinearly holds compile (source text to optimized
// graph) plus Vet to bytes proportional to the graph they produce. It
// measures bytes allocated, never the wall clock, so the reading repeats
// exactly. The sizes double and each doubling must keep bytes per
// dataflow node within scaleBound of the smaller size; the first doubling
// that does not fails the test before a larger size runs.
func TestCompileScalesLinearly(t *testing.T) {
	for _, series := range scaleSeries {
		t.Run(series.name, func(t *testing.T) {
			prev := 0.0
			for _, n := range []int{250, 500, 1000, 2000} {
				perNode := scaleRunOf(t, series.name, series.gen, n).bytesPerNode
				t.Logf("n=%d: %.0f bytes per node", n, perNode)
				if prev > 0 && perNode > scaleBound*prev {
					t.Fatalf("n=%d: %.0f bytes per node is %.2f× n=%d's %.0f, bound %.2f×",
						n, perNode, perNode/prev, n/2, prev, scaleBound)
				}
				prev = perNode
			}
		})
	}
}

// TestCompileWorkScalesLinearly reads vet's work counts in the same
// compiles as TestCompileScalesLinearly, one size further, per dataflow
// node, and holds each asserted count within scaleBound per doubling: the
// ordering check's line walks, the recomputed placement's need-row
// entries, CD+ worklist and source-vector cells, and the merge arms the
// source-vectors pass judges. The guard table's
// counts are logged only: a guard keeps one arm per loop its tokens have
// left, so on Random its sets grow with the program, and joining two that
// differ costs what they differ by (ROADMAP item 15). The ordering check
// must never fall back to its reachability sweep on these translator-built
// graphs.
func TestCompileWorkScalesLinearly(t *testing.T) {
	counters := []struct {
		name   string
		of     func(vet.Work) int
		assert bool
	}{
		{"order-steps", func(w vet.Work) int { return w.OrderSteps }, true},
		{"need-entries", func(w vet.Work) int { return w.NeedEntries }, true},
		{"cd-pops", func(w vet.Work) int { return w.CDPops }, true},
		{"sv-cells", func(w vet.Work) int { return w.SVCells }, true},
		{"merge-arms", func(w vet.Work) int { return w.MergeArms }, true},
		{"guard-cons", func(w vet.Work) int { return w.GuardCons }, false},
		{"guard-steps", func(w vet.Work) int { return w.GuardSteps }, false},
	}
	for _, series := range scaleSeries {
		t.Run(series.name, func(t *testing.T) {
			prev := make([]float64, len(counters))
			for _, n := range []int{250, 500, 1000, 2000, 4000} {
				r := scaleRunOf(t, series.name, series.gen, n)
				if r.work.Fallbacks != 0 {
					t.Errorf("n=%d: the ordering check fell back to its reachability sweep %d times", n, r.work.Fallbacks)
				}
				for i, c := range counters {
					perNode := float64(c.of(r.work)) / float64(r.nodes)
					t.Logf("n=%d %s: %d, %.2f per node", n, c.name, c.of(r.work), perNode)
					if c.assert && prev[i] > 0 && perNode > scaleBound*prev[i] {
						t.Errorf("n=%d: %s %.2f per node is %.2f× n=%d's %.2f, bound %.2f×",
							n, c.name, perNode, perNode/prev[i], n/2, prev[i], scaleBound)
					}
					prev[i] = perNode
				}
			}
		})
	}
}

// compileVet compiles src under Schema2Opt with the optimizer, vets the
// graph, and returns the bytes both allocated per dataflow node and vet's
// work counts.
func compileVet(t *testing.T, src string) scaleRun {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Translate(Options{Schema: Schema2Opt, Optimize: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, work := vet.Measure(d.res.Graph, d.res)
	runtime.ReadMemStats(&after)
	if !rep.Clean() {
		t.Fatalf("vet not clean:\n%s", rep)
	}
	nodes := d.Stats().Nodes
	return scaleRun{float64(after.TotalAlloc-before.TotalAlloc) / float64(nodes), nodes, work}
}
