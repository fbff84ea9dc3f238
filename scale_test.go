package ctdf

import (
	"runtime"
	"testing"

	"ctdf/internal/workloads"
)

// scaleBound is the largest factor by which compile + vet bytes per
// dataflow node may grow when the program doubles. Bytes proportional to
// the graph read 1.0; a table dense in nodes × tokens (or nodes × memory
// operations) reads about 2 wherever the token count grows with the
// program, as it does in both series below.
const scaleBound = 1.25

// TestCompileScalesLinearly holds compile (source text to optimized
// graph) plus Vet to bytes proportional to the graph they produce. It
// measures bytes allocated, never the wall clock, so the reading repeats
// exactly: Random's token count grows with its loop counters, Wide's with
// its two scalars per lane. The sizes double and each doubling must keep
// bytes per dataflow node within scaleBound of the smaller size; the
// first doubling that does not fails the test before a larger size runs.
func TestCompileScalesLinearly(t *testing.T) {
	for _, series := range []struct {
		name string
		gen  func(n int) workloads.Workload
	}{
		{"random", func(n int) workloads.Workload { return workloads.Random(7, n, 3) }},
		{"wide", func(n int) workloads.Workload { return workloads.Wide(n, 4) }},
	} {
		t.Run(series.name, func(t *testing.T) {
			prev := 0.0
			for _, n := range []int{250, 500, 1000, 2000} {
				perNode := compileVetBytesPerNode(t, series.gen(n).Source)
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

// compileVetBytesPerNode compiles src under Schema2Opt with the optimizer,
// vets the graph, and returns the bytes both allocated per dataflow node.
func compileVetBytesPerNode(t *testing.T, src string) float64 {
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
	rep := d.Vet()
	runtime.ReadMemStats(&after)
	if !rep.Clean() {
		t.Fatalf("vet not clean:\n%s", rep)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(d.Stats().Nodes)
}
