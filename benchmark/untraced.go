package main

import (
	"runtime"
	"time"

	"ctdf"
)

// passSample is one untraced pass of a workload: every program taken once
// from source text to a checked final store through the public API.
type passSample struct {
	compile, vet, run time.Duration
	mallocs, bytes    uint64
	counts            counts // summed over the pass
	failed            int
}

// pass runs one pass of w with nothing attached to the program: no spans,
// no telemetry, no observers. Checks happen after the clock stops.
func (w *workload) pass() passSample {
	var s passSample
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range w.programs {
		t0 := time.Now()
		var d *ctdf.Dataflow
		cp, err := ctdf.Compile(p.src)
		if err == nil {
			d, err = cp.Translate(p.opt)
		}
		t1 := time.Now()
		s.compile += t1.Sub(t0)
		if err != nil {
			s.failed++
			continue
		}
		rep := d.Vet()
		t2 := time.Now()
		res, err := d.Run(p.run)
		t3 := time.Now()
		s.vet += t2.Sub(t1)
		s.run += t3.Sub(t2)
		if err != nil {
			s.failed++
			continue
		}
		got := counts{dfgNodes: d.Stats().Nodes, cycles: res.Cycles, firings: res.Ops}
		s.counts.dfgNodes += got.dfgNodes
		s.counts.cycles += got.cycles
		s.counts.firings += got.firings
		if res.Snapshot != p.oracle || !rep.Clean() || got != p.ref {
			s.failed++
		}
	}
	runtime.ReadMemStats(&after)
	s.mallocs = after.Mallocs - before.Mallocs
	s.bytes = after.TotalAlloc - before.TotalAlloc
	return s
}

// endToEnd folds a workload's untraced passes and its set-up times into
// the end-to-end metrics, in the order BENCHMARK.json lists them, the
// times scaled by the phase's host factor.
func endToEnd(w *workload, setUps []time.Duration, passes []passSample, hostFactor float64) []metric {
	ops := float64(len(w.programs))
	series := func(f func(passSample) float64) []float64 {
		xs := make([]float64, len(passes))
		for i, s := range passes {
			xs[i] = f(s)
		}
		return xs
	}
	setUp := make([]float64, len(setUps))
	for i, d := range setUps {
		setUp[i] = d.Seconds()
	}
	// The set-up is repeated only a few times, so its row is the median;
	// every other row is the lower quartile over passes.
	setUpRow := scaled("setup_s", "s", setUp, hostFactor)
	setUpRow.Value, setUpRow.Raw = setUpRow.P50, setUpRow.P50/hostFactor
	return []metric{
		setUpRow,
		scaled("e2e_s", "s", series(func(s passSample) float64 { return (s.compile + s.run).Seconds() }), hostFactor),
		scaled("compile_s", "s", series(func(s passSample) float64 { return s.compile.Seconds() }), hostFactor),
		scaled("vet_s", "s", series(func(s passSample) float64 { return s.vet.Seconds() }), hostFactor),
		scaled("run_s", "s", series(func(s passSample) float64 { return s.run.Seconds() }), hostFactor),
		sampled("dfg_nodes", "count", series(func(s passSample) float64 { return float64(s.counts.dfgNodes) })),
		sampled("sim_cycles", "count", series(func(s passSample) float64 { return float64(s.counts.cycles) })),
		sampled("sim_firings", "count", series(func(s passSample) float64 { return float64(s.counts.firings) })),
		sampled("allocs_per_op", "count", series(func(s passSample) float64 { return float64(s.mallocs) / ops })),
		sampled("alloc_mb_per_op", "MB", series(func(s passSample) float64 { return float64(s.bytes) / 1e6 / ops })),
	}
}
