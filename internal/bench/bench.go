// Package bench is the benchmark-trajectory harness behind `ctdf bench`:
// it measures the execution engines on the E11/E12 workload matrix plus
// the simulator-scaling sizes, writes the results as BENCH_machine.json,
// and gates steady-state allocation regressions against the committed
// numbers. The committed seed_baseline.json holds the same matrix
// measured on the pre-overhaul engine (per-cycle sort.Slice scheduling,
// string-keyed monolithic matching store), so every report carries the
// speedup trajectory since the seed. See PERFORMANCE.md.
package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"ctdf"
	"ctdf/internal/workloads"
)

// Case is one benchmark cell: a workload × translation × run
// configuration measured end to end (translate once, Run per iteration).
type Case struct {
	// Name is the stable cell identifier ("e11/fib-iterative/mem-elim").
	Name string
	// Source is the workload program text.
	Source string
	// Opt translates the program; Run executes it.
	Opt ctdf.Options
	Run ctdf.RunConfig
	// SteadyState marks the allocation-gated cells: long-running loop
	// workloads whose per-firing hot path must not allocate, so their
	// allocs/op must stay flat against the committed baseline.
	SteadyState bool
	// Smoke marks cells the fast CI gate (`ctdf bench -smoke`) runs.
	Smoke bool
	// Telemetry attaches a metrics registry to the cell's runs and fills
	// the Result's phase-breakdown cells from it; TelemetryGate holds the
	// instrumented/uninstrumented throughput ratio on the telemetry/
	// pairs.
	Telemetry bool
}

// Matrix returns the benchmark matrix: the E11 schema comparison, the
// E12 engine comparison, and the simulator-scaling sizes of
// BenchmarkScalingSimulate.
func Matrix() []Case {
	var cases []Case
	e11Configs := []struct {
		name string
		opt  ctdf.Options
	}{
		{"schema1", ctdf.Options{Schema: ctdf.Schema1}},
		{"schema2", ctdf.Options{Schema: ctdf.Schema2}},
		{"schema2-opt", ctdf.Options{Schema: ctdf.Schema2Opt}},
		{"mem-elim", ctdf.Options{Schema: ctdf.Schema2Opt, EliminateMemory: true}},
		// The graph-optimizer counterpart of mem-elim: same translation
		// run through internal/opt (fusion, switch sinking, merge
		// collapsing, dead-token elimination). OptGate holds each +opt
		// cell to no-worse cycles/ops than its base cell.
		{"mem-elim+opt", ctdf.Options{Schema: ctdf.Schema2Opt, EliminateMemory: true, Optimize: 1}},
	}
	for _, wn := range []string{"running-example", "fib-iterative", "matmul-2x2-flat", "independent-chains"} {
		w := workloads.MustByName(wn)
		for _, c := range e11Configs {
			cases = append(cases, Case{
				Name:        "e11/" + wn + "/" + c.name,
				Source:      w.Source,
				Opt:         c.opt,
				Run:         ctdf.RunConfig{MemLatency: 4},
				SteadyState: wn == "fib-iterative" && strings.HasPrefix(c.name, "mem-elim"),
				Smoke:       wn == "fib-iterative" || wn == "running-example",
			})
		}
	}
	// The telemetry overhead pair: one workload measured with the
	// registry off and on, otherwise identical. TelemetryGate rides on
	// these two cells in the smoke run.
	fib := workloads.MustByName("fib-iterative")
	for _, on := range []bool{false, true} {
		name := "telemetry/fib-iterative/off"
		if on {
			name = "telemetry/fib-iterative/on"
		}
		cases = append(cases, Case{
			Name:   name,
			Source: fib.Source,
			Opt:    ctdf.Options{Schema: ctdf.Schema2Opt},
			Run:    ctdf.RunConfig{MemLatency: 4},
			Smoke:  true, Telemetry: on,
		})
	}
	nested := workloads.MustByName("nested-loops")
	cases = append(cases,
		Case{
			Name: "e12/nested-loops/machine", Source: nested.Source,
			Opt: ctdf.Options{Schema: ctdf.Schema2Opt}, Run: ctdf.RunConfig{Engine: ctdf.EngineMachine},
			SteadyState: true, Smoke: true,
		},
		Case{
			Name: "e12/nested-loops/channels", Source: nested.Source,
			Opt: ctdf.Options{Schema: ctdf.Schema2Opt}, Run: ctdf.RunConfig{Engine: ctdf.EngineChannels},
		},
	)
	for _, size := range []int{4, 8, 16} {
		w := workloads.Random(4242, size, 3)
		cases = append(cases, Case{
			Name:        fmt.Sprintf("scaling/size=%d", size),
			Source:      w.Source,
			Opt:         ctdf.Options{Schema: ctdf.Schema2Opt},
			Run:         ctdf.RunConfig{},
			SteadyState: size == 16,
			Smoke:       size == 16,
		})
		if size == 16 {
			// Optimized counterpart of the largest scaling cell, so the
			// smoke gate holds the optimizer's non-regression bar
			// (OptGate) on a generated workload too, not just the paper
			// kernels.
			cases = append(cases, Case{
				Name:   fmt.Sprintf("scaling/size=%d+opt", size),
				Source: w.Source,
				Opt:    ctdf.Options{Schema: ctdf.Schema2Opt, Optimize: 1},
				Run:    ctdf.RunConfig{},
				Smoke:  true,
			})
		}
	}
	return cases
}

// WorkerMatrix returns the worker-scaling cells (`ctdf bench -cpu`): the
// wide independent-lane workload — sustained issue width proportional to
// the lane count, the shape the sharded machine is built for — run once
// per requested worker count. Memory elimination keeps the firings pure,
// so the parallel fire phase carries nearly all the work. Every cell is
// part of the smoke subset: the scaling gate (ScalingGate) rides on the
// smoke run in scripts/verify.sh.
func WorkerMatrix(counts []int) []Case {
	w := workloads.Wide(64, 60)
	var cases []Case
	for _, n := range counts {
		// Every scaling cell carries the profiler: the committed
		// BENCH_machine.json records each worker count's phase shares,
		// fire imbalance, and remote-token fraction. Both endpoints of
		// the scaling gate are instrumented, so the ratio stays fair.
		cases = append(cases, Case{
			Name:   fmt.Sprintf("workers/%s/w%d", w.Name, n),
			Source: w.Source,
			Opt:    ctdf.Options{Schema: ctdf.Schema2Opt, EliminateMemory: true},
			Run:    ctdf.RunConfig{Workers: n},
			Smoke:  true, Telemetry: true,
		})
	}
	return cases
}

// Result is one measured cell.
type Result struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	// BestNsPerOp is the fastest single iteration — the noise-robust
	// number the worker-scaling gate compares (see measure).
	BestNsPerOp float64 `json:"best_ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// Cycles and Ops describe one simulated execution of the cell.
	Cycles int `json:"cycles"`
	Ops    int `json:"ops"`
	// CyclesPerSec and FiresPerSec are simulated throughput per wall
	// second (cycles only on the cycle-driven machine).
	CyclesPerSec float64 `json:"cycles_per_sec"`
	FiresPerSec  float64 `json:"fires_per_sec"`
	// AllocsPerFiring is AllocsPerOp spread over the operator firings of
	// one run — the steady-state allocation pressure of the hot path.
	AllocsPerFiring float64 `json:"allocs_per_firing"`
	// SeedNsPerOp and SeedAllocsPerOp are the committed pre-overhaul
	// numbers for this cell (0 when the seed baseline lacks it), and
	// Speedup is SeedNsPerOp/NsPerOp.
	SeedNsPerOp     float64 `json:"seed_ns_per_op,omitempty"`
	SeedAllocsPerOp float64 `json:"seed_allocs_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
	SteadyState     bool    `json:"steady_state,omitempty"`
	// Workers is the sharded-machine worker count of the cell (0 for
	// sequential cells outside the worker matrix).
	Workers int `json:"workers,omitempty"`
	// Telemetry phase cells, filled only on instrumented cells: the
	// share of accumulated busy wall time each BSP phase took across all
	// measured iterations (barrier = coordinator time parked at the two
	// phase barriers), the fire-phase load imbalance (slowest shard over
	// the mean, 1.0 = perfectly balanced), and the fraction of
	// shard-sourced tokens delivered across shards.
	Telemetry        bool    `json:"telemetry,omitempty"`
	SelectShare      float64 `json:"select_share,omitempty"`
	FireShare        float64 `json:"fire_share,omitempty"`
	RetireShare      float64 `json:"retire_share,omitempty"`
	DeliverShare     float64 `json:"deliver_share,omitempty"`
	BarrierShare     float64 `json:"barrier_share,omitempty"`
	FireImbalance    float64 `json:"fire_imbalance,omitempty"`
	RemoteTokenShare float64 `json:"remote_token_share,omitempty"`
}

// Report is the full benchmark-trajectory artifact (BENCH_machine.json).
type Report struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS is the host parallelism the run had available; the
	// worker-scaling gate is host-aware (ScalingGate), so the committed
	// report must record what the numbers were measured against.
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchtime  string   `json:"benchtime"`
	Results    []Result `json:"results"`
	// MaxScalingSpeedup is the speedup vs seed on the largest scaling
	// cell — the headline number EXPERIMENTS.md E16 asserts.
	MaxScalingSpeedup float64 `json:"max_scaling_speedup,omitempty"`
	// WorkerSpeedup is fires/sec at the largest measured worker count
	// over fires/sec at workers=1 on the worker matrix (0 when the run
	// didn't measure it). See SCALING.md for the methodology.
	WorkerSpeedup float64 `json:"worker_speedup,omitempty"`
}

// seedBaseline is the committed measurement of this same matrix on the
// pre-overhaul engine.
//
//go:embed seed_baseline.json
var seedBaselineJSON []byte

type seedEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// SeedBaseline returns the committed pre-overhaul numbers by cell name.
func SeedBaseline() (map[string]seedEntry, error) {
	out := map[string]seedEntry{}
	if err := json.Unmarshal(seedBaselineJSON, &out); err != nil {
		return nil, fmt.Errorf("bench: corrupt seed_baseline.json: %w", err)
	}
	return out, nil
}

// measure times fn until benchtime has elapsed (at least one iteration)
// and reports per-iteration wall time (mean and fastest-iteration) and
// allocation counts. The fastest iteration is what noise-sensitive
// comparisons (the worker-scaling gate) use: on shared CI hosts,
// hypervisor steal time inflates the mean by integer factors, while the
// minimum tracks what the code can actually do.
func measure(fn func() error, benchtime time.Duration) (nsPerOp, bestNsPerOp, allocsPerOp, bytesPerOp float64, iters int, err error) {
	if err := fn(); err != nil { // warmup + validity
		return 0, 0, 0, 0, 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	best := time.Duration(0)
	for elapsed := time.Duration(0); n == 0 || elapsed < benchtime; elapsed = time.Since(start) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, 0, 0, 0, err
		}
		if d := time.Since(t0); n == 0 || d < best {
			best = d
		}
		n++
	}
	total := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(total.Nanoseconds()) / float64(n),
		float64(best.Nanoseconds()),
		float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		n, nil
}

// RunCase measures one cell.
func RunCase(c Case, benchtime time.Duration) (Result, error) {
	p, err := ctdf.Compile(c.Source)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	d, err := p.Translate(c.Opt)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	run := c.Run
	var reg *ctdf.Telemetry
	if c.Telemetry {
		reg = ctdf.NewTelemetry()
		run.Telemetry = reg
	}
	var last *ctdf.Result
	ns, bestNs, allocs, bytes, iters, err := measure(func() error {
		r, err := d.Run(run)
		last = r
		return err
	}, benchtime)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	res := Result{
		Name: c.Name, NsPerOp: ns, BestNsPerOp: bestNs, AllocsPerOp: allocs, BytesPerOp: bytes,
		Iterations: iters, SteadyState: c.SteadyState, Workers: c.Run.Workers,
		Telemetry: c.Telemetry,
	}
	if reg != nil {
		fillPhaseCells(&res, reg)
	}
	if last != nil {
		res.Cycles = last.Cycles
		res.Ops = last.Ops
		if ns > 0 {
			res.CyclesPerSec = float64(last.Cycles) / (ns / 1e9)
			res.FiresPerSec = float64(last.Ops) / (ns / 1e9)
		}
		if last.Ops > 0 {
			res.AllocsPerFiring = allocs / float64(last.Ops)
		}
	}
	return res, nil
}

// RunMatrix measures the matrix (the smoke subset when smokeOnly) plus
// the worker-scaling matrix at the given worker counts (none when cpus
// is empty), and fills in the seed-baseline trajectory and the
// worker-speedup headline.
func RunMatrix(benchtime time.Duration, smokeOnly bool, cpus []int) (*Report, error) {
	seed, err := SeedBaseline()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime.String(),
	}
	cases := Matrix()
	cases = append(cases, WorkerMatrix(cpus)...)
	for _, c := range cases {
		if smokeOnly && !c.Smoke {
			continue
		}
		r, err := RunCase(c, benchtime)
		if err != nil {
			return nil, err
		}
		if s, ok := seed[c.Name]; ok && r.NsPerOp > 0 {
			r.SeedNsPerOp = s.NsPerOp
			r.SeedAllocsPerOp = s.AllocsPerOp
			r.Speedup = s.NsPerOp / r.NsPerOp
		}
		if c.Name == "scaling/size=16" {
			rep.MaxScalingSpeedup = r.Speedup
		}
		rep.Results = append(rep.Results, r)
	}
	if base, best, over := workerEndpoints(rep); base != nil {
		// Informational headline: the largest measured worker count, even
		// when it oversubscribes the host (the gate itself is host-aware).
		top := over
		if top == nil {
			top = best
		}
		if top != nil {
			if b, g := bestFires(base), bestFires(top); b > 0 && g > 0 {
				rep.WorkerSpeedup = g / b
			}
		}
	}
	return rep, nil
}

// fillPhaseCells folds the registry accumulated across a cell's
// iterations into the Result's phase cells. Shares are percentages of
// total busy wall time; the registry sums over every iteration, so they
// describe the cell's average cycle.
func fillPhaseCells(res *Result, reg *ctdf.Telemetry) {
	b := reg.Snapshot().MachineBreakdown()
	sum := func(xs []int64) (n int64) {
		for _, x := range xs {
			n += x
		}
		return n
	}
	fire, deliv := sum(b.FireNs), sum(b.DeliverNs)
	bar := b.BarrierFireNs + b.BarrierDeliverNs
	total := b.SelectNs + b.RetireNs + fire + deliv + bar
	if total == 0 {
		return
	}
	pct := func(ns int64) float64 { return 100 * float64(ns) / float64(total) }
	res.SelectShare = pct(b.SelectNs)
	res.FireShare = pct(fire)
	res.RetireShare = pct(b.RetireNs)
	res.DeliverShare = pct(deliv)
	res.BarrierShare = pct(bar)
	if len(b.FireNs) > 1 && fire > 0 {
		var max int64
		for _, x := range b.FireNs {
			if x > max {
				max = x
			}
		}
		res.FireImbalance = float64(max) * float64(len(b.FireNs)) / float64(fire)
	}
	if b.ShardTokens > 0 {
		res.RemoteTokenShare = float64(b.RemoteTokens) / float64(b.ShardTokens)
	}
}

// bestFires is the cell's fires/sec at its fastest observed iteration —
// the number the scaling comparisons use (see measure).
func bestFires(r *Result) float64 {
	if r.BestNsPerOp <= 0 || r.Ops <= 0 {
		return 0
	}
	return float64(r.Ops) / (r.BestNsPerOp / 1e9)
}

// workerEndpoints picks out of a report's worker matrix: the workers=1
// cell, the largest-worker-count cell that fits the host's core budget
// (the cell the scaling gate scores — a count above GOMAXPROCS cannot
// physically speed up), and the largest oversubscribed cell (gated only
// against the pathology floor).
func workerEndpoints(rep *Report) (base, best, over *Result) {
	for i := range rep.Results {
		r := &rep.Results[i]
		if !strings.HasPrefix(r.Name, "workers/") {
			continue
		}
		switch {
		case r.Workers <= 1:
			base = r
		case r.Workers <= rep.GOMAXPROCS:
			if best == nil || r.Workers > best.Workers {
				best = r
			}
		default:
			if over == nil || r.Workers > over.Workers {
				over = r
			}
		}
	}
	return base, best, over
}

// Scaling-gate floors: minimum best-iteration fires/sec ratio versus
// the workers=1 cell, chosen by how many of the measured workers fit
// the host (see ScalingGate). SCALING.md documents the rationale; the
// doc-sync test in docs_test.go keeps its quoted numbers equal to
// these.
const (
	ScalingFloorFull    = 2.5  // >= 8 usable slots: the acceptance bar
	ScalingFloorHalf    = 0.75 // 4-7 slots: regression tripwire
	ScalingFloorTwo     = 0.35 // 2-3 slots: parity is best case, gate collapse
	ScalingFloorOversub = 0.2  // workers > GOMAXPROCS: pathology floor
)

// ScalingGate checks the worker matrix against host-aware floors. The
// acceptance bar — >=2.5x fires/sec at 8 workers — is only physically
// reachable with 8 cores, so the gate scores the largest worker count
// <= GOMAXPROCS and scales its expectation to the host:
//
//   - with >=8 usable slots the full 2.5x floor applies;
//   - with 4-7 slots the floor is 0.75x: the host cannot demonstrate
//     the scaling the bar protects, so this (and the tiers below) are
//     regression tripwires, not performance claims;
//   - with 2-3 slots the floor is 0.35x — per-cycle phase barriers and
//     sequential merges cost roughly what two cores win back on this
//     engine's token grain (SCALING.md quantifies this), so two-core
//     parity is the realistic best case and only collapse is gated;
//   - worker counts above GOMAXPROCS are informational, gated only
//     against a catastrophic-regression floor (>=0.2x).
//
// All comparisons use each cell's fastest observed iteration (BestNsPerOp)
// rather than the mean: shared CI hosts show multi-x steal-time noise,
// and the minimum is the only statistic stable enough to gate on.
// GOMAXPROCS and per-cell worker counts are recorded in the report so a
// committed BENCH_machine.json states which bar its numbers cleared.
func ScalingGate(rep *Report) []string {
	base, best, over := workerEndpoints(rep)
	if base == nil || bestFires(base) <= 0 {
		return nil
	}
	var violations []string
	check := func(cell *Result, floor float64, kind string) {
		if cell == nil {
			return
		}
		g := bestFires(cell)
		if g <= 0 {
			return
		}
		speedup := g / bestFires(base)
		if speedup < floor {
			violations = append(violations, fmt.Sprintf(
				"%s: best-iteration fires/sec %.2fx of %s is below the %.2fx %s floor (GOMAXPROCS=%d)",
				cell.Name, speedup, base.Name, floor, kind, rep.GOMAXPROCS))
		}
	}
	if best != nil {
		slots := best.Workers
		floor := ScalingFloorTwo
		switch {
		case slots >= 8:
			floor = ScalingFloorFull
		case slots >= 4:
			floor = ScalingFloorHalf
		}
		check(best, floor, "scaling")
	}
	check(over, ScalingFloorOversub, "oversubscription")
	return violations
}

// TelemetryOverheadFloor is the minimum instrumented/uninstrumented
// best-iteration fires/sec ratio TelemetryGate accepts on the
// telemetry/ cell pairs. The probe costs only phase-boundary work and
// nothing per firing: the sequential loop reads the wall clock on one
// cycle in sixteen and accumulates its counters and histograms in plain
// memory, folded into the registry's atomics every sixteen cycles. On
// the short-cycle fib workload (a 60 µs run, so the per-run probe set-up
// shows) the instrumented engine measures 0.79x of the uninstrumented
// one; the floor sits at 0.7 to leave room for shared-host noise while
// still catching a per-cycle clock read or a per-firing instrument.
const TelemetryOverheadFloor = 0.7

// TelemetryGate holds the telemetry overhead tripwire: every
// "telemetry/<workload>/on" cell is compared against its "/off" twin.
func TelemetryGate(rep *Report) []string {
	cells := map[string]*Result{}
	for i := range rep.Results {
		r := &rep.Results[i]
		if strings.HasPrefix(r.Name, "telemetry/") {
			cells[r.Name] = r
		}
	}
	var violations []string
	for name, on := range cells {
		base, ok := strings.CutSuffix(name, "/on")
		if !ok {
			continue
		}
		off, ok := cells[base+"/off"]
		if !ok {
			continue
		}
		b, g := bestFires(off), bestFires(on)
		if b <= 0 || g <= 0 {
			continue
		}
		if ratio := g / b; ratio < TelemetryOverheadFloor {
			violations = append(violations, fmt.Sprintf(
				"%s: instrumented best-iteration fires/sec is %.2fx of %s, below the %.2fx telemetry-overhead floor",
				name, ratio, off.Name, TelemetryOverheadFloor))
		}
	}
	sort.Strings(violations)
	return violations
}

// OptGate is the graph-optimizer non-regression gate: every "+opt"
// cell in the report is compared against its base cell (same name minus
// the suffix). The simulated metrics are deterministic, so they are
// gated exactly — an optimized graph may never take more cycles or fire
// more operators than the graph it was rewritten from. Wall time is
// gated loosely (best iteration within 1.5x of the base cell's): the
// optimized run does strictly less work, so only a real regression —
// e.g. fused-operator evaluation going quadratic — can trip it.
func OptGate(rep *Report) []string {
	base := map[string]*Result{}
	for i := range rep.Results {
		r := &rep.Results[i]
		base[r.Name] = r
	}
	var violations []string
	for _, r := range base {
		bn, ok := strings.CutSuffix(r.Name, "+opt")
		if !ok {
			continue
		}
		b, ok := base[bn]
		if !ok {
			continue
		}
		if r.Cycles > b.Cycles {
			violations = append(violations, fmt.Sprintf(
				"%s: optimized graph takes %d cycles vs %d unoptimized", r.Name, r.Cycles, b.Cycles))
		}
		if r.Ops > b.Ops {
			violations = append(violations, fmt.Sprintf(
				"%s: optimized graph fires %d operators vs %d unoptimized", r.Name, r.Ops, b.Ops))
		}
		if r.BestNsPerOp > 0 && b.BestNsPerOp > 0 && r.BestNsPerOp > 1.5*b.BestNsPerOp {
			violations = append(violations, fmt.Sprintf(
				"%s: best-iteration %.0fns/op is over 1.5x the unoptimized cell's %.0fns/op",
				r.Name, r.BestNsPerOp, b.BestNsPerOp))
		}
	}
	sort.Strings(violations)
	return violations
}

// Gate checks a fresh (smoke) report against the committed
// BENCH_machine.json: every steady-state cell's allocs/op must stay
// within tolerance (a fraction, e.g. 0.25) of the committed number plus
// a small absolute slack for measurement noise. It returns one message
// per violation.
func Gate(fresh, committed *Report, tolerance float64) []string {
	base := map[string]Result{}
	for _, r := range committed.Results {
		base[r.Name] = r
	}
	var violations []string
	for _, r := range fresh.Results {
		if !r.SteadyState {
			continue
		}
		b, ok := base[r.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: steady-state cell missing from committed baseline (rerun `ctdf bench`)", r.Name))
			continue
		}
		limit := b.AllocsPerOp*(1+tolerance) + 16
		if r.AllocsPerOp > limit {
			violations = append(violations, fmt.Sprintf("%s: allocs/op %.1f exceeds committed %.1f (+%d%% tolerance = %.1f)",
				r.Name, r.AllocsPerOp, b.AllocsPerOp, int(tolerance*100), limit))
		}
	}
	return violations
}

// Table renders the report as an aligned text table.
func (rep *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %12s %11s %12s %13s %9s\n",
		"case", "ns/op", "allocs/op", "cycles/sec", "fires/sec", "speedup")
	for _, r := range rep.Results {
		speedup := "-"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(&b, "%-34s %12.0f %11.1f %12.0f %13.0f %9s\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.CyclesPerSec, r.FiresPerSec, speedup)
		if r.Telemetry && r.SelectShare+r.FireShare+r.RetireShare+r.DeliverShare > 0 {
			fmt.Fprintf(&b, "%-34s   select %.0f%%  fire %.0f%%  retire %.0f%%  deliver %.0f%%  barrier %.0f%%",
				"  phases:", r.SelectShare, r.FireShare, r.RetireShare, r.DeliverShare, r.BarrierShare)
			if r.FireImbalance > 0 {
				fmt.Fprintf(&b, "  imbalance %.2fx", r.FireImbalance)
			}
			if r.RemoteTokenShare > 0 {
				fmt.Fprintf(&b, "  remote %.0f%%", 100*r.RemoteTokenShare)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
