package machine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/machcheck"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

func translateWorkload(t *testing.T, w workloads.Workload, opt translate.Options) *translate.Result {
	t.Helper()
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestProcessorsThrottleIssue(t *testing.T) {
	res := translateWorkload(t, workloads.MustByName("independent-chains"), translate.Options{Schema: translate.Schema2})
	unlimited, err := Run(res.Graph, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Run(res.Graph, Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Stats.MaxParallelism != 1 {
		t.Errorf("P=1 issued %d ops in one cycle", p1.Stats.MaxParallelism)
	}
	if p1.Stats.Cycles <= unlimited.Stats.Cycles {
		t.Errorf("P=1 (%d cycles) should be slower than unlimited (%d)", p1.Stats.Cycles, unlimited.Stats.Cycles)
	}
	if p1.Stats.Ops != unlimited.Stats.Ops {
		t.Errorf("total work changed with processor count: %d vs %d", p1.Stats.Ops, unlimited.Stats.Ops)
	}
	if p1.Store.Snapshot() != unlimited.Store.Snapshot() {
		t.Error("final state depends on processor count")
	}
}

func TestMemLatencyStretchesMemoryChains(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema1})
	l1, err := Run(res.Graph, Config{MemLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	l10, err := Run(res.Graph, Config{MemLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Schema 1 serializes all memory operations, so the critical path must
	// grow by roughly (L-1) per memory operation.
	minGrowth := (10 - 1) * l1.Stats.MemOps
	if l10.Stats.Cycles-l1.Stats.Cycles < minGrowth {
		t.Errorf("latency 10 grew path by %d cycles, want at least %d",
			l10.Stats.Cycles-l1.Stats.Cycles, minGrowth)
	}
	if l10.Stats.MemOps != l1.Stats.MemOps {
		t.Errorf("memory op count changed with latency")
	}
}

func TestParallelismProfileSumsToOps(t *testing.T) {
	res := translateWorkload(t, workloads.MustByName("nested-loops"), translate.Options{Schema: translate.Schema2})
	out, err := Run(res.Graph, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range out.Stats.Profile {
		sum += c
	}
	if sum != out.Stats.Ops {
		t.Errorf("profile sums to %d, ops = %d", sum, out.Stats.Ops)
	}
	if out.Stats.AvgParallelism() <= 0 {
		t.Error("average parallelism must be positive")
	}
	if out.Stats.MaxParallelism < 1 {
		t.Error("max parallelism must be at least 1")
	}
}

func TestSchema2MoreParallelThanSchema1(t *testing.T) {
	// The paper's headline claim: per-variable access tokens expose
	// parallelism across statements that the single-token schema cannot.
	w := workloads.MustByName("independent-chains")
	s1 := translateWorkload(t, w, translate.Options{Schema: translate.Schema1})
	s2 := translateWorkload(t, w, translate.Options{Schema: translate.Schema2})
	o1, err := Run(s1.Graph, Config{MemLatency: 4})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Run(s2.Graph, Config{MemLatency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if o2.Stats.Cycles >= o1.Stats.Cycles {
		t.Errorf("Schema 2 (%d cycles) not faster than Schema 1 (%d)", o2.Stats.Cycles, o1.Stats.Cycles)
	}
	if o2.Stats.AvgParallelism() <= o1.Stats.AvgParallelism() {
		t.Errorf("Schema 2 parallelism %.2f not above Schema 1 %.2f",
			o2.Stats.AvgParallelism(), o1.Stats.AvgParallelism())
	}
}

func TestOptimizedNoSlowerThanSchema2(t *testing.T) {
	for _, w := range workloads.All() {
		s2 := translateWorkload(t, w, translate.Options{Schema: translate.Schema2})
		so := translateWorkload(t, w, translate.Options{Schema: translate.Schema2Opt})
		o2, err := Run(s2.Graph, Config{MemLatency: 4})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		oo, err := Run(so.Graph, Config{MemLatency: 4})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if oo.Stats.Cycles > o2.Stats.Cycles {
			t.Errorf("%s: optimized construction slower: %d vs %d cycles", w.Name, oo.Stats.Cycles, o2.Stats.Cycles)
		}
		if so.Graph.CountKind(dfg.Switch) > s2.Graph.CountKind(dfg.Switch) {
			t.Errorf("%s: optimized construction has more switches (%d) than Schema 2 (%d)",
				w.Name, so.Graph.CountKind(dfg.Switch), s2.Graph.CountKind(dfg.Switch))
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A hand-built graph with a synch that never receives its second
	// input: start feeds port 0 only; port 1's producer (a switch arm that
	// never fires) starves it.
	prog := lang.MustParse("var x\n")
	g := dfg.NewGraph(prog)
	start := g.Add(&dfg.Node{Kind: dfg.Start})
	end := g.Add(&dfg.Node{Kind: dfg.End, NIns: 1})
	sw := g.Add(&dfg.Node{Kind: dfg.Switch})
	sy := g.Add(&dfg.Node{Kind: dfg.Synch, NIns: 2})
	c := g.Add(&dfg.Node{Kind: dfg.Const, Val: 1})
	g.Connect(start.ID, 0, c.ID, 0, true)
	g.Connect(start.ID, 0, sw.ID, 0, true)
	g.Connect(c.ID, 0, sw.ID, 1, false)
	g.Connect(sw.ID, 0, sy.ID, 0, true) // true arm fires
	g.Connect(sw.ID, 1, sy.ID, 1, true) // false arm never does
	g.Connect(sy.ID, 0, end.ID, 0, true)
	out, err := Run(g, Config{})
	if !errors.Is(err, machcheck.ErrDeadlock) {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want a deadlock report", err)
	}
	var ce *machcheck.Error
	if !errors.As(err, &ce) || len(ce.Stuck) == 0 {
		t.Errorf("deadlock error carries no stuck-token diagnostics: %v", err)
	}
	if out == nil {
		t.Error("aborted run returned no partial outcome")
	}
}

func TestDuplicateTokenDetected(t *testing.T) {
	prog := lang.MustParse("var x\n")
	g := dfg.NewGraph(prog)
	start := g.Add(&dfg.Node{Kind: dfg.Start})
	end := g.Add(&dfg.Node{Kind: dfg.End, NIns: 1})
	sy := g.Add(&dfg.Node{Kind: dfg.Synch, NIns: 2})
	// Two start arcs into the same synch port: the second token collides.
	g.Connect(start.ID, 0, sy.ID, 0, true)
	g.Connect(start.ID, 0, sy.ID, 0, true)
	g.Connect(sy.ID, 0, end.ID, 0, true)
	// Validation rejects this up front.
	if err := g.Validate(); err == nil {
		t.Error("Validate should reject a doubly-fed synch port")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	res := translateWorkload(t, workloads.MustByName("fib-iterative"), translate.Options{Schema: translate.Schema2})
	if _, err := Run(res.Graph, Config{MaxCycles: 3}); err == nil {
		t.Error("MaxCycles must abort long executions")
	}
}

func TestEndValuesForEliminatedVariables(t *testing.T) {
	w := workloads.Workload{Name: "sum", Source: "var a, b, s\na := 4\nb := 38\ns := a + b\n"}
	res := translateWorkload(t, w, translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true})
	out, err := Run(res.Graph, Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := translate.FinalSnapshot(res, out.Store, out.EndValues)
	if !strings.Contains(snap, "s=42") {
		t.Errorf("final snapshot missing s=42:\n%s", snap)
	}
}

func TestBindingAffectsResults(t *testing.T) {
	w := workloads.FortranAlias
	res := translateWorkload(t, w, translate.Options{Schema: translate.Schema3})
	id, err := Run(res.Graph, Config{})
	if err != nil {
		t.Fatal(err)
	}
	xz, err := Run(res.Graph, Config{Binding: interp.Binding{"x": "x", "z": "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if id.Store.Snapshot() == xz.Store.Snapshot() {
		t.Error("sharing x and z must change the result of the §5 example")
	}
	// And each must match the interpreter under the same binding.
	g := cfg.MustBuild(w.Parse())
	for _, b := range []interp.Binding{nil, {"x": "x", "z": "x"}} {
		want, err := interp.Run(g, interp.Options{Binding: b})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(res.Graph, Config{Binding: b})
		if err != nil {
			t.Fatal(err)
		}
		if got.Store.Snapshot() != want.Store.Snapshot() {
			t.Errorf("binding %v: machine disagrees with interpreter", b)
		}
	}
}

func TestRaceDetectorUnit(t *testing.T) {
	prog := lang.MustParse("var x, z\narray a[4]\nalias x ~ z\nx := 1\n")
	r := newRaceDetector(prog, interp.Binding{"x": "x", "z": "x"})

	// Two concurrent reads: fine.
	rel1, err := r.acquire("x", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := r.acquire("x", -1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Write overlapping reads: race.
	if _, err := r.acquire("x", -1, true); err == nil {
		t.Error("write over in-flight reads must be a race")
	}
	// Aliased name sharing storage: also a race.
	if _, err := r.acquire("z", -1, true); err == nil {
		t.Error("write via alias over in-flight reads must be a race")
	}
	rel1()
	rel2()
	relW, err := r.acquire("x", -1, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.acquire("z", -1, false); err == nil {
		t.Error("read via alias over in-flight write must be a race")
	}
	relW()

	// Distinct array elements never conflict.
	relA, err := r.acquire("a", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.acquire("a", 1, true); err != nil {
		t.Errorf("distinct elements flagged: %v", err)
	}
	relA()
}

// TestTinyDeadlineAbortsPromptly pins the adaptive deadline sampling: the
// wall clock is consulted every deadlineStride schedulable units, so a
// wide run aborts within a bounded number of firings of the deadline
// expiring. The retired sampling scheme checked only at cycle numbers
// divisible by 1024 — this run ends after a few hundred cycles, so it
// would never have been sampled and would have run to completion.
func TestTinyDeadlineAbortsPromptly(t *testing.T) {
	res := translateWorkload(t, workloads.Wide(512, 40), translate.Options{Schema: translate.Schema2Opt})
	full, err := Run(res.Graph, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Cycles >= 1024 {
		t.Fatalf("the run takes %d cycles; it must end before the retired scheme's first sample", full.Stats.Cycles)
	}
	out, err := Run(res.Graph, Config{Deadline: time.Millisecond})
	if !errors.Is(err, machcheck.ErrDeadline) {
		t.Fatalf("want %v, got err=%v", machcheck.ErrDeadline, err)
	}
	if out.Stats.Ops >= full.Stats.Ops {
		t.Errorf("deadline abort after %d of the run's %d firings", out.Stats.Ops, full.Stats.Ops)
	}
	t.Logf("aborted after %d of %d firings (%d cycles)", out.Stats.Ops, full.Stats.Ops, full.Stats.Cycles)
}

// TestInvalidConfigRejected checks every negative knob is rejected up
// front with a typed InvalidConfig machine check and no partial outcome,
// instead of being silently clamped or wedging the run.
func TestInvalidConfigRejected(t *testing.T) {
	res := translateWorkload(t, workloads.MustByName("straightline"), translate.Options{Schema: translate.Schema2Opt})
	bad := []Config{
		{Processors: -1},
		{MemLatency: -2},
		{MaxCycles: -3},
		{MaxOps: -4},
		{Deadline: -time.Second},
	}
	for _, c := range bad {
		out, err := Run(res.Graph, c)
		if !errors.Is(err, machcheck.ErrInvalidConfig) {
			t.Errorf("config %+v: want ErrInvalidConfig, got %v", c, err)
		}
		if out != nil {
			t.Errorf("config %+v: rejected config must not produce an outcome, got %+v", c, out)
		}
	}
}
