package translate

import (
	"testing"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/machine"
	"ctdf/internal/workloads"
)

// --- Aliasing (§5) ---

// legalBindings enumerates a few legal bindings for the paper's X~Z, Y~Z
// alias structure.
func fortranBindings() []interp.Binding {
	return []interp.Binding{
		nil,                  // all distinct
		{"x": "x", "z": "x"}, // CALL F(A, B, A)
		{"y": "y", "z": "y"}, // CALL F(C, D, D)
	}
}

func TestSchema3CorrectUnderEveryBinding(t *testing.T) {
	covers := func(prog *analysis.AliasStructure) map[string]*analysis.Cover {
		return map[string]*analysis.Cover{
			"singleton":  analysis.SingletonCover(prog),
			"class":      analysis.ClassCover(prog),
			"monolithic": analysis.MonolithicCover(prog),
		}
	}
	for _, w := range []workloads.Workload{workloads.FortranAlias} {
		prog := w.Parse()
		as := analysis.NewAliasStructure(prog)
		for name, cover := range covers(as) {
			for _, schema := range []Schema{Schema3, Schema3Opt} {
				for bi, b := range fortranBindings() {
					t.Run(w.Name+"/"+schema.String()+"/"+name, func(t *testing.T) {
						checkEquivalence(t, w, Options{Schema: schema, Cover: cover}, b)
						_ = bi
					})
				}
			}
		}
	}
}

func TestAliasedWorkloadsAllBindings(t *testing.T) {
	cases := []struct {
		w        workloads.Workload
		bindings []interp.Binding
	}{
		{workloads.MustByName("aliased-swap"), fortranBindings()},                             // aliased-swap (x~z, y~z)
		{workloads.MustByName("aliased-arrays"), []interp.Binding{nil, {"p": "p", "q": "p"}}}, // aliased-arrays
	}
	for _, c := range cases {
		for _, b := range c.bindings {
			for _, schema := range []Schema{Schema3, Schema3Opt} {
				t.Run(c.w.Name+"/"+schema.String(), func(t *testing.T) {
					checkEquivalence(t, c.w, Options{Schema: schema}, b)
				})
			}
		}
	}
}

func TestRandomAliasedPrograms(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		w := workloads.RandomAliased(seed, 3, 2)
		bindings := []interp.Binding{nil, {"v0": "v0", "v1": "v0"}}
		for _, b := range bindings {
			t.Run(w.Name, func(t *testing.T) {
				checkEquivalence(t, w, Options{Schema: Schema3}, b)
				checkEquivalence(t, w, Options{Schema: Schema3Opt}, b)
			})
		}
	}
}

func TestSchema2RejectsNothingButSchema3HandlesAliases(t *testing.T) {
	// Schema 2 assumes no aliasing (§3); under a sharing binding it may
	// produce wrong answers — that is exactly why Schema 3 exists. Verify
	// Schema 3 with the class cover gets the aliased case right where the
	// test matters: z's final value must reflect the x~z sharing.
	w := workloads.FortranAlias
	b := interp.Binding{"x": "x", "z": "x"}
	checkEquivalence(t, w, Options{Schema: Schema3, Cover: nil}, b)
}

// --- Memory elimination (§6.1) ---

func TestMemoryEliminationCorrect(t *testing.T) {
	for _, w := range workloads.All() {
		for _, schema := range []Schema{Schema2, Schema2Opt} {
			t.Run(w.Name+"/"+schema.String(), func(t *testing.T) {
				checkEquivalence(t, w, Options{Schema: schema, EliminateMemory: true}, nil)
			})
		}
	}
}

func TestMemoryEliminationRemovesScalarOps(t *testing.T) {
	// In an alias-free scalar program every load and store disappears
	// (§6.1: "memory operations on scalars can be eliminated completely").
	w := workloads.MustByName("fib-iterative") // fib-iterative: scalars only
	g := cfg.MustBuild(w.Parse())
	plain, err := Translate(g, Options{Schema: Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	elim, err := Translate(g, Options{Schema: Schema2Opt, EliminateMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	ps, es := plain.Graph.Stats(), elim.Graph.Stats()
	if ps.Loads == 0 || ps.Stores == 0 {
		t.Fatalf("baseline has no memory ops to eliminate (loads=%d stores=%d)", ps.Loads, ps.Stores)
	}
	if es.Loads != 0 || es.Stores != 0 {
		t.Errorf("after elimination: loads=%d stores=%d, want 0/0", es.Loads, es.Stores)
	}
}

func TestMemoryEliminationKeepsAliasedAndArrayOps(t *testing.T) {
	w := workloads.MustByName("aliased-swap") // aliased-swap
	g := cfg.MustBuild(w.Parse())
	res, err := Translate(g, Options{Schema: Schema2, EliminateMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Graph.Stats()
	if s.Loads == 0 && s.Stores == 0 {
		t.Error("aliased variables must keep their memory operations")
	}
	if len(res.ValueTokens) == 0 {
		t.Error("the unaliased scalar t should still have been eliminated")
	}
	for tok := range res.ValueTokens {
		if tok == "x" || tok == "y" || tok == "z" {
			t.Errorf("aliased variable %s must not be value-eliminated", tok)
		}
	}
}

func TestMemoryEliminationRejectedForSchema1And3(t *testing.T) {
	g := cfg.MustBuild(workloads.RunningExample.Parse())
	if _, err := Translate(g, Options{Schema: Schema1, EliminateMemory: true}); err == nil {
		t.Error("Schema 1 + elimination must be rejected")
	}
	if _, err := Translate(g, Options{Schema: Schema3, EliminateMemory: true}); err == nil {
		t.Error("Schema 3 + elimination must be rejected")
	}
}

// --- Read parallelization (§6.2) ---

func TestParallelReadsCorrect(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			checkEquivalence(t, w, Options{Schema: Schema2Opt, ParallelReads: true}, nil)
			checkEquivalence(t, w, Options{Schema: Schema3, ParallelReads: true}, nil)
		})
	}
}

func TestParallelReadsShortenReadChains(t *testing.T) {
	// read-heavy: 8 loads of the same array in one statement. Sequential
	// threading costs ~8·L on the access line; replicated reads cost ~L.
	w := workloads.MustByName("read-heavy")
	g := cfg.MustBuild(w.Parse())
	seq, err := Translate(g, Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Translate(g, Options{Schema: Schema2, ParallelReads: true})
	if err != nil {
		t.Fatal(err)
	}
	lat := 8
	so, err := machine.Run(seq.Graph, machine.Config{MemLatency: lat})
	if err != nil {
		t.Fatal(err)
	}
	po, err := machine.Run(par.Graph, machine.Config{MemLatency: lat})
	if err != nil {
		t.Fatal(err)
	}
	if po.Stats.Cycles >= so.Stats.Cycles {
		t.Errorf("parallel reads did not shorten the critical path: %d vs %d cycles",
			po.Stats.Cycles, so.Stats.Cycles)
	}
	// A synch tree collects the replicated reads.
	if par.Graph.CountKind(dfg.Synch) == 0 {
		t.Error("expected synch trees collecting parallel read completions")
	}
}

// --- Array store parallelization (§6.3, Figure 14) ---

func TestFindParallelStoresOnFig14(t *testing.T) {
	g := cfg.MustBuild(workloads.Fig14ArrayLoop.Parse())
	tg, loops, err := cfg.InsertLoopControl(g)
	if err != nil {
		t.Fatal(err)
	}
	ps := FindParallelStores(tg, loops)
	if len(ps) != 1 {
		t.Fatalf("found %d parallel stores, want 1", len(ps))
	}
	if ps[0].Array != "x" || ps[0].IndexVar != "i" {
		t.Errorf("found %+v, want array x indexed by i", ps[0])
	}
}

func TestFindParallelStoresRejectsDependent(t *testing.T) {
	cases := []string{
		// Read of the array in the loop.
		"var i\narray x[12]\nstart: i := i + 1\nx[i] := x[i-1]\nif i < 10 then goto start else goto end\n",
		// Index is not an induction variable.
		"var i, j\narray x[12]\nstart: i := i + 1\nx[j] := 1\nif i < 10 then goto start else goto end\n",
		// Induction variable updated twice.
		"var i\narray x[30]\nstart: i := i + 1\ni := i + 1\nx[i] := 1\nif i < 20 then goto start else goto end\n",
		// Conditional induction update: may repeat an index.
		"var i, w\narray x[12]\nstart: if w == 0 { i := i + 1 }\nx[i] := 1\nw := w + 1\nif w < 10 then goto start else goto end\n",
	}
	for _, src := range cases {
		w := workloads.Workload{Name: "dep", Source: src}
		g := cfg.MustBuild(w.Parse())
		tg, loops, err := cfg.InsertLoopControl(g)
		if err != nil {
			t.Fatal(err)
		}
		if ps := FindParallelStores(tg, loops); len(ps) != 0 {
			t.Errorf("dependent loop %q wrongly accepted: %+v", src, ps)
		}
		// And translation with the option on must still be correct.
		checkEquivalence(t, w, Options{Schema: Schema2, ParallelArrayStores: true}, nil)
	}
}

func TestParallelStoresOverlapInTime(t *testing.T) {
	// With store latency L ≫ 1, the sequential loop needs ≥ N·L cycles for
	// N stores; the parallelized loop pipelines them. Memory elimination
	// (§6.1) is applied to both sides so the induction variable's own
	// loads/stores do not dominate the iteration time — the paper's
	// transformations are designed to compose.
	g := cfg.MustBuild(workloads.Fig14ArrayLoop.Parse())
	seq, err := Translate(g, Options{Schema: Schema2Opt, EliminateMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Translate(g, Options{Schema: Schema2Opt, EliminateMemory: true, ParallelArrayStores: true})
	if err != nil {
		t.Fatal(err)
	}
	lat := 20
	so, err := machine.Run(seq.Graph, machine.Config{MemLatency: lat})
	if err != nil {
		t.Fatal(err)
	}
	po, err := machine.Run(par.Graph, machine.Config{MemLatency: lat, DetectRaces: true})
	if err != nil {
		t.Fatal(err)
	}
	n := 10
	if so.Stats.Cycles < n*lat {
		t.Errorf("sequential stores should cost at least N·L = %d cycles, got %d", n*lat, so.Stats.Cycles)
	}
	if po.Stats.Cycles >= so.Stats.Cycles {
		t.Errorf("parallelized stores not faster: %d vs %d cycles", po.Stats.Cycles, so.Stats.Cycles)
	}
}

// --- Composition of all §6 transformations ---

func TestAllTransformsComposed(t *testing.T) {
	opt := Options{
		Schema:              Schema2Opt,
		EliminateMemory:     true,
		ParallelReads:       true,
		ParallelArrayStores: true,
	}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			checkEquivalence(t, w, opt, nil)
		})
	}
	for seed := int64(30); seed <= 45; seed++ {
		w := workloads.Random(seed, 4, 2)
		t.Run(w.Name, func(t *testing.T) {
			checkEquivalence(t, w, opt, nil)
		})
	}
}

// --- Determinacy ---

func TestDeterminacyUnderRandomScheduling(t *testing.T) {
	// Dataflow execution must produce the same final state no matter the
	// issue order (the determinacy property the schemas rely on).
	for _, w := range []workloads.Workload{workloads.RunningExample, workloads.MustByName("nested-loops"), workloads.MustByName("matmul-2x2-flat")} {
		g := cfg.MustBuild(w.Parse())
		for _, opt := range allSchemas {
			res, err := Translate(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			base, err := machine.Run(res.Graph, machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := base.Store.Snapshot()
			for seed := int64(1); seed <= 5; seed++ {
				out, err := machine.Run(res.Graph, machine.Config{RandomSeed: seed, Processors: 2})
				if err != nil {
					t.Fatalf("%s/%v seed %d: %v", w.Name, opt.Schema, seed, err)
				}
				if got := out.Store.Snapshot(); got != want {
					t.Errorf("%s/%v seed %d: nondeterministic result", w.Name, opt.Schema, seed)
				}
			}
		}
	}
}
