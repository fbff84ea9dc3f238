package vet_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/lang"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
	"ctdf/internal/workloads"
)

// diffCompile holds one translation, as built and (when optimize is set)
// after the graph optimizer, to the reference compile side: the
// loop-controlled CFG and its loops, switch placement, source vectors
// and emission order, and the optimized graph's text. It returns how
// many dataflow graphs it diffed; zero when the schema rejects o.
func diffCompile(t *testing.T, label string, g *cfg.Graph, o translate.Options, optimize bool) int {
	res, err := translate.Translate(g, o)
	if err != nil {
		return 0
	}
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s/%+v: %s differs from the reference\n got %v\nwant %v", label, o, what, got, want)
	}

	g0, _, err := cfg.MakeReducible(g)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantCFG, wantLoops := refInsertLoopControl(g0)
	if !reflect.DeepEqual(res.CFG.Nodes, wantCFG.Nodes) {
		fail("loop-controlled CFG", res.CFG, wantCFG)
	}
	if !reflect.DeepEqual(res.Loops, wantLoops) {
		fail("loops", res.Loops, wantLoops)
	}

	need, placement := refNeed(res), refPlacementOf(res.Plan.Placement)
	if o.Schema == translate.Schema2Opt || o.Schema == translate.Schema3Opt {
		got := placement
		need, placement = refPlaceWithLoopControl(res.CFG, res.Loops, need)
		if !reflect.DeepEqual(got, placement) {
			fail("switch placement", got, placement)
		}
	}
	want, err := refComputeSourceVectors(res.CFG, res.Loops, res.Universe, need, placement)
	if err != nil {
		t.Fatalf("%s/%+v: reference source vectors: %v", label, o, err)
	}
	sv, err := res.Plan.SourceVectors()
	if err != nil {
		t.Fatalf("%s/%+v: source vectors: %v", label, o, err)
	}
	if !reflect.DeepEqual(sv.Order, want.order) {
		fail("topological order", sv.Order, want.order)
	}
	loopNeed := map[int]map[string]bool{}
	for id, n := range res.CFG.Nodes {
		if n.Kind == cfg.KindLoopEntry || n.Kind == cfg.KindLoopExit {
			loopNeed[id] = map[string]bool{}
			for _, t := range sv.LoopNeed(id) {
				loopNeed[id][res.Universe[t]] = true
			}
		}
	}
	if !reflect.DeepEqual(loopNeed, want.loopNeed) {
		fail("loop needs", loopNeed, want.loopNeed)
	}
	same := func(a, b []analysis.Source) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	// Token by token: the entries the translator does not keep are
	// recomputed a token at a time.
	for t, tok := range res.Universe {
		for id := range res.CFG.Nodes {
			if got, want := sv.Sources(id, int32(t)), want.sv[id][tok]; !same(got, want) {
				fail(fmt.Sprintf("SV_n%d(%s)", id, tok), got, want)
			}
			if got, want := sv.BackSources(id, int32(t)), want.back[id][tok]; !same(got, want) {
				fail(fmt.Sprintf("back SV_n%d(%s)", id, tok), got, want)
			}
		}
	}
	if !optimize {
		return 1
	}

	ref := *res
	wantCert, err := refOptRun(&ref)
	if err != nil {
		t.Fatalf("%s/%+v: reference optimizer: %v", label, o, err)
	}
	cert, err := opt.Run(res)
	if err != nil {
		t.Fatalf("%s/%+v: optimizer: %v", label, o, err)
	}
	if !reflect.DeepEqual(cert, wantCert) {
		fail("optimizer certificate", cert, wantCert)
	}
	if got, want := dfg.Text(res.Graph), dfg.Text(ref.Graph); got != want {
		fail("optimized graph text", got, want)
	}
	return 2
}

// TestCompileMatchesReference: the production front end, analyses and
// optimizer against the implementations they replaced, on every committed
// workload under every schema/option combination and on generated
// programs — structured, goto-built and aliased — each under the
// combinations drawn round-robin, plain and optimized.
func TestCompileMatchesReference(t *testing.T) {
	combos := vet.OptionCombos()
	graphs := 0
	// TwoLevelExit leaves two nested loops with one goto: the inner loop's
	// exit statement comes first, then the outer one's (§3).
	suite := append(workloads.All(), workloads.TwoLevelExit)
	for _, w := range suite {
		prog, err := lang.Parse(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		g, err := cfg.Build(prog)
		if err != nil {
			continue // procedure workloads need linked translation
		}
		for _, o := range combos {
			graphs += diffCompile(t, w.Name, g, o, true)
		}
	}
	for seed := int64(0); seed < 70; seed++ {
		for size := 3; size <= 8; size++ {
			for i, w := range []workloads.Workload{
				workloads.Random(seed, size, 3),
				workloads.RandomUnstructured(seed, size),
				workloads.RandomAliased(seed, size, 2),
			} {
				g, err := cfg.Build(w.Parse())
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				// Walk the combinations from a per-program offset until one
				// is accepted, so every program is diffed and every
				// combination drawn.
				for k := range combos {
					o := combos[(int(seed)*18+size*3+i+k)%len(combos)]
					if n := diffCompile(t, fmt.Sprintf("%s/%d", w.Name, size), g, o, (int(seed)+size)%2 == 0); n > 0 {
						graphs += n
						break
					}
				}
			}
		}
	}
	// The shapes with bypasses into back ports (multi-latch), several-source
	// lists carried past a loop entry (multi-exit) and dispatch headers
	// (irreducible regions, made reducible first).
	for k := 2; k <= 5; k++ {
		g, err := cfg.Build(workloads.KEntry(k).Parse())
		if err != nil {
			t.Fatalf("k-entry-%d: %v", k, err)
		}
		for _, o := range combos {
			graphs += diffCompile(t, fmt.Sprintf("k-entry-%d", k), g, o, k%2 == 0)
		}
	}
	for seed := int64(0); seed < 24; seed++ {
		for size := 1; size <= 3; size++ {
			for i, w := range []workloads.Workload{
				workloads.RandomMultiExit(seed, size),
				workloads.RandomMultiLatch(seed, size),
				workloads.RandomIrreducible(seed, size),
			} {
				g, err := cfg.Build(w.Parse())
				if err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				for k := range combos {
					o := combos[(int(seed)*7+size*3+i+k)%len(combos)]
					if n := diffCompile(t, fmt.Sprintf("%s/%d", w.Name, size), g, o, (int(seed)+size+i)%2 == 0); n > 0 {
						graphs += n
						break
					}
				}
			}
		}
	}
	if graphs < 1000 {
		t.Fatalf("diffed %d graphs, want at least 1000; suite lost coverage", graphs)
	}
	t.Logf("diffed %d graphs", graphs)
}

// TestSourceVectorsDeterministic: the source vectors do not depend on the
// order a map is ranged in, which Go draws anew on every range. Computed
// twice on every workload under every option combination, the graph the
// builder's walk wires, and the plan's order, merges, loop needs and every
// entry, kept or recomputed on request, are the same.
func TestSourceVectorsDeterministic(t *testing.T) {
	cells := 0
	for _, w := range workloads.All() {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			continue // procedure workloads need linked translation
		}
		for _, o := range vet.OptionCombos() {
			a, errA := translate.Translate(g, o)
			b, errB := translate.Translate(g, o)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s/%+v: translated once, failed once: %v, %v", w.Name, o, errA, errB)
			}
			if errA != nil {
				continue
			}
			fail := func(what string, x, y any) {
				t.Helper()
				t.Fatalf("%s/%+v: %s differs between two computations\n%v\n%v", w.Name, o, what, x, y)
			}
			if x, y := dfg.Text(a.Graph), dfg.Text(b.Graph); x != y {
				fail("graph", x, y)
			}
			svA, errA := a.Plan.SourceVectors()
			svB, errB := b.Plan.SourceVectors()
			if errA != nil || errB != nil {
				t.Fatalf("%s/%+v: source vectors: %v, %v", w.Name, o, errA, errB)
			}
			if !slices.Equal(svA.Order, svB.Order) {
				fail("order", svA.Order, svB.Order)
			}
			for id := range a.CFG.Nodes {
				if x, y := svA.Merges(id, nil), svB.Merges(id, nil); !slices.Equal(x, y) {
					fail(fmt.Sprintf("merges at n%d", id), x, y)
				}
				if x, y := svA.LoopNeed(id), svB.LoopNeed(id); !slices.Equal(x, y) {
					fail(fmt.Sprintf("loop need of n%d", id), x, y)
				}
			}
			for tok := range svA.Universe {
				for id := range a.CFG.Nodes {
					if x, y := svA.Sources(id, int32(tok)), svB.Sources(id, int32(tok)); !slices.Equal(x, y) {
						fail(fmt.Sprintf("SV_n%d(%s)", id, svA.Universe[tok]), x, y)
					}
					if x, y := svA.BackSources(id, int32(tok)), svB.BackSources(id, int32(tok)); !slices.Equal(x, y) {
						fail(fmt.Sprintf("back SV_n%d(%s)", id, svA.Universe[tok]), x, y)
					}
				}
			}
			cells++
		}
	}
	if cells < 100 {
		t.Fatalf("compared %d cells, want at least 100; suite lost coverage", cells)
	}
	t.Logf("compared %d cells", cells)
}
