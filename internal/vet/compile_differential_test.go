package vet_test

import (
	"fmt"
	"reflect"
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

	need, placement := refNeed(res), refPlacementOf(res.Placement)
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
	if !reflect.DeepEqual(res.SV.Order, want.order) {
		fail("topological order", res.SV.Order, want.order)
	}
	loopNeed := map[int]map[string]bool{}
	for id, n := range res.CFG.Nodes {
		if n.Kind == cfg.KindLoopEntry || n.Kind == cfg.KindLoopExit {
			loopNeed[id] = map[string]bool{}
			for _, t := range res.SV.LoopNeed(id) {
				loopNeed[id][res.Universe[t]] = true
			}
		}
	}
	if !reflect.DeepEqual(loopNeed, want.loopNeed) {
		fail("loop needs", loopNeed, want.loopNeed)
	}
	same := func(a, b []analysis.Source) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	for id := range res.CFG.Nodes {
		for t, tok := range res.Universe {
			if got, want := res.SV.Sources(id, int32(t)), want.sv[id][tok]; !same(got, want) {
				fail(fmt.Sprintf("SV_n%d(%s)", id, tok), got, want)
			}
			if got, want := res.SV.BackSources(id, int32(t)), want.back[id][tok]; !same(got, want) {
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
	if graphs < 600 {
		t.Fatalf("diffed %d graphs, want at least 600; suite lost coverage", graphs)
	}
	t.Logf("diffed %d graphs", graphs)
}
