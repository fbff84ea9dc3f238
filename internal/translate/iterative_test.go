package translate_test

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/machine"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// The iterative switch elimination §4 opens with is the optimizer's
// sink-switches and eliminate-dead run with the CFG withheld
// (opt.EliminateRedundantSwitches). These tests hold it to the
// translations: it must keep what a graph computes, and on acyclic
// programs reach the direct construction's switch count.

// eliminate runs the iterative elimination on a copy of res and returns
// the copy and the number of switches removed.
func eliminate(t *testing.T, res *translate.Result) (*translate.Result, int) {
	t.Helper()
	out := *res
	cert, err := opt.EliminateRedundantSwitches(&out)
	if err != nil {
		t.Fatal(err)
	}
	return &out, cert.Passes[0].Rewrites
}

// acyclicWorkloads lists the loop-free programs: the iterative algorithm's
// reach equals the direct construction exactly there (§4: the direct
// construction additionally lets tokens bypass loops).
func acyclicWorkloads() []workloads.Workload {
	var out []workloads.Workload
	for _, w := range workloads.All() {
		g := cfg.MustBuild(w.Parse())
		_, loops, err := cfg.InsertLoopControl(g)
		if err != nil || len(loops) > 0 {
			continue
		}
		out = append(out, w)
	}
	return out
}

func TestIterativeEliminationPreservesSemantics(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			g := cfg.MustBuild(w.Parse())
			res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2})
			if err != nil {
				t.Fatal(err)
			}
			simplified, n := eliminate(t, res)
			if err := simplified.Graph.Validate(); err != nil {
				t.Fatalf("simplified graph invalid after %d eliminations: %v", n, err)
			}
			a, err := machine.Run(res.Graph, machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := machine.Run(simplified.Graph, machine.Config{})
			if err != nil {
				t.Fatalf("simplified graph failed: %v", err)
			}
			if a.Store.Snapshot() != b.Store.Snapshot() {
				t.Error("switch elimination changed program semantics")
			}
		})
	}
}

func TestIterativeMatchesDirectOnAcyclic(t *testing.T) {
	// Cross-validation of the §4.2 direct construction against the §4
	// iterative algorithm: on acyclic programs both must arrive at the
	// same number of switches.
	for _, w := range acyclicWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			g := cfg.MustBuild(w.Parse())
			s2, err := translate.Translate(g, translate.Options{Schema: translate.Schema2})
			if err != nil {
				t.Fatal(err)
			}
			direct, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
			if err != nil {
				t.Fatal(err)
			}
			iter, n := eliminate(t, s2)
			got := iter.Graph.CountKind(dfg.Switch)
			want := direct.Graph.CountKind(dfg.Switch)
			if got != want {
				t.Errorf("iterative elimination reached %d switches (removed %d), direct construction has %d",
					got, n, want)
			}
		})
	}
}

func TestIterativeEliminatesFig9Switch(t *testing.T) {
	g := cfg.MustBuild(workloads.Fig9Example.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2})
	if err != nil {
		t.Fatal(err)
	}
	if _, n := eliminate(t, res); n == 0 {
		t.Error("Figure 9's redundant access_x switch was not eliminated")
	}
}

func TestIterativeIdempotent(t *testing.T) {
	g := cfg.MustBuild(workloads.Fig9Example.Parse())
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2})
	if err != nil {
		t.Fatal(err)
	}
	once, n1 := eliminate(t, res)
	twice, n2 := eliminate(t, once)
	if n2 != 0 {
		t.Errorf("second pass eliminated %d more switches after %d (not a fixpoint)", n2, n1)
	}
	if twice.Graph.NumNodes() != once.Graph.NumNodes() {
		t.Error("second pass changed the graph")
	}
}

func TestRandomUnstructuredIterativeElimination(t *testing.T) {
	for seed := int64(90); seed <= 100; seed++ {
		w := workloads.RandomUnstructured(seed, 3)
		t.Run(w.Name, func(t *testing.T) {
			res, err := translate.Translate(cfg.MustBuild(w.Parse()), translate.Options{Schema: translate.Schema2})
			if err != nil {
				t.Fatal(err)
			}
			simplified, _ := eliminate(t, res)
			if err := simplified.Graph.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
