package translate

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/machine"
	"ctdf/internal/workloads"
)

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
			res, err := Translate(g, Options{Schema: Schema2})
			if err != nil {
				t.Fatal(err)
			}
			simplified, n := EliminateRedundantSwitches(res.Graph)
			if err := simplified.Validate(); err != nil {
				t.Fatalf("simplified graph invalid after %d eliminations: %v", n, err)
			}
			a, err := machine.Run(res.Graph, machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := machine.Run(simplified, machine.Config{})
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
			s2, err := Translate(g, Options{Schema: Schema2})
			if err != nil {
				t.Fatal(err)
			}
			direct, err := Translate(g, Options{Schema: Schema2Opt})
			if err != nil {
				t.Fatal(err)
			}
			iter, n := EliminateRedundantSwitches(s2.Graph)
			got := iter.CountKind(dfg.Switch)
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
	res, err := Translate(g, Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	_, n := EliminateRedundantSwitches(res.Graph)
	if n == 0 {
		t.Error("Figure 9's redundant access_x switch was not eliminated")
	}
}

func TestIterativeIdempotent(t *testing.T) {
	g := cfg.MustBuild(workloads.Fig9Example.Parse())
	res, err := Translate(g, Options{Schema: Schema2})
	if err != nil {
		t.Fatal(err)
	}
	once, n1 := EliminateRedundantSwitches(res.Graph)
	twice, n2 := EliminateRedundantSwitches(once)
	if n2 != 0 {
		t.Errorf("second pass eliminated %d more switches after %d (not a fixpoint)", n2, n1)
	}
	if twice.NumNodes() != once.NumNodes() {
		t.Error("second pass changed the graph")
	}
}
