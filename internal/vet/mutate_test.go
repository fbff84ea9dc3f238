package vet_test

import (
	"sort"
	"testing"

	"ctdf/internal/translate"
	"ctdf/internal/vet"
	"ctdf/internal/workloads"
)

func mutationByName(t *testing.T, name string) vet.Mutation {
	t.Helper()
	for _, m := range vet.Mutations() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no mutation %q", name)
	return vet.Mutation{}
}

// TestMutationsDetected: each seeded mutation class must be flagged by
// the passes that own the violated condition, on the graph as translated
// and on its optimized form (fused nodes, sunk switches, collapsed
// merges). The detecting pass is part of the contract — a mutation
// "detected" by an unrelated pass means the owning pass went vacuous.
func TestMutationsDetected(t *testing.T) {
	cases := []struct {
		mutation string
		workload string
		opt      translate.Options
		// detectors that must each report at least one error
		detectors []string
	}{
		{
			mutation: "drop-switch", workload: "diamond",
			opt:       translate.Options{Schema: translate.Schema2},
			detectors: []string{"switch-placement"},
		},
		{
			mutation: "drop-switch", workload: "running-example",
			opt:       translate.Options{Schema: translate.Schema2Opt},
			detectors: []string{"switch-placement"},
		},
		{
			mutation: "retarget-arc", workload: "running-example",
			opt:       translate.Options{Schema: translate.Schema2},
			detectors: []string{"token-balance", "determinacy"},
		},
		{
			mutation: "drop-merge-arm", workload: "diamond",
			opt:       translate.Options{Schema: translate.Schema2},
			detectors: []string{"token-balance"},
		},
		{
			mutation: "truncate-synch", workload: "fortran-alias",
			opt:       translate.Options{Schema: translate.Schema3},
			detectors: []string{"alias-cover"},
		},
		{
			mutation: "bypass-synch", workload: "fortran-alias",
			opt:       translate.Options{Schema: translate.Schema3},
			detectors: []string{"alias-cover"},
		},
		{
			mutation: "bypass-synch", workload: "aliased-swap",
			opt:       translate.Options{Schema: translate.Schema3Opt},
			detectors: []string{"alias-cover"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.mutation+"/"+tc.workload, func(t *testing.T) {
			for _, optimize := range []bool{false, true} {
				res := compile(t, workloads.MustByName(tc.workload), tc.opt, optimize)
				if rep := vet.Run(res.Graph, res); !rep.Clean() {
					t.Fatalf("optimize=%v: baseline not clean:\n%s", optimize, rep)
				}
				m := mutationByName(t, tc.mutation)
				mut, ok := m.Apply(res)
				if !ok {
					t.Fatalf("optimize=%v: mutation %s does not apply to %s", optimize, tc.mutation, tc.workload)
				}
				rep := vet.Run(mut, res)
				if rep.Errors == 0 {
					t.Fatalf("optimize=%v: mutation %s escaped: report clean", optimize, tc.mutation)
				}
				got := rep.Detectors()
				for _, want := range tc.detectors {
					i := sort.SearchStrings(got, want)
					if i >= len(got) || got[i] != want {
						t.Errorf("optimize=%v: mutation %s: pass %s reported no error; detectors: %v\n%s", optimize, tc.mutation, want, got, rep)
					}
				}
			}
		})
	}
}

// TestMutationsApplyBroadly: every mutation class finds a site on at
// least one committed workload.
func TestMutationsApplyBroadly(t *testing.T) {
	candidates := []*translate.Result{
		compile(t, workloads.MustByName("fortran-alias"), translate.Options{Schema: translate.Schema3}, false),
		compile(t, workloads.MustByName("diamond"), translate.Options{Schema: translate.Schema2}, false),
		compile(t, workloads.MustByName("running-example"), translate.Options{Schema: translate.Schema2}, false),
	}
	for _, m := range vet.Mutations() {
		applied := false
		for _, res := range candidates {
			if _, ok := m.Apply(res); ok {
				applied = true
				break
			}
		}
		if !applied {
			t.Errorf("mutation %s found no site on any candidate workload", m.Name)
		}
	}
}
