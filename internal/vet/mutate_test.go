package vet_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"ctdf/internal/cfg"
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

// programByName returns the committed workload of that name, or the
// generated program random-0: no committed workload holds two merges of
// one token, which rewire-merge-arm needs.
func programByName(name string) workloads.Workload {
	if name == "random-0" {
		return workloads.Random(0, 6, 3)
	}
	return workloads.MustByName(name)
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
		{
			mutation: "rewire-merge-arm", workload: "random-0",
			opt:       translate.Options{Schema: translate.Schema2},
			detectors: []string{"source-vectors"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.mutation+"/"+tc.workload, func(t *testing.T) {
			for _, optimize := range []bool{false, true} {
				res := compile(t, programByName(tc.workload), tc.opt, optimize)
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
// least one committed workload, or on random-0 (programByName).
func TestMutationsApplyBroadly(t *testing.T) {
	candidates := []*translate.Result{
		compile(t, workloads.MustByName("fortran-alias"), translate.Options{Schema: translate.Schema3}, false),
		compile(t, workloads.MustByName("diamond"), translate.Options{Schema: translate.Schema2}, false),
		compile(t, workloads.MustByName("running-example"), translate.Options{Schema: translate.Schema2}, false),
		compile(t, programByName("random-0"), translate.Options{Schema: translate.Schema2}, false),
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

// TestRewireMergeArmSweep: a merge arm swapped between two merges of one
// token keeps every port count, so only the merges' sources tell it; the
// source-vectors pass must report it at every site. The sites are
// rewire-merge-arm's on every workload and eight seeds of every generator,
// under Schema 2, Schema 2-opt and Schema 3-opt. The log tallies the
// detector sets.
func TestRewireMergeArmSweep(t *testing.T) {
	progs := workloads.All()
	for seed := int64(0); seed < 8; seed++ {
		progs = append(progs,
			workloads.Random(seed, 6, 3), workloads.RandomUnstructured(seed, 6), workloads.RandomAliased(seed, 6, 2),
			workloads.RandomMultiExit(seed, 3), workloads.RandomMultiLatch(seed, 3), workloads.RandomIrreducible(seed, 3))
	}
	m := mutationByName(t, "rewire-merge-arm")
	sets := map[string]int{}
	sites := 0
	var missed []string
	for _, w := range progs {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			continue // procedure workloads need linked translation
		}
		for _, s := range []translate.Schema{translate.Schema2, translate.Schema2Opt, translate.Schema3Opt} {
			res, err := translate.Translate(g, translate.Options{Schema: s})
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, s, err)
			}
			mut, ok := m.Apply(res)
			if !ok {
				continue
			}
			sites++
			got := vet.Run(mut, res).Detectors()
			sets[strings.Join(got, "+")]++
			if !slices.Contains(got, "source-vectors") {
				missed = append(missed, fmt.Sprintf("%s/%v", w.Name, s))
			}
		}
	}
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Logf("%d sites detected by {%s}", sets[k], k)
	}
	if sites < 100 {
		t.Fatalf("%d sites; the sweep lost coverage", sites)
	}
	if len(missed) > 0 {
		t.Errorf("source-vectors missed %d of %d sites: %v", len(missed), sites, missed)
	}
}
