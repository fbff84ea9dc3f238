package vet_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
	"ctdf/internal/workloads"
)

// TestNeedTokensInUniverse: every token a CFG node needs is a token of its
// unit's universe, so the translator's numbering (a token's id is its
// position in the sorted universe) covers every need. It is checked by
// name, apart from the translator: per node, the tokens of the variables
// it references (none for an I-structure array) and the completion token
// of a §6.3 store it carries, on every workload under every option
// combination and on every generator; the need of the plan the graph was
// built on (res.Plan.Need), which vet places on, must number the same
// tokens. A linked unit's need is numbered as the unit is built, and
// TranslateLinked fails on a name without tokens in its unit, so the
// proc-* workloads and RandomProcs must translate.
func TestNeedTokensInUniverse(t *testing.T) {
	numbering := func(err error) bool {
		return strings.Contains(err.Error(), "outside the universe") || strings.Contains(err.Error(), "has no tokens")
	}
	translations := 0
	check := func(w workloads.Workload) {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			if _, err := translate.TranslateLinked(w.Parse()); err != nil {
				t.Fatalf("%s: linked: %v", w.Name, err)
			}
			translations++
			return
		}
		for _, o := range vet.OptionCombos() {
			label := fmt.Sprintf("%s/%+v", w.Name, o)
			res, err := translate.Translate(g, o)
			if err != nil {
				if numbering(err) {
					t.Fatalf("%s: %v", label, err)
				}
				continue // combination rejected by the schema
			}
			translations++
			if !slices.IsSorted(res.Universe) {
				t.Fatalf("%s: universe %v is not sorted", label, res.Universe)
			}
			need := res.Plan.Need()
			var want []string
			for id := range res.CFG.Nodes {
				want = want[:0]
				for _, v := range res.CFG.RefSet(nil, id) {
					if !slices.Contains(res.IStructures, v) {
						want = append(want, res.TokensOf[v]...)
					}
				}
				for _, ps := range res.ParallelStores {
					if ps.StoreStmt == id {
						want = append(want, ps.DoneToken())
					}
				}
				slices.Sort(want)
				want = slices.Compact(want)
				for _, tok := range want {
					if _, ok := slices.BinarySearch(res.Universe, tok); !ok {
						t.Fatalf("%s: %s needs token %s, outside the universe %v", label, res.CFG.Nodes[id], tok, res.Universe)
					}
				}
				var got []string
				for _, tk := range need.Row(id) {
					got = append(got, res.Universe[tk])
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %s: the plan's need numbers %v, want %v", label, res.CFG.Nodes[id], got, want)
				}
			}
		}
	}
	for _, w := range workloads.All() {
		check(w)
	}
	check(workloads.TwoLevelExit)
	check(workloads.Wide(4, 3))
	for k := 2; k <= 5; k++ {
		check(workloads.KEntry(k))
	}
	for seed := int64(0); seed < 8; seed++ {
		for _, w := range []workloads.Workload{
			workloads.Random(seed, 6, 3),
			workloads.RandomAliased(seed, 6, 2),
			workloads.RandomUnstructured(seed, 8),
			workloads.RandomMultiLatch(seed, 8),
			workloads.RandomIrreducible(seed, 8),
			workloads.RandomMultiExit(seed, 8),
			workloads.RandomProcs(seed, 1+int(seed%4)),
		} {
			check(w)
		}
	}
	t.Logf("%d translations checked", translations)
}
