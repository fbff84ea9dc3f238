package translate_test

import (
	"testing"

	"ctdf/internal/analysis"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
	"ctdf/internal/workloads"
)

// TestParallelArrayStoresCorrect: §6.3's store parallelization computes
// the interpreter's store and vets clean on every workload, under Schema
// 2 and under Schema 3 with each of the three covers — where the array's
// access line is its cover token, not its name, and the loop exit must
// rejoin that token with the completion line.
func TestParallelArrayStoresCorrect(t *testing.T) {
	covers := []struct {
		name string
		of   func(*analysis.AliasStructure) *analysis.Cover
	}{{"singleton", analysis.SingletonCover}, {"class", analysis.ClassCover}, {"monolithic", analysis.MonolithicCover}}
	for _, w := range workloads.All() {
		check := func(name string, opt translate.Options) {
			t.Run(w.Name+"/"+name, func(t *testing.T) {
				res := translate.CheckEquivalence(t, w, opt, nil)
				if rep := vet.Run(res.Graph, res); !rep.Clean() {
					t.Errorf("does not vet clean:\n%s", rep)
				}
			})
		}
		for _, schema := range []translate.Schema{translate.Schema2, translate.Schema2Opt} {
			check(schema.String(), translate.Options{Schema: schema, ParallelArrayStores: true})
		}
		as := analysis.NewAliasStructure(w.Parse())
		for _, schema := range []translate.Schema{translate.Schema3, translate.Schema3Opt} {
			for _, c := range covers {
				check(schema.String()+"/"+c.name, translate.Options{Schema: schema, Cover: c.of(as), ParallelArrayStores: true})
			}
		}
	}
}
