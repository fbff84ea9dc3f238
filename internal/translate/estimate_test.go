package translate

import (
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/workloads"
)

// TestArcEstimateBoundsEmitted: the arc table the builder reserves
// (builder.arcEstimate) holds every arc it emits, so the table never
// doubles near the end of a build, and over-reserves by at most a fifth.
// Every workload and generator under every schema.
func TestArcEstimateBoundsEmitted(t *testing.T) {
	var ws []workloads.Workload
	ws = append(ws, workloads.All()...)
	for seed := int64(0); seed < 4; seed++ {
		ws = append(ws,
			workloads.Random(seed, 8, 2),
			workloads.Random(1234+seed, 40, 3),
			workloads.RandomUnstructured(seed, 4),
			workloads.RandomUnstructured(1990+seed, 48),
			workloads.RandomAliased(seed, 8, 2),
			workloads.RandomMultiExit(seed, 6),
			workloads.RandomMultiLatch(seed, 6),
			workloads.RandomIrreducible(seed, 6),
		)
	}
	if !testing.Short() {
		ws = append(ws, workloads.Random(1234, 200, 2))
	}
	worst, cells := 0.0, 0
	for _, w := range ws {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			continue // procedure workloads translate linked only
		}
		for _, s := range []Schema{Schema1, Schema2, Schema2Opt, Schema3, Schema3Opt} {
			emitted := -1
			res, err := TranslateEdited(g, Options{Schema: s}, func(e *dfg.Editor, _ *Result) error {
				emitted = len(e.Arcs)
				return nil
			})
			if err != nil {
				continue // the schema rejects the program
			}
			nb, err := makeNeed(res.CFG, res.Universe, res.TokensOf, nil, nil, nil)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, s, err)
			}
			route, err := res.Plan.Route()
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, s, err)
			}
			b := &builder{g: res.CFG, numbering: nb, value: make([]bool, len(nb.universe)), route: route}
			est := b.arcEstimate()
			if est < emitted || float64(est) > 1.2*float64(emitted) {
				t.Errorf("%s/%v: estimate %d for %d arcs emitted (%.3f)", w.Name, s, est, emitted, float64(est)/float64(emitted))
			}
			worst = max(worst, float64(est)/float64(emitted))
			cells++
		}
	}
	t.Logf("%d cells, worst over-estimate %.3f", cells, worst)
}
