package translate

import (
	"testing"

	"ctdf/internal/workloads"
)

// The unstructured generator exercises multi-exit loops, multiple back
// edges, and unstructured joins — the control flow §4's machinery exists
// for.
func TestRandomUnstructuredAllSchemas(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		w := workloads.RandomUnstructured(seed, 3)
		for _, opt := range allSchemas {
			t.Run(w.Name+"/"+opt.Schema.String(), func(t *testing.T) {
				checkEquivalence(t, w, opt, nil)
			})
		}
	}
}

func TestRandomUnstructuredWithTransforms(t *testing.T) {
	opt := Options{
		Schema:              Schema2Opt,
		EliminateMemory:     true,
		ParallelReads:       true,
		ParallelArrayStores: true,
	}
	for seed := int64(50); seed <= 80; seed++ {
		w := workloads.RandomUnstructured(seed, 4)
		t.Run(w.Name, func(t *testing.T) {
			checkEquivalence(t, w, opt, nil)
		})
	}
}
