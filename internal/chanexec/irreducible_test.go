package chanexec_test

import (
	"testing"

	"ctdf/internal/workloads"
)

// TestKEntryProbe: a region entered at any of its k blocks, k = 2…12,
// made reducible by one dispatch header (cfg.MakeReducible), agrees with
// sequential interpretation of the original program everywhere.
func TestKEntryProbe(t *testing.T) {
	for k := 2; k <= 12; k++ {
		agreesEverywhere(t, workloads.KEntry(k))
	}
}

// TestIrreducibleGenerated sweeps workloads.RandomIrreducible — chained
// and nested regions of 2 to 6 entries — and TestMultiExitGenerated
// sweeps workloads.RandomMultiExit — gotos leaving two or three loops at
// once — through the same lattice.
func TestIrreducibleGenerated(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		agreesEverywhere(t, workloads.RandomIrreducible(seed, 1+int(seed)%2))
	}
}

func TestMultiExitGenerated(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		agreesEverywhere(t, workloads.RandomMultiExit(seed, 1+int(seed)%3))
	}
}
