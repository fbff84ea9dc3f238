package vet

import (
	"testing"

	"ctdf/internal/machcheck"
	"ctdf/internal/translate"
)

// TestUnconvergedGuardsAreNotTrusted: a guard table that stopped at its
// step bound overstates every guard, so it must not clear anything — the
// determinacy pass reports the failure instead of judging merges, and the
// ordering check stops exempting pairs as predicate-disjoint.
func TestUnconvergedGuardsAreNotTrusted(t *testing.T) {
	res := mustTranslate(t, "diamond", translate.Options{Schema: translate.Schema2})
	u := newUnit(res.Graph, res)
	if rep := u.run(Passes()); !rep.Clean() {
		t.Fatalf("baseline not clean:\n%s", rep)
	}
	u.guards.converged = false
	rep := u.run(Passes())
	var det []Diagnostic
	raced := false
	for _, d := range rep.Diags {
		switch d.Pass {
		case "determinacy":
			det = append(det, d)
		case "alias-cover":
			raced = true
		}
	}
	if len(det) != 1 || det[0].Severity != SevError || det[0].Check != machcheck.InvalidConfig {
		t.Errorf("determinacy diagnostics = %v, want one InvalidConfig error", det)
	}
	if !raced {
		t.Errorf("the diamond's two arms store one variable unordered; without trusted guards alias-cover must say so:\n%s", rep)
	}
}
