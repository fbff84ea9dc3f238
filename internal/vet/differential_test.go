package vet_test

import (
	"fmt"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
	"ctdf/internal/workloads"
)

// diffCell holds one translation to the reference oracle: as translated,
// under every mutation that finds a site in it, and (when optimize is
// set) after the graph optimizer. It returns how many graphs it diffed
// and how many of them drew diagnostics.
func diffCell(t *testing.T, label string, g *cfg.Graph, o translate.Options, optimize bool) (graphs, dirty int) {
	res, err := translate.Translate(g, o)
	if err != nil {
		return 0, 0 // combination rejected by the schema
	}
	check := func(what string, rep *vet.Report) {
		graphs++
		if !rep.Clean() {
			dirty++
		}
		if t.Failed() {
			t.Fatalf("%s/%+v %s: solver disagrees with the reference", label, o, what)
		}
	}
	check("plain", vet.CheckAgainstReference(t, res.Graph, res))
	for _, m := range vet.Mutations() {
		if mut, ok := m.Apply(res); ok {
			check(m.Name, vet.CheckAgainstReference(t, mut, res))
		}
	}
	if optimize {
		if _, err := opt.Run(res); err != nil {
			t.Fatalf("%s/%+v: optimize: %v", label, o, err)
		}
		check("optimized", vet.CheckAgainstReference(t, res.Graph, res))
	}
	return graphs, dirty
}

// TestSolverMatchesReferenceOnWorkloads: every committed workload under
// every schema/option combination, plain, mutated and optimized.
func TestSolverMatchesReferenceOnWorkloads(t *testing.T) {
	graphs, dirty := 0, 0
	for _, w := range workloads.All() {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			continue // procedure workloads need linked translation
		}
		for _, o := range vet.OptionCombos() {
			n, d := diffCell(t, w.Name, g, o, true)
			graphs, dirty = graphs+n, dirty+d
		}
	}
	if graphs < 600 || dirty < 200 {
		t.Fatalf("diffed %d graphs, %d with diagnostics; suite lost coverage", graphs, dirty)
	}
}

// TestSolverMatchesReferenceOnRandomGraphs: generated programs —
// structured, goto-built and aliased — each under one option combination
// drawn round-robin, with its mutants, optimized on alternate seeds.
func TestSolverMatchesReferenceOnRandomGraphs(t *testing.T) {
	combos := vet.OptionCombos()
	programs, graphs := 0, 0
	for seed := int64(0); seed < 70; seed++ {
		size := 3 + int(seed%6)
		for i, w := range []workloads.Workload{
			workloads.Random(seed, size, 3),
			workloads.RandomUnstructured(seed, size),
			workloads.RandomAliased(seed, size, 2),
		} {
			g, err := cfg.Build(w.Parse())
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			// Walk the combinations from a per-program offset until one is
			// accepted, so every program is diffed and every combination drawn.
			for k := range combos {
				o := combos[(int(seed)*3+i+k)%len(combos)]
				if n, _ := diffCell(t, fmt.Sprintf("%s#%d", w.Name, seed), g, o, seed%2 == 0); n > 0 {
					programs++
					graphs += n
					break
				}
			}
		}
	}
	if programs < 200 {
		t.Fatalf("diffed %d generated programs (%d graphs), want at least 200", programs, graphs)
	}
	t.Logf("diffed %d generated programs, %d graphs", programs, graphs)
}

// TestGuardTableSolvedOncePerRun is pinned by CheckAgainstReference on
// every graph above; this names the property on an aliased program, whose
// alias-cover and determinacy passes both consult the table.
func TestGuardTableSolvedOncePerRun(t *testing.T) {
	res := compile(t, workloads.RandomAliased(1990, 32, 3), translate.Options{Schema: translate.Schema3Opt}, false)
	if rep := vet.CheckAgainstReference(t, res.Graph, res); !rep.Clean() {
		t.Fatalf("not clean:\n%s", rep)
	}
}
