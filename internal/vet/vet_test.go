package vet

import (
	"fmt"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// optionCombos is the schema/transform matrix the clean-sweep tests run
// every workload through. Combinations a schema rejects are skipped at
// Translate time.
func optionCombos() []translate.Options {
	var out []translate.Options
	for _, schema := range []translate.Schema{
		translate.Schema1, translate.Schema2, translate.Schema2Opt,
		translate.Schema3, translate.Schema3Opt,
	} {
		out = append(out, translate.Options{Schema: schema})
	}
	out = append(out,
		translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true},
		translate.Options{Schema: translate.Schema2Opt, ParallelReads: true},
		translate.Options{Schema: translate.Schema2Opt, ParallelArrayStores: true},
		translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true, ParallelReads: true, ParallelArrayStores: true},
		translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true, UseIStructures: true},
		translate.Options{Schema: translate.Schema3Opt, ParallelReads: true},
	)
	return out
}

func optLabel(opt translate.Options) string {
	s := fmt.Sprintf("schema%v", opt.Schema)
	if opt.EliminateMemory {
		s += "+elim"
	}
	if opt.ParallelReads {
		s += "+preads"
	}
	if opt.ParallelArrayStores {
		s += "+pstores"
	}
	if opt.UseIStructures {
		s += "+istruct"
	}
	return s
}

// TestVetCleanOnWorkloads: every graph the translator emits, for every
// committed workload under every schema/option combination, must vet with
// zero diagnostics — the translation-validation contract.
func TestVetCleanOnWorkloads(t *testing.T) {
	vetted := 0
	for _, w := range workloads.All() {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			continue // procedure workloads need linked translation
		}
		for _, opt := range optionCombos() {
			res, err := translate.Translate(g, opt)
			if err != nil {
				continue // combination rejected by the schema
			}
			rep := Run(res.Graph, res)
			if !rep.Clean() {
				t.Errorf("%s/%s: want clean, got:\n%s", w.Name, optLabel(opt), rep)
			}
			if len(rep.Skipped) != 0 {
				t.Errorf("%s/%s: passes skipped despite metadata: %v", w.Name, optLabel(opt), rep.Skipped)
			}
			vetted++
		}
	}
	if vetted < 100 {
		t.Fatalf("only %d workload/option combinations vetted; suite lost coverage", vetted)
	}
}

// TestVetCleanOnRandomPrograms sweeps generator seeds, structured and
// unstructured, through the full option matrix.
func TestVetCleanOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		for _, w := range []workloads.Workload{
			workloads.Random(seed, 3, 2),
			workloads.RandomAliased(seed, 3, 2),
			workloads.RandomUnstructured(seed, 2),
		} {
			g, err := cfg.Build(w.Parse())
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			for _, opt := range optionCombos() {
				res, err := translate.Translate(g, opt)
				if err != nil {
					continue
				}
				if rep := Run(res.Graph, res); !rep.Clean() {
					t.Errorf("%s/%s: want clean, got:\n%s", w.Name, optLabel(opt), rep)
				}
			}
		}
	}
}

func mustTranslate(t *testing.T, name string, opt translate.Options) *translate.Result {
	t.Helper()
	w := workloads.MustByName(name)
	g, err := cfg.Build(w.Parse())
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	res, err := translate.Translate(g, opt)
	if err != nil {
		t.Fatalf("translate %s: %v", name, err)
	}
	return res
}

// TestFig9PlacementAgreement pins the acceptance criterion: on the paper's
// Figure 9–11 worked example the switch-placement pass's independently
// recomputed placement must equal the switch set the translator emitted.
func TestFig9PlacementAgreement(t *testing.T) {
	res := mustTranslate(t, "fig9-bypass", translate.Options{Schema: translate.Schema2Opt})
	u := newUnit(res.Graph, res)
	pi := u.placementInfo()
	if pi.err != nil {
		t.Fatal(pi.err)
	}

	emitted := map[stmtTok]bool{}
	for _, n := range res.Graph.Nodes {
		if n.Kind == dfg.Switch {
			emitted[stmtTok{n.Stmt, n.Tok}] = true
		}
	}
	recomputed := map[stmtTok]bool{}
	for f, toks := range pi.place.Needs {
		if f < 0 || f >= res.CFG.Len() || res.CFG.Nodes[f].Kind != cfg.KindFork {
			continue
		}
		for tok := range toks {
			recomputed[stmtTok{f, tok}] = true
		}
	}
	for k := range emitted {
		if !recomputed[k] {
			t.Errorf("translator switched %q at stmt %d; recomputation did not", k.tok, k.stmt)
		}
	}
	for k := range recomputed {
		if !emitted[k] {
			t.Errorf("recomputation demands a switch for %q at stmt %d; translator emitted none", k.tok, k.stmt)
		}
	}
	if len(emitted) == 0 {
		t.Fatal("fig9-bypass emitted no switches; the worked example lost its fork")
	}
}
