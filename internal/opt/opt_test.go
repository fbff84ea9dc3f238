package opt

import (
	"strings"
	"testing"
	"time"

	"ctdf/internal/cfg"
	"ctdf/internal/chanexec"
	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/machine"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
	"ctdf/internal/workloads"
)

var allSchemas = []translate.Schema{
	translate.Schema1, translate.Schema2, translate.Schema2Opt,
	translate.Schema3, translate.Schema3Opt,
}

// TestOptimizedSuiteAgreesAcrossEngines is the package's acceptance
// gate: every committed workload under every schema, optimized, must
// (1) vet with zero diagnostics, (2) produce the same final store as the
// unoptimized graph on the machine engine and as sequential
// interpretation, (3) agree between the machine and
// channel engines on both store and firing count, and (4) never fire
// more operators or take more cycles than the graph it was rewritten
// from. The suite is the committed workloads plus one generated program.
func TestOptimizedSuiteAgreesAcrossEngines(t *testing.T) {
	cells := 0
	for _, w := range append(workloads.All(), workloads.Random(4242, 16, 3)) {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			continue // procedure workloads need linked translation
		}
		want, err := interp.Run(g, interp.Options{})
		if err != nil {
			t.Fatalf("%s: interp: %v", w.Name, err)
		}
		for _, s := range allSchemas {
			res, err := translate.Translate(g, translate.Options{Schema: s})
			if err != nil {
				t.Fatalf("%s/%v: translate: %v", w.Name, s, err)
			}
			base, err := machine.Run(res.Graph, machine.Config{})
			if err != nil {
				t.Fatalf("%s/%v: baseline run: %v", w.Name, s, err)
			}
			if _, err := Run(res); err != nil {
				t.Fatalf("%s/%v: optimize: %v", w.Name, s, err)
			}
			if rep := vet.Run(res.Graph, res); !rep.Clean() {
				t.Errorf("%s/%v: optimized graph not vet-clean:\n%s", w.Name, s, rep)
				continue
			}
			mo, err := machine.Run(res.Graph, machine.Config{})
			if err != nil {
				t.Fatalf("%s/%v: optimized machine run: %v", w.Name, s, err)
			}
			co, err := chanexec.Run(res.Graph, chanexec.Config{Deadline: 10 * time.Second})
			if err != nil {
				t.Fatalf("%s/%v: optimized chanexec run: %v", w.Name, s, err)
			}
			if got, want := mo.Store.Snapshot(), base.Store.Snapshot(); got != want {
				t.Errorf("%s/%v: optimization changed the machine result\n got %s\nwant %s", w.Name, s, got, want)
			}
			if got := translate.FinalSnapshot(res, mo.Store, mo.EndValues); got != want.Store.Snapshot() {
				t.Errorf("%s/%v: optimized result disagrees with interpretation\n got %s\nwant %s", w.Name, s, got, want.Store.Snapshot())
			}
			if mo.Store.Snapshot() != co.Store.Snapshot() || int64(mo.Stats.Ops) != co.Ops {
				t.Errorf("%s/%v: engines disagree on optimized graph: machine %s (%d ops) vs channels %s (%d ops)",
					w.Name, s, mo.Store.Snapshot(), mo.Stats.Ops, co.Store.Snapshot(), co.Ops)
			}
			if mo.Stats.Ops > base.Stats.Ops {
				t.Errorf("%s/%v: optimized graph fires %d operators vs %d unoptimized", w.Name, s, mo.Stats.Ops, base.Stats.Ops)
			}
			if mo.Stats.Cycles > base.Stats.Cycles {
				t.Errorf("%s/%v: optimized graph takes %d cycles vs %d unoptimized", w.Name, s, mo.Stats.Cycles, base.Stats.Cycles)
			}
			cells++
		}
	}
	if cells < 100 {
		t.Fatalf("only %d workload/schema cells optimized; suite lost coverage", cells)
	}
}

// TestOptimizedLinkedGraphs: the pipeline takes separately compiled
// procedure graphs, whose call linkage the editor remaps when it builds
// the result. On both proc-* workloads and 60 generated procedure
// programs the optimized graph must vet clean, compute the unoptimized
// graph's store on both engines, fire as often on the one as on the
// other, and take no more cycles than the unoptimized graph.
func TestOptimizedLinkedGraphs(t *testing.T) {
	var progs []workloads.Workload
	for _, w := range workloads.All() {
		if strings.HasPrefix(w.Name, "proc-") {
			progs = append(progs, w)
		}
	}
	for seed := int64(1); seed <= 60; seed++ {
		progs = append(progs, workloads.RandomProcs(seed, 3))
	}
	rewrites := 0
	for _, w := range progs {
		res, err := translate.TranslateLinked(w.Parse())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		base, err := machine.Run(res.Graph, machine.Config{})
		if err != nil {
			t.Fatalf("%s: unoptimized run: %v", w.Name, err)
		}
		cert, err := Run(res)
		if err != nil {
			t.Fatalf("%s: optimize: %v", w.Name, err)
		}
		rewrites += cert.Rewrites()
		if rep := vet.Run(res.Graph, res); !rep.Clean() {
			t.Errorf("%s: optimized linked graph not vet-clean:\n%s", w.Name, rep)
			continue
		}
		mo, err := machine.Run(res.Graph, machine.Config{})
		if err != nil {
			t.Fatalf("%s: optimized machine run: %v", w.Name, err)
		}
		co, err := chanexec.Run(res.Graph, chanexec.Config{Deadline: 10 * time.Second})
		if err != nil {
			t.Fatalf("%s: optimized chanexec run: %v", w.Name, err)
		}
		want := base.Store.Snapshot()
		if mo.Store.Snapshot() != want || co.Store.Snapshot() != want {
			t.Errorf("%s: optimization changed the store\nmachine  %s\nchannels %s\nwant     %s", w.Name, mo.Store.Snapshot(), co.Store.Snapshot(), want)
		}
		if int64(mo.Stats.Ops) != co.Ops {
			t.Errorf("%s: engines disagree on the optimized graph: %d firings on the machine, %d on channels", w.Name, mo.Stats.Ops, co.Ops)
		}
		if mo.Stats.Cycles > base.Stats.Cycles {
			t.Errorf("%s: optimized graph takes %d cycles vs %d unoptimized", w.Name, mo.Stats.Cycles, base.Stats.Cycles)
		}
	}
	t.Logf("%d linked programs, %d rewrites", len(progs), rewrites)
	if rewrites < 250 {
		t.Fatalf("%d rewrites over %d linked programs; suite lost coverage", rewrites, len(progs))
	}
}

// TestFigure9SwitchPairRemoved reproduces the paper's Figure 9 claim as
// a rewrite: under Schema 2 (switches at every fork for every token)
// the fig9-bypass workload carries switch/merge pairs for x and w —
// tokens the branches never touch — which the §4 placement proves
// unnecessary. sink-switches must delete them, leaving no more switches
// than the Schema2Opt translation places, and the optimized graph must
// finish in fewer machine cycles.
func TestFigure9SwitchPairRemoved(t *testing.T) {
	g, err := cfg.Build(workloads.MustByName("fig9-bypass").Parse())
	if err != nil {
		t.Fatal(err)
	}
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2})
	if err != nil {
		t.Fatal(err)
	}
	before, err := machine.Run(res.Graph, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	unoptSwitches := countKind(res.Graph, dfg.Switch)
	cert, err := Run(res)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Passes[0].Rewrites == 0 {
		t.Fatal("no redundant switches removed from the Schema 2 running example")
	}
	optRes, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	got, ceiling := countKind(res.Graph, dfg.Switch), countKind(optRes.Graph, dfg.Switch)
	if got > ceiling {
		t.Errorf("optimized Schema 2 keeps %d switches; Schema2Opt places only %d", got, ceiling)
	}
	if got >= unoptSwitches {
		t.Errorf("switch count did not drop: %d before, %d after", unoptSwitches, got)
	}
	after, err := machine.Run(res.Graph, machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.Cycles >= before.Stats.Cycles {
		t.Errorf("optimized graph is not faster: %d cycles before, %d after", before.Stats.Cycles, after.Stats.Cycles)
	}
}

// TestUnrecordedRemovalVetsClean: vet judges a removed switch or merge
// by the graph and the CFG alone, so an edit pass that ran but recorded
// nothing still vets clean. Two cells: the iterative switch elimination
// on every acyclic program under Schema 2, and the optimizer run twice
// over every program and schema with the certificate emptied between the
// runs.
func TestUnrecordedRemovalVetsClean(t *testing.T) {
	eliminated, optimized := 0, 0
	for _, w := range workloads.All() {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			continue // procedure workloads need linked translation
		}
		for _, s := range allSchemas {
			res, err := translate.Translate(g, translate.Options{Schema: s})
			if err != nil {
				t.Fatal(err)
			}
			if s == translate.Schema2 && len(res.Loops) == 0 {
				ers := *res
				cert, err := EliminateRedundantSwitches(&ers)
				if err != nil {
					t.Fatal(err)
				}
				n := cert.Passes[0].Rewrites
				ers.Opt = &translate.OptCertificate{}
				if rep := vet.Run(ers.Graph, &ers); !rep.Clean() {
					t.Errorf("%s: switch elimination without claims not vet-clean:\n%s", w.Name, rep)
				}
				if n > 0 {
					eliminated++
				}
			}
			cert, err := Run(res)
			if err != nil {
				t.Fatal(err)
			}
			if cert.Passes[0].Rewrites+cert.Passes[1].Rewrites > 0 {
				optimized++
			}
			res.Opt = &translate.OptCertificate{}
			if _, err := Run(res); err != nil {
				t.Fatal(err)
			}
			if rep := vet.Run(res.Graph, res); !rep.Clean() {
				t.Errorf("%s/%v: graph optimized twice, claims dropped between, not vet-clean:\n%s", w.Name, s, rep)
			}
		}
	}
	if eliminated < 3 || optimized < 10 {
		t.Fatalf("switches eliminated in %d programs, pairs sunk or merges collapsed in %d cells; suite lost coverage", eliminated, optimized)
	}
}

// TestOptimizeIsIdempotent: a second pipeline run over an already
// optimized graph must find nothing left to rewrite, and the graph,
// which still lacks what the first run removed, must vet clean.
func TestOptimizeIsIdempotent(t *testing.T) {
	for _, w := range workloads.All() {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			continue // procedure workloads need linked translation
		}
		for _, s := range allSchemas {
			res, err := translate.Translate(g, translate.Options{Schema: s})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(res); err != nil {
				t.Fatal(err)
			}
			first, graph := dfg.Text(res.Graph), res.Graph
			cert2, err := Run(res)
			if err != nil {
				t.Fatal(err)
			}
			if n := cert2.Rewrites(); n != 0 {
				t.Errorf("%s/%v: second optimization run rewrote %d more times", w.Name, s, n)
			}
			if res.Graph != graph {
				t.Errorf("%s/%v: a run without rewrites must hand back its input graph, not a copy", w.Name, s)
			}
			if dfg.Text(res.Graph) != first {
				t.Errorf("%s/%v: second optimization run changed the graph text", w.Name, s)
			}
			if rep := vet.Run(res.Graph, res); !rep.Clean() {
				t.Errorf("%s/%v: graph optimized twice not vet-clean:\n%s", w.Name, s, rep)
			}
		}
	}
}

// optimizedAgrees optimizes w under schema s and holds the result to
// vet and to sequential interpretation.
func optimizedAgrees(t *testing.T, w workloads.Workload, s translate.Schema) {
	t.Helper()
	g, err := cfg.Build(w.Parse())
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	want, err := interp.Run(g, interp.Options{})
	if err != nil {
		t.Fatalf("%s: interp: %v", w.Name, err)
	}
	res, err := translate.Translate(g, translate.Options{Schema: s})
	if err != nil {
		t.Fatalf("%s/%v: translate: %v", w.Name, s, err)
	}
	if _, err := Run(res); err != nil {
		t.Fatalf("%s/%v: optimize: %v", w.Name, s, err)
	}
	if rep := vet.Run(res.Graph, res); !rep.Clean() {
		t.Fatalf("%s/%v: optimized graph not vet-clean:\n%s", w.Name, s, rep)
	}
	out, err := machine.Run(res.Graph, machine.Config{})
	if err != nil {
		t.Fatalf("%s/%v: optimized machine run: %v", w.Name, s, err)
	}
	if got := translate.FinalSnapshot(res, out.Store, out.EndValues); got != want.Store.Snapshot() {
		t.Errorf("%s/%v: optimized result disagrees with interpretation\n got %s\nwant %s", w.Name, s, got, want.Store.Snapshot())
	}
}

// TestSinkChainedPairs: goto-built programs under the unoptimized schemas
// chain sinkable switch/merge pairs — one pair's merge feeding the next
// pair's switch directly. Rewriting both from one snapshot of the graph
// wired the second from the first's deleted merge ("arc d44.0→d112.0
// survives a deleted endpoint" on the first program below, the smallest
// reproduction). The sweep after it draws one schema per program from the
// 1 000 cells — seeds 0–39 × sizes 2–6 × five schemas — of which 176
// failed that way.
func TestSinkChainedPairs(t *testing.T) {
	for _, s := range []translate.Schema{translate.Schema2, translate.Schema3} {
		optimizedAgrees(t, workloads.RandomUnstructured(1, 3), s)
	}
	for seed := int64(0); seed < 40; seed++ {
		for size := 2; size <= 6; size++ {
			optimizedAgrees(t, workloads.RandomUnstructured(seed, size), allSchemas[(int(seed)+size)%len(allSchemas)])
		}
	}
}

func countKind(g *dfg.Graph, k dfg.Kind) int {
	n := 0
	for _, node := range g.Nodes {
		if node.Kind == k {
			n++
		}
	}
	return n
}
