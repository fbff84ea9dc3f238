package vet

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/lang"
	"ctdf/internal/machcheck"
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

// TestGatherEndsOnSynchCycle: two synchs feed each other ahead of a
// memory operation's access input. The gather walk passes each synch
// once, so vet returns. With nothing else entering the cycle it begins no
// line, and alias-cover reports every token of the operation's access
// set; with the operation's old feed as a second operand of the cycle, it
// reports none of them.
func TestGatherEndsOnSynchCycle(t *testing.T) {
	res := mustTranslate(t, "fortran-alias", translate.Options{Schema: translate.Schema3})
	var op *dfg.Node
	for _, n := range memoryOps(res.Graph) {
		if in, _ := accessPorts(n.Kind); len(res.TokensOf[res.Graph.Name(n.Var)]) >= 2 && len(res.Graph.Index().In(n.ID, in)) == 1 {
			op = n
			break
		}
	}
	if op == nil {
		t.Fatal("no memory operation of fortran-alias holds two cover elements under Schema 3")
	}
	in, _ := accessPorts(op.Kind)
	for _, fed := range []bool{false, true} {
		e := dfg.NewEditor(res.Graph)
		access := e.Ins().Only(e.Ins().Slot(op.ID, int32(in)))
		feed := e.Arcs[access]
		a := e.AddNode(&dfg.Node{Kind: dfg.Synch, NIns: 1})
		b := e.AddNode(&dfg.Node{Kind: dfg.Synch, NIns: 1})
		e.AddArc(dfg.Arc{From: b, To: a})
		e.AddArc(dfg.Arc{From: a, To: b})
		if fed {
			e.Nodes[a].NIns = 2
			e.AddArc(dfg.Arc{From: feed.From, FromPort: feed.FromPort, To: a, ToPort: 1})
		}
		e.MoveSource(access, a, 0)
		g, err := e.Graph()
		if err != nil {
			t.Fatal(err)
		}
		var missing []string
		for _, d := range Run(g, res).Diags {
			if d.Pass == "alias-cover" && d.Node == int(op.ID) && strings.Contains(d.Msg, "does not gather") {
				missing = append(missing, d.Tok)
			}
		}
		want := res.TokensOf[res.Graph.Name(op.Var)]
		if fed {
			want = nil
		}
		if !slices.Equal(missing, want) {
			t.Errorf("fed=%v: %s misses %v, want %v", fed, res.Graph.Label(op), missing, want)
		}
	}
}

// TestGatherParallelStoreBeginsCompletion: a §6.3 parallelized store's
// access output begins its loop's completion token, not the array's
// (Figure 14(b)): the array's line resumes only at the loop exits, where
// the completion line rejoins it. A load after the loop rewired to take
// its access input straight from the parallel store has gathered the
// completion token alone, and alias-cover must report the array's.
func TestGatherParallelStoreBeginsCompletion(t *testing.T) {
	prog := lang.MustParse("var i, s\narray a[8]\nwhile i < 8 {\n  a[i] := i\n  i := i + 1\n}\ns := a[3]\n")
	res, err := translate.Translate(cfg.MustBuild(prog), translate.Options{Schema: translate.Schema2Opt, ParallelArrayStores: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ParallelStores) != 1 {
		t.Fatalf("want the loop's store of a parallelized, got %+v", res.ParallelStores)
	}
	if rep := Run(res.Graph, res); !rep.Clean() {
		t.Fatalf("translated graph not clean:\n%s", rep)
	}
	var store, load *dfg.Node
	for _, n := range memoryOps(res.Graph) {
		switch {
		case n.Kind == dfg.StoreIdx && int(n.Stmt) == res.ParallelStores[0].StoreStmt:
			store = n
		case n.Kind == dfg.LoadIdx && res.Graph.Name(n.Var) == "a":
			load = n
		}
	}
	if store == nil || load == nil {
		t.Fatalf("no parallel store (%v) or later load (%v) of a", store, load)
	}
	e := dfg.NewEditor(res.Graph)
	in, _ := accessPorts(load.Kind)
	_, out := accessPorts(store.Kind)
	access := e.Ins().Only(e.Ins().Slot(load.ID, int32(in)))
	e.MoveSource(access, store.ID, int32(out))
	var missing []string
	for _, d := range Run(mustGraph(t, e), res).Diags {
		if d.Pass == "alias-cover" && d.Node == int(load.ID) && strings.Contains(d.Msg, "does not gather") {
			missing = append(missing, d.Tok)
		}
	}
	if want := res.TokensOf["a"]; !slices.Equal(missing, want) {
		t.Errorf("load fed by the parallel store misses %v, want %v", missing, want)
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

	type stmtTok struct {
		stmt int
		tok  string
	}
	emitted := map[stmtTok]bool{}
	for _, n := range res.Graph.Nodes {
		if n.Kind == dfg.Switch {
			emitted[stmtTok{int(n.Stmt), res.Graph.Name(n.Tok)}] = true
		}
	}
	recomputed := map[stmtTok]bool{}
	for f, toks := range pi.plan.Placement.Needs {
		if f < 0 || f >= res.CFG.Len() || res.CFG.Nodes[f].Kind != cfg.KindFork {
			continue
		}
		for _, tok := range toks {
			recomputed[stmtTok{f, pi.plan.Placement.Universe[tok]}] = true
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

// nestedDiamond nests one conditional in another: m is written in every
// arm, so each fork needs its switch for m and the two joins merge it,
// the inner merge feeding the outer one; x is touched by neither arm, so
// under Schema 2 its switch/merge pairs are removable (Figure 9).
var nestedDiamond = workloads.Workload{Name: "nested-diamond", Source: `
var a, b, m, x
x := x + 1
if a < b {
  if a < 3 {
    m := 1
  } else {
    m := 2
  }
} else {
  m := 3
}
x := 0
`}

// TestVetRejectsSplicedMerge: a merge the recomputed source vectors do
// not expect — here spliced, with one input, onto the token line into a
// loop exit — is an error of the source-vectors pass, not a warning: the
// graph and vet's Figure 11 disagree.
func TestVetRejectsSplicedMerge(t *testing.T) {
	res := mustTranslate(t, "running-example", translate.Options{Schema: translate.Schema2Opt})
	i := slices.IndexFunc(res.Graph.Nodes, func(n *dfg.Node) bool { return n.Kind == dfg.LoopExit })
	if i < 0 {
		t.Fatal("no loop exit")
	}
	lx := res.Graph.Nodes[i]
	e := dfg.NewEditor(res.Graph)
	in := e.Ins().First(e.Ins().Slot(lx.ID, 0))
	a := e.Arcs[in]
	m := e.AddNode(&dfg.Node{Kind: dfg.Merge, Tok: lx.Tok, Stmt: lx.Stmt})
	e.KillArc(in)
	e.AddArc(dfg.Arc{From: a.From, FromPort: a.FromPort, To: m, Dummy: a.Dummy})
	e.AddArc(dfg.Arc{From: m, To: lx.ID, Dummy: a.Dummy})
	rep := Run(mustGraph(t, e), res)
	if !slices.Contains(rep.Detectors(), "source-vectors") {
		t.Errorf("merge of %s spliced in at %s: want an error from source-vectors, detectors %v:\n%s", res.Graph.Name(lx.Tok), res.CFG.Nodes[lx.Stmt], rep.Detectors(), rep)
	}
}

// TestVetJudgesRemovalsByGraph: vet decides whether a switch or merge may
// be absent from the graph and the CFG alone. Each case hand-edits the
// Schema 2 graph of nestedDiamond the way a rewrite would.
func TestVetJudgesRemovalsByGraph(t *testing.T) {
	g, err := cfg.Build(nestedDiamond.Parse())
	if err != nil {
		t.Fatal(err)
	}
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema2})
	if err != nil {
		t.Fatal(err)
	}
	if rep := Run(res.Graph, res); !rep.Clean() {
		t.Fatalf("unedited graph not clean:\n%s", rep)
	}
	edited := *res
	edited.Opt = &translate.OptCertificate{}

	// merge finds the merge of tok whose output feeds a merge (inner) or
	// not (outer).
	merge := func(t *testing.T, tok string, inner bool) *dfg.Node {
		idx := res.Graph.Index()
		for _, n := range res.Graph.Nodes {
			if n.Kind != dfg.Merge || res.Graph.Name(n.Tok) != tok {
				continue
			}
			out := idx.Out(n.ID, 0)
			if len(out) > 0 && (res.Graph.Nodes[res.Graph.Arcs[out[0]].To].Kind == dfg.Merge) == inner {
				return n
			}
		}
		t.Fatalf("no %v merge of %s", inner, tok)
		return nil
	}
	// switchInto finds the switch of mg's token whose arms reach mg and
	// no other merge, and the nodes between them.
	switchInto := func(t *testing.T, mg *dfg.Node) (*dfg.Node, []int32) {
		idx := res.Graph.Index()
		for _, sw := range res.Graph.Nodes {
			if sw.Kind != dfg.Switch || sw.Tok != mg.Tok {
				continue
			}
			var region []int32
			seen := map[int32]bool{}
			reaches, other := false, false
			stack := []int32{sw.ID}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, a := range idx.OutOf(v) {
					to := res.Graph.Arcs[a].To
					switch {
					case to == mg.ID:
						reaches = true
					case res.Graph.Nodes[to].Kind == dfg.Merge:
						other = true
					case !seen[to]:
						seen[to] = true
						region = append(region, to)
						stack = append(stack, to)
					}
				}
			}
			if reaches && !other && !seen[res.Graph.EndID] {
				return sw, region
			}
		}
		t.Fatalf("no switch of %s feeds d%d", res.Graph.Name(mg.Tok), mg.ID)
		return nil, nil
	}
	// sink removes sw and mg the way sink-switches does, after deleting
	// the nodes between them: sw's data source feeds mg's consumers.
	sink := func(t *testing.T, sw, mg *dfg.Node, region []int32) *dfg.Graph {
		e := dfg.NewEditor(res.Graph)
		for _, id := range region {
			e.KillArcsInto(id)
			e.Remove(id)
		}
		data := e.Arcs[e.Ins().First(e.Ins().Slot(sw.ID, 0))]
		for slot := e.Outs().Slot(mg.ID, 0); e.Outs().First(slot) >= 0; {
			e.MoveSource(e.Outs().First(slot), data.From, data.FromPort)
		}
		e.KillArcsInto(sw.ID)
		e.KillArcsInto(mg.ID)
		e.Remove(sw.ID)
		e.Remove(mg.ID)
		return mustGraph(t, e)
	}
	errorsOf := func(rep *Report, pass string, check machcheck.Check, msg string) int {
		n := 0
		for _, d := range rep.Diags {
			if d.Severity == SevError && d.Pass == pass && (check == "" || d.Check == check) && strings.Contains(d.Msg, msg) {
				n++
			}
		}
		return n
	}

	t.Run("required-pair-removed", func(t *testing.T) {
		// Theorem 1 requires the inner fork's switch for m: removing it
		// is unsound even though an edit pass ran.
		mg := merge(t, "m", true)
		sw, region := switchInto(t, mg)
		rep := Run(sink(t, sw, mg, region), &edited)
		if errorsOf(rep, "switch-placement", machcheck.Determinacy, "missing switch for token m") == 0 {
			t.Errorf("required switch removed, yet switch-placement reports no determinacy error:\n%s", rep)
		}
	})

	t.Run("merge-deleted-under-non-merge", func(t *testing.T) {
		// The outer join's merge of x feeds the store x := 0. Deleting it
		// and wiring both arms to its consumers is no collapse.
		mg := merge(t, "x", false)
		e := dfg.NewEditor(res.Graph)
		arms, outs := e.Ins().Slot(mg.ID, 0), e.Outs().Slot(mg.ID, 0)
		for ii := e.Ins().First(arms); ii >= 0; ii = e.Ins().Next(ii) {
			for oi := e.Outs().First(outs); oi >= 0; oi = e.Outs().Next(oi) {
				in, out := e.Arcs[ii], e.Arcs[oi]
				e.AddArc(dfg.Arc{From: in.From, FromPort: in.FromPort, To: out.To, ToPort: out.ToPort, Dummy: out.Dummy})
			}
		}
		for e.Outs().First(outs) >= 0 {
			e.KillArc(e.Outs().First(outs))
		}
		e.KillArcsInto(mg.ID)
		e.Remove(mg.ID)
		rep := Run(mustGraph(t, e), &edited)
		if errorsOf(rep, "determinacy", "", "") == 0 || errorsOf(rep, "source-vectors", "", "missing merge for token x") == 0 {
			t.Errorf("merge deleted under a store: want errors from determinacy and source-vectors:\n%s", rep)
		}
	})

	t.Run("merge-chain-collapsed", func(t *testing.T) {
		inner := merge(t, "m", true)
		e := dfg.NewEditor(res.Graph)
		out := e.Outs().First(e.Outs().Slot(inner.ID, 0))
		outer := e.Arcs[out].To
		arms := e.Ins().Slot(inner.ID, 0)
		for ii := e.Ins().First(arms); ii >= 0; ii = e.Ins().First(arms) {
			a := e.Arcs[ii]
			e.AddArc(dfg.Arc{From: a.From, FromPort: a.FromPort, To: outer, ToPort: 0, Dummy: a.Dummy})
			e.KillArc(ii)
		}
		e.KillArc(out)
		e.Remove(inner.ID)
		if rep := Run(mustGraph(t, e), res); !rep.Clean() {
			t.Errorf("collapsed merge chain not clean:\n%s", rep)
		}
	})

	t.Run("unrequired-pair-removed", func(t *testing.T) {
		// The inner fork's switch for x is not required, and its arms
		// feed the inner merge directly: the sink-switches shape.
		mg := merge(t, "x", true)
		sw, region := switchInto(t, mg)
		if len(region) != 0 {
			t.Fatalf("switch d%d reaches its merge through %v", sw.ID, region)
		}
		g := sink(t, sw, mg, nil)
		if rep := Run(g, res); errorsOf(rep, "switch-placement", machcheck.InvalidConfig, "missing switch for token x") == 0 {
			t.Errorf("no edit pass ran, yet the contract's switch for x may be absent:\n%s", rep)
		}
		if rep := Run(g, &edited); !rep.Clean() {
			t.Errorf("an edit pass ran and the switch was not required, yet:\n%s", rep)
		}
	})
}

func mustGraph(t *testing.T, e *dfg.Editor) *dfg.Graph {
	t.Helper()
	g, err := e.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
