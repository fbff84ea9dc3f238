// Package experiments regenerates every quantitative result reported in
// EXPERIMENTS.md: one experiment per paper artifact (figure, theorem,
// size bound, or parallelism claim), each producing a deterministic
// plain-text table. The CLI (`ctdf experiments`) and the repository's
// benchmark suite drive the same code.
package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/chanexec"
	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/machine"
	"ctdf/internal/obs/telemetry"
	graphopt "ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// Experiment is one reproducible measurement.
type Experiment struct {
	ID    string
	Title string
	// Paper names the artifact reproduced.
	Paper string
	// Artifact is the JSON artifact file name this experiment writes
	// under `ctdf experiments -json DIR`.
	Artifact string
	// Asserts states the metric the experiment (and its tests) check.
	Asserts string
	run     func() ([]*table, error)
}

// All returns every experiment in report order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Schema 1 on the running example", "Figures 1, 3–5", "e1.json",
			"avg parallelism stays near 1 (sequential schedule) and the final store matches the interpreter", e1},
		{"E2", "Schema 2 exposes cross-statement parallelism", "Figures 6–8", "e2.json",
			"schema2 cycle count <= schema1's on every workload; speedup > 1 on independent-chains", e2},
		{"E3", "Schema 2 graph size is O(E·V)", "§3 size bound", "e3.json",
			"DFG arcs / (CFG edges x tokens) stays bounded by a small constant across the suite", e3},
		{"E4", "Redundant switch elimination on Figure 9", "Figure 9", "e4.json",
			"schema2-opt removes the switch for x and does not lengthen the critical path", e4},
		{"E5", "Switch placement = iterated control dependence", "Theorem 1 / Figure 10", "e5.json",
			"0 mismatches between iterated control dependence and the between-ness characterization", e5},
		{"E6", "Direct construction vs iterative elimination", "§4.2 / Figure 11", "e6.json",
			"iterative switch elimination reaches the direct construction's switch count on acyclic programs", e6},
		{"E7", "Cover choice: parallelism vs synchronization", "Figures 12–13, §5", "e7.json",
			"finer covers lower cycles and raise token collections; monolithic minimizes synchronization", e7},
		{"E8", "Array store parallelization", "Figure 14, §6.3", "e8.json",
			"sequential store time grows ~N*L while the parallelized loop approaches ~N+L", e8},
		{"E9", "Memory operation elimination", "§6.1", "e9.json",
			"unaliased scalar loads/stores drop to zero and cycle counts shrink (speedup >= 1)", e9},
		{"E10", "Read parallelization", "§6.2", "e10.json",
			"speedup of parallel reads grows with load latency L", e10},
		{"E11", "Schema comparison across the suite", "headline claim", "e11.json",
			"cycles are monotonically nonincreasing from schema1 through the §6 transformations", e11},
		{"E12", "Machine simulator vs goroutine engine", "§2.2 firing rules", "e12.json",
			"identical firing counts and final stores on every workload (dataflow determinacy)", e12},
		{"E13", "I-structure memory overlaps producer and consumer", "§6.3 (write-once arrays)", "e13.json",
			"I-structure speedup over access tokens grows with memory latency", e13},
		{"E14", "Alias structures derived from subroutine call sites", "§5 FORTRAN example", "e14.json",
			"derived classes equal the paper's {X,Z} {Y,Z} {X,Y,Z}; one compiled body is correct at every call site", e14},
		{"E15", "Separate compilation with activation contexts", "§2.2 (procedure invocations get activation contexts)", "e15.json",
			"linked graph size grows with procedure count, not call sites, and results agree with inlining", e15},
		{"E18", "Graph optimizer: fusion and switch sinking cut traffic and cycles", "Figure 9 generalized; §6 transformations composed post-translation", "e18.json",
			"tokens moved drop on every cell, and Figure 9 plus the loop workloads finish in fewer cycles than schema2-opt+elim alone", e18},
		{"E19", "Engine telemetry: invariant counters and the partition's token balance across worker counts", "observability of the partitioned machine (SCALING.md); byte-identical execution at every worker count", "e19.json",
			"cycles, firings, and the token counts of both lanes are invariant across worker counts; one shard receives every token at w=1, and the busiest of w>=4 shards less than half of them", e19},
	}
}

// Run executes the experiment and renders its tables as plain text (the
// exact format EXPERIMENTS.md embeds).
func (e Experiment) Run() (string, error) {
	ts, err := e.run()
	if err != nil {
		return "", err
	}
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, "\n"), nil
}

// tableJSON is the machine-readable form of one rendered table.
type tableJSON struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// artifact is the JSON document `ctdf experiments -json` writes per
// experiment.
type artifact struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Paper   string      `json:"paper"`
	Asserts string      `json:"asserts"`
	Tables  []tableJSON `json:"tables"`
}

// JSON executes the experiment and renders the result as an indented
// JSON artifact carrying the same tables as the text output plus the
// experiment's metadata and asserted metric.
func (e Experiment) JSON() ([]byte, error) {
	ts, err := e.run()
	if err != nil {
		return nil, err
	}
	a := artifact{ID: e.ID, Title: e.Title, Paper: e.Paper, Asserts: e.Asserts}
	for _, t := range ts {
		a.Tables = append(a.Tables, tableJSON{Columns: t.cols, Rows: t.rows})
	}
	return json.MarshalIndent(a, "", "  ")
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func translateW(w workloads.Workload, opt translate.Options) (*translate.Result, error) {
	g, err := cfg.Build(w.Parse())
	if err != nil {
		return nil, err
	}
	return translate.Translate(g, opt)
}

func runMachine(res *translate.Result, cfgc machine.Config) (*machine.Outcome, error) {
	return machine.Run(res.Graph, cfgc)
}

type table struct {
	cols   []string
	widths []int
	rows   [][]string
}

func newTable(cols ...string) *table {
	t := &table{cols: cols, widths: make([]int, len(cols))}
	for i, c := range cols {
		t.widths[i] = len(c)
	}
	return t
}

func (t *table) row(cells ...any) {
	r := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			r[i] = fmt.Sprintf("%.2f", v)
		default:
			r[i] = fmt.Sprint(c)
		}
		if len(r[i]) > t.widths[i] {
			t.widths[i] = len(r[i])
		}
	}
	t.rows = append(t.rows, r)
}

func (t *table) String() string {
	var b strings.Builder
	for i, c := range t.cols {
		fmt.Fprintf(&b, "%-*s  ", t.widths[i], c)
	}
	b.WriteString("\n")
	for i := range t.cols {
		b.WriteString(strings.Repeat("-", t.widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.rows {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", t.widths[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// e1: Schema 1 executes the running example sequentially.
func e1() ([]*table, error) {
	res, err := translateW(workloads.RunningExample, translate.Options{Schema: translate.Schema1})
	if err != nil {
		return nil, err
	}
	out, err := runMachine(res, machine.Config{MemLatency: 4})
	if err != nil {
		return nil, err
	}
	s := res.Graph.Stats()
	t := newTable("metric", "value")
	t.row("dataflow nodes", s.Nodes)
	t.row("dataflow arcs", s.Arcs)
	t.row("switches", s.Switches)
	t.row("access tokens", len(res.Universe))
	t.row("cycles (L=4, unlimited procs)", out.Stats.Cycles)
	t.row("operations fired", out.Stats.Ops)
	t.row("avg parallelism", out.Stats.AvgParallelism())
	t.row("final x", out.Store.Get("x"))
	t.row("final y", out.Store.Get("y"))
	return []*table{t}, nil
}

// e2: Schema 2 vs Schema 1 on the running example and a parallel workload.
func e2() ([]*table, error) {
	t := newTable("workload", "schema", "tokens", "cycles(L=4)", "ops", "avg par", "speedup")
	for _, w := range []workloads.Workload{workloads.RunningExample, workloads.MustByName("independent-chains")} {
		base := 0
		for _, schema := range []translate.Schema{translate.Schema1, translate.Schema2} {
			res, err := translateW(w, translate.Options{Schema: schema})
			if err != nil {
				return nil, err
			}
			out, err := runMachine(res, machine.Config{MemLatency: 4})
			if err != nil {
				return nil, err
			}
			if schema == translate.Schema1 {
				base = out.Stats.Cycles
			}
			t.row(w.Name, schema, len(res.Universe), out.Stats.Cycles, out.Stats.Ops,
				out.Stats.AvgParallelism(), float64(base)/float64(out.Stats.Cycles))
		}
	}
	return []*table{t}, nil
}

// e3: graph size scales as O(E·V).
func e3() ([]*table, error) {
	t := newTable("workload", "E (CFG edges)", "V (tokens)", "E·V", "DFG arcs", "arcs/(E·V)")
	ws := append([]workloads.Workload{}, workloads.All()...)
	for seed := int64(300); seed < 306; seed++ {
		ws = append(ws, workloads.Random(seed, 6, 2))
	}
	for _, w := range ws {
		res, err := translateW(w, translate.Options{Schema: translate.Schema2})
		if err != nil {
			return nil, err
		}
		e := res.CFG.NumEdges()
		v := len(res.Universe)
		t.row(w.Name, e, v, e*v, res.Graph.NumArcs(), float64(res.Graph.NumArcs())/float64(e*v))
	}
	return []*table{t}, nil
}

// e4: Figure 9 — the bypass removes the switch for x and shortens the
// critical path.
func e4() ([]*table, error) {
	t := newTable("schema", "switches", "switch for x", "cycles(L=8)")
	for _, schema := range []translate.Schema{translate.Schema2, translate.Schema2Opt} {
		res, err := translateW(workloads.Fig9Example, translate.Options{Schema: schema})
		if err != nil {
			return nil, err
		}
		swx := 0
		for _, n := range res.Graph.Nodes {
			if n.Kind == dfg.Switch && res.Graph.Name(n.Tok) == "x" {
				swx++
			}
		}
		out, err := runMachine(res, machine.Config{MemLatency: 8})
		if err != nil {
			return nil, err
		}
		t.row(schema, res.Graph.CountKind(dfg.Switch), swx, out.Stats.Cycles)
	}
	return []*table{t}, nil
}

// e5: Theorem 1 verified exhaustively over the suite plus random CFGs.
func e5() ([]*table, error) {
	ws := append([]workloads.Workload{}, workloads.All()...)
	for seed := int64(400); seed < 420; seed++ {
		ws = append(ws, workloads.Random(seed, 4, 2))
	}
	pairs, mismatches := 0, 0
	for _, w := range ws {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			return nil, err
		}
		cd := analysis.ComputeControlDeps(g)
		pdom := cd.PostDom()
		for n := range g.Nodes {
			cdp := cd.IteratedCD([]int{n})
			for f := range g.Nodes {
				pairs++
				if cdp[f] != analysis.BetweenWith(g, pdom, f, n) {
					mismatches++
				}
			}
		}
	}
	t := newTable("metric", "value")
	t.row("programs checked", len(ws))
	t.row("(F, N) pairs checked", pairs)
	t.row("Theorem 1 mismatches", mismatches)
	return []*table{t}, nil
}

// e6: the §4 iterative algorithm reaches the direct construction on
// acyclic programs.
func e6() ([]*table, error) {
	t := newTable("workload", "schema2 switches", "after iterative", "direct (Fig 11)", "agree")
	for _, w := range workloads.All() {
		g, err := cfg.Build(w.Parse())
		if err != nil {
			return nil, err
		}
		_, loops, err := cfg.InsertLoopControl(g)
		if err != nil || len(loops) > 0 {
			continue
		}
		s2, err := translate.Translate(g, translate.Options{Schema: translate.Schema2})
		if err != nil {
			return nil, err
		}
		direct, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt})
		if err != nil {
			return nil, err
		}
		before := s2.Graph.CountKind(dfg.Switch)
		if _, err := graphopt.EliminateRedundantSwitches(s2); err != nil {
			return nil, err
		}
		a := s2.Graph.CountKind(dfg.Switch)
		b := direct.Graph.CountKind(dfg.Switch)
		t.row(w.Name, before, a, b, a == b)
	}
	return []*table{t}, nil
}

// e7: covers trade parallelism against synchronization (§5).
func e7() ([]*table, error) {
	t := newTable("workload", "cover", "tokens", "token collections", "synch nodes", "cycles(L=6)", "avg par")
	for _, w := range []workloads.Workload{workloads.FortranAlias, workloads.MustByName("cover-tradeoff")} {
		prog := w.Parse()
		as := analysis.NewAliasStructure(prog)
		covers := []struct {
			name  string
			cover *analysis.Cover
		}{
			{"singleton", analysis.SingletonCover(as)},
			{"class", analysis.ClassCover(as)},
			{"monolithic", analysis.MonolithicCover(as)},
		}
		// Reference occurrences for the synchronization cost metric.
		g, err := cfg.Build(prog)
		if err != nil {
			return nil, err
		}
		var refs []string
		for id := range g.Nodes {
			refs = g.RefSet(refs, id)
		}
		sort.Strings(refs)

		for _, c := range covers {
			res, err := translateW(w, translate.Options{Schema: translate.Schema3, Cover: c.cover})
			if err != nil {
				return nil, err
			}
			out, err := runMachine(res, machine.Config{MemLatency: 6})
			if err != nil {
				return nil, err
			}
			t.row(w.Name, c.name, len(res.Universe), c.cover.SynchCost(as, refs),
				res.Graph.CountKind(dfg.Synch), out.Stats.Cycles, out.Stats.AvgParallelism())
		}
	}
	return []*table{t}, nil
}

// e8: Figure 14 — store time N·L sequential vs ~N+L parallelized.
func e8() ([]*table, error) {
	g, err := cfg.Build(workloads.Fig14ArrayLoop.Parse())
	if err != nil {
		return nil, err
	}
	seq, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true})
	if err != nil {
		return nil, err
	}
	par, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true, ParallelArrayStores: true})
	if err != nil {
		return nil, err
	}
	t := newTable("store latency L", "sequential cycles", "parallelized cycles", "speedup", "N·L floor")
	for _, lat := range []int{1, 5, 10, 20, 50} {
		so, err := machine.Run(seq.Graph, machine.Config{MemLatency: lat})
		if err != nil {
			return nil, err
		}
		po, err := machine.Run(par.Graph, machine.Config{MemLatency: lat})
		if err != nil {
			return nil, err
		}
		t.row(lat, so.Stats.Cycles, po.Stats.Cycles,
			float64(so.Stats.Cycles)/float64(po.Stats.Cycles), 10*lat)
	}
	return []*table{t}, nil
}

// e9: §6.1 memory elimination across scalar workloads.
func e9() ([]*table, error) {
	t := newTable("workload", "loads+stores", "after elim", "cycles(L=4)", "after elim ", "speedup")
	for _, w := range []workloads.Workload{
		workloads.RunningExample,
		workloads.MustByName("fib-iterative"),
		workloads.MustByName("gcd"),
		workloads.MustByName("nested-loops"),
		workloads.MustByName("independent-chains"),
	} {
		plain, err := translateW(w, translate.Options{Schema: translate.Schema2Opt})
		if err != nil {
			return nil, err
		}
		elim, err := translateW(w, translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true})
		if err != nil {
			return nil, err
		}
		po, err := runMachine(plain, machine.Config{MemLatency: 4})
		if err != nil {
			return nil, err
		}
		eo, err := runMachine(elim, machine.Config{MemLatency: 4})
		if err != nil {
			return nil, err
		}
		ps, es := plain.Graph.Stats(), elim.Graph.Stats()
		t.row(w.Name, ps.Loads+ps.Stores, es.Loads+es.Stores, po.Stats.Cycles, eo.Stats.Cycles,
			float64(po.Stats.Cycles)/float64(eo.Stats.Cycles))
	}
	return []*table{t}, nil
}

// e10: §6.2 read parallelization vs latency.
func e10() ([]*table, error) {
	w := workloads.MustByName("read-heavy")
	g, err := cfg.Build(w.Parse())
	if err != nil {
		return nil, err
	}
	seq, err := translate.Translate(g, translate.Options{Schema: translate.Schema2})
	if err != nil {
		return nil, err
	}
	par, err := translate.Translate(g, translate.Options{Schema: translate.Schema2, ParallelReads: true})
	if err != nil {
		return nil, err
	}
	t := newTable("load latency L", "sequential reads", "parallel reads", "speedup")
	for _, lat := range []int{1, 4, 8, 16, 32} {
		so, err := machine.Run(seq.Graph, machine.Config{MemLatency: lat})
		if err != nil {
			return nil, err
		}
		po, err := machine.Run(par.Graph, machine.Config{MemLatency: lat})
		if err != nil {
			return nil, err
		}
		t.row(lat, so.Stats.Cycles, po.Stats.Cycles, float64(so.Stats.Cycles)/float64(po.Stats.Cycles))
	}
	return []*table{t}, nil
}

// e11: the full schema comparison across the suite.
func e11() ([]*table, error) {
	schemas := []translate.Options{
		{Schema: translate.Schema1},
		{Schema: translate.Schema2},
		{Schema: translate.Schema2Opt},
		{Schema: translate.Schema2Opt, EliminateMemory: true},
		{Schema: translate.Schema2Opt, EliminateMemory: true, ParallelReads: true, ParallelArrayStores: true},
	}
	names := []string{"schema1", "schema2", "schema2-opt", "+mem-elim", "+all §6"}
	t := newTable("workload", "schema1", "schema2", "schema2-opt", "+mem-elim", "+all §6", "best speedup")
	_ = names
	for _, w := range workloads.All() {
		cells := []any{w.Name}
		base, best := 0, 1<<62
		for i, opt := range schemas {
			res, err := translateW(w, opt)
			if err != nil {
				return nil, err
			}
			out, err := runMachine(res, machine.Config{MemLatency: 4})
			if err != nil {
				return nil, err
			}
			c := out.Stats.Cycles
			if i == 0 {
				base = c
			}
			if c < best {
				best = c
			}
			cells = append(cells, c)
		}
		cells = append(cells, float64(base)/float64(best))
		t.row(cells...)
	}
	return []*table{t}, nil
}

// e13: I-structure memory (§6.3): with write-once arrays, the consumer
// loop's reads defer at the memory instead of waiting for the producer
// loop's access token, so the two loops overlap.
func e13() ([]*table, error) {
	w := workloads.MustByName("producer-consumer")
	g, err := cfg.Build(w.Parse())
	if err != nil {
		return nil, err
	}
	base, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true})
	if err != nil {
		return nil, err
	}
	ist, err := translate.Translate(g, translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true, UseIStructures: true})
	if err != nil {
		return nil, err
	}
	t := newTable("memory latency L", "access-token cycles", "I-structure cycles", "speedup")
	for _, lat := range []int{1, 4, 8, 16, 32} {
		bo, err := machine.Run(base.Graph, machine.Config{MemLatency: lat})
		if err != nil {
			return nil, err
		}
		io, err := machine.Run(ist.Graph, machine.Config{MemLatency: lat})
		if err != nil {
			return nil, err
		}
		t.row(lat, bo.Stats.Cycles, io.Stats.Cycles, float64(bo.Stats.Cycles)/float64(io.Stats.Cycles))
	}
	return []*table{t}, nil
}

// e14: the §5 FORTRAN example end to end: derive the alias structure of
// SUBROUTINE F(X,Y,Z) from CALL F(A,B,A) and CALL F(C,D,D), compile the
// body once under Schema 3, and execute it under each call site's storage
// binding.
func e14() ([]*table, error) {
	src := `
var a, b, c, d
proc f(x, y, z) {
  z := x + y
  x := x * 2
}
a := 1
b := 2
call f(a, b, a)
c := 10
d := 20
call f(c, d, d)
`
	prog := lang.MustParse(src)
	derived, err := analysis.DeriveAliasStructures(prog)
	if err != nil {
		return nil, err
	}
	f := derived["f"]
	classOf := func(v string) string {
		var out []string
		for _, w := range []string{"x", "y", "z"} {
			if f.Related(v, w) {
				out = append(out, w)
			}
		}
		return "{" + strings.Join(out, ",") + "}"
	}
	t := newTable("formal", "derived class", "paper (§5)")
	t.row("x", classOf("x"), "{X,Z}")
	t.row("y", classOf("y"), "{Y,Z}")
	t.row("z", classOf("z"), "{X,Y,Z}")

	// Compile once; run under each call site's binding.
	standalone, err := analysis.StandaloneProc(prog, "f", f)
	if err != nil {
		return nil, err
	}
	g, err := cfg.Build(standalone)
	if err != nil {
		return nil, err
	}
	res, err := translate.Translate(g, translate.Options{Schema: translate.Schema3})
	if err != nil {
		return nil, err
	}
	t2 := newTable("call site", "binding", "one graph correct")
	for _, cs := range prog.Calls() {
		b, err := analysis.CallBinding(prog, cs.Call)
		if err != nil {
			return nil, err
		}
		want, err := interp.Run(g, interp.Options{Binding: b})
		if err != nil {
			return nil, err
		}
		out, err := machine.Run(res.Graph, machine.Config{Binding: b, DetectRaces: true})
		if err != nil {
			return nil, err
		}
		var pairs []string
		for _, k := range []string{"x", "y", "z"} {
			pairs = append(pairs, k+"→"+b[k])
		}
		t2.row(cs.Call.String(), strings.Join(pairs, " "), out.Store.Snapshot() == want.Store.Snapshot())
	}
	return []*table{t, t2}, nil
}

// e15: separate compilation — each procedure body appears once, calls run
// it under fresh activation frames. Measured: graph size grows with
// procedure count (not call-site count) while concurrent activations keep
// the parallelism of inlining.
func e15() ([]*table, error) {
	mkSrc := func(nCalls int) string {
		src := "var a0, a1, a2, a3, a4, a5, a6, a7\n" +
			"proc work(x) {\n  x := x + 1\n  x := x * 3\n  x := x - 2\n  x := x * x\n  x := x % 97\n}\n"
		for i := 0; i < nCalls; i++ {
			src += fmt.Sprintf("call work(a%d)\n", i)
		}
		return src
	}
	t := newTable("call sites", "inlined nodes", "linked nodes", "inlined cycles(L=4)", "linked cycles(L=4)", "results agree")
	for _, n := range []int{1, 2, 4, 8} {
		prog := lang.MustParse(mkSrc(n))
		inCFG, err := cfg.Build(prog)
		if err != nil {
			return nil, err
		}
		inl, err := translate.Translate(inCFG, translate.Options{Schema: translate.Schema2Opt})
		if err != nil {
			return nil, err
		}
		lnk, err := translate.TranslateLinked(prog)
		if err != nil {
			return nil, err
		}
		io, err := machine.Run(inl.Graph, machine.Config{MemLatency: 4})
		if err != nil {
			return nil, err
		}
		lo, err := machine.Run(lnk.Graph, machine.Config{MemLatency: 4})
		if err != nil {
			return nil, err
		}
		t.row(n, inl.Graph.NumNodes(), lnk.Graph.NumNodes(),
			io.Stats.Cycles, lo.Stats.Cycles,
			io.Store.Snapshot() == lo.Store.Snapshot())
	}
	return []*table{t}, nil
}

// e12: the two engines agree exactly on results and firing counts.
func e12() ([]*table, error) {
	t := newTable("workload", "machine ops", "chanexec ops", "states agree")
	for _, w := range workloads.All() {
		res, err := translateW(w, translate.Options{Schema: translate.Schema2Opt})
		if err != nil {
			return nil, err
		}
		mo, err := runMachine(res, machine.Config{})
		if err != nil {
			return nil, err
		}
		co, err := chanexec.Run(res.Graph, chanexec.Config{})
		if err != nil {
			return nil, err
		}
		t.row(w.Name, mo.Stats.Ops, co.Ops, mo.Store.Snapshot() == co.Store.Snapshot())
	}
	return []*table{t}, nil
}

// optDelta is one before/after measurement of the graph optimizer
// (internal/opt) on a fixed workload × translation × machine config.
type optDelta struct {
	rewrites  int
	base, opt *machine.Outcome
	agree     bool
}

// measureOptDelta translates a workload, runs it, optimizes the graph,
// and runs it again under the same machine configuration. Both e18 and
// the experiment tests drive this helper so the asserted cells are the
// reported cells.
func measureOptDelta(name string, topt translate.Options, mc machine.Config) (*optDelta, error) {
	res, err := translateW(workloads.MustByName(name), topt)
	if err != nil {
		return nil, err
	}
	base, err := runMachine(res, mc)
	if err != nil {
		return nil, err
	}
	baseSnap := translate.FinalSnapshot(res, base.Store, base.EndValues)
	cert, err := graphopt.Run(res)
	if err != nil {
		return nil, err
	}
	out, err := runMachine(res, mc)
	if err != nil {
		return nil, err
	}
	return &optDelta{
		rewrites: cert.Rewrites(),
		base:     base,
		opt:      out,
		agree:    translate.FinalSnapshot(res, out.Store, out.EndValues) == baseSnap,
	}, nil
}

// e18: the post-translation graph optimizer — operator fusion, switch
// sinking (Figure 9 generalized to any switch the minimal placement
// proves redundant), merge collapsing, and dead-token elimination —
// measured as interconnect traffic (tokens moved), critical path
// (cycles), and operator firings, before and after, per schema.
func e18() ([]*table, error) {
	configs := []struct {
		label string
		topt  translate.Options
	}{
		{"schema2", translate.Options{Schema: translate.Schema2}},
		{"schema2-opt", translate.Options{Schema: translate.Schema2Opt}},
		{"schema2-opt+elim", translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}},
	}
	t := newTable("workload", "schema", "rewrites", "cycles(L=4)", "+opt", "tokens moved", "+opt", "fires", "+opt", "result ok")
	for _, name := range []string{
		"fig9-bypass", "running-example", "deep-expression",
		"fib-iterative", "gcd", "collatz-bounded", "sieve", "array-sum",
	} {
		for _, c := range configs {
			d, err := measureOptDelta(name, c.topt, machine.Config{MemLatency: 4})
			if err != nil {
				return nil, err
			}
			t.row(name, c.label, d.rewrites,
				d.base.Stats.Cycles, d.opt.Stats.Cycles,
				d.base.Stats.TokensMoved, d.opt.Stats.TokensMoved,
				d.base.Stats.Ops, d.opt.Stats.Ops, d.agree)
		}
	}
	return []*table{t}, nil
}

// e19: engine telemetry — the invariant counters and the partition's
// token balance across worker counts. Everything in this table is
// scheduling-independent: a run at any worker count is byte-identical to
// the one-worker run, so the counters depend only on the workload and the
// traffic matrix only on workload and worker count (the wall-time
// families the profiler also records are excluded here precisely because
// they vary). Tokens travel on the seq and mem lanes to the shard that
// owns their destination; busiest% is the largest share of them one shard
// receives.
func e19() ([]*table, error) {
	t := newTable("workload", "workers", "cycles", "firings", "tokens", "seq", "mem", "busiest%")
	cases := []workloads.Workload{
		workloads.MustByName("fib-iterative"),
		workloads.Wide(64, 60),
		workloads.Random(4242, 16, 3),
	}
	for _, w := range cases {
		for _, workers := range []int{1, 4, 8} {
			res, err := translateW(w, translate.Options{Schema: translate.Schema2Opt})
			if err != nil {
				return nil, err
			}
			reg := telemetry.NewRegistry()
			if _, err := runMachine(res, machine.Config{MemLatency: 4, Workers: workers, Telemetry: reg}); err != nil {
				return nil, err
			}
			b := reg.Snapshot().MachineBreakdown()
			perDst := map[string]int64{}
			var busiest int64
			for _, c := range b.Traffic {
				perDst[c.Dst] += c.Tokens
				busiest = max(busiest, perDst[c.Dst])
			}
			t.row(w.Name, workers, b.Cycles, b.Firings, b.Tokens, b.SeqTokens, b.MemTokens,
				fmt.Sprintf("%.2f", 100*float64(busiest)/float64(b.Tokens)))
		}
	}
	return []*table{t}, nil
}
