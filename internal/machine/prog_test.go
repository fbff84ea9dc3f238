package machine

import (
	"fmt"
	"reflect"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/lang"
	"ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// optionCombos mirrors the option list internal/vet's tests enumerate.
func optionCombos() []translate.Options {
	var out []translate.Options
	for _, schema := range []translate.Schema{
		translate.Schema1, translate.Schema2, translate.Schema2Opt,
		translate.Schema3, translate.Schema3Opt,
	} {
		out = append(out, translate.Options{Schema: schema})
	}
	return append(out,
		translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true},
		translate.Options{Schema: translate.Schema2Opt, ParallelReads: true},
		translate.Options{Schema: translate.Schema2Opt, ParallelArrayStores: true},
		translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true, ParallelReads: true, ParallelArrayStores: true},
		translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true, UseIStructures: true},
		translate.Options{Schema: translate.Schema3Opt, ParallelReads: true},
	)
}

// checkLowering holds lower(g) to g: the table changes how an operator is
// found, never what it is.
func checkLowering(t *testing.T, name string, g *dfg.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	p := lower(g)
	if len(p.ops) != len(g.Nodes) || len(p.targets) != len(g.Arcs) {
		t.Fatalf("%s: table has %d ops / %d targets, graph %d nodes / %d arcs",
			name, len(p.ops), len(p.targets), len(g.Nodes), len(g.Arcs))
	}
	for id, n := range g.Nodes {
		o := p.ops[id]
		if dfg.Kind(o.kind) != n.Kind || int(o.nIns) != n.NIns || lang.Op(o.code) != n.Op || o.val != n.Val {
			t.Fatalf("%s: %s lowered to %+v", name, n, o)
		}
		// The class bits are the node's firing-rule classes (pinned per
		// kind by dfg's TestFiringRuleClasses), nothing of the table's own.
		wantCost := 1
		if n.SplitPhase() {
			wantCost = 7
		}
		if o.flags&opSolo != 0 != n.FiresPerToken() || o.flags&opMatchSite != 0 != n.MatchSite() ||
			o.flags&opMem != 0 != n.SplitPhase() || p.cost(int32(id), 7) != wantCost {
			t.Fatalf("%s: %s lowered to class bits %03b", name, n, o.flags)
		}
		if n.NIns > p.maxIns {
			t.Fatalf("%s: maxIns %d below %s's %d", name, p.maxIns, n, n.NIns)
		}
		for port := 0; port < n.OutPorts(); port++ {
			arcs, span := g.OutArcs(id, port), p.out(int32(id), port)
			if len(arcs) != len(span) {
				t.Fatalf("%s: %s port %d: %d targets, %d arcs", name, n, port, len(span), len(arcs))
			}
			for i, ai := range arcs {
				a := g.Arcs[ai]
				if int(span[i].node) != a.To || int(span[i].port) != a.ToPort {
					t.Fatalf("%s: %s port %d target %d = %+v, arc %+v", name, n, port, i, span[i], a)
				}
			}
		}
		switch fi := g.FusionOf(id); {
		case n.Kind == dfg.Fused:
			if o.aux < 0 || &p.fusions[o.aux] != fi {
				t.Fatalf("%s: %s lost its step program (aux %d)", name, n, o.aux)
			}
		case o.aux != -1:
			t.Fatalf("%s: %s has side-table row %d", name, n, o.aux)
		}
	}
}

// TestLoweringIsTheGraph: every committed workload under every option
// combination, plain and optimized, linked graphs included, and a sweep of
// generated programs.
func TestLoweringIsTheGraph(t *testing.T) {
	graphs := 0
	check := func(name string, w workloads.Workload) {
		prog := w.Parse()
		if len(prog.Procs()) > 0 {
			if res, err := translate.TranslateLinked(prog); err == nil {
				checkLowering(t, name+"/linked", res.Graph)
				graphs++
			}
		}
		g, err := cfg.Build(prog)
		if err != nil {
			return // procedure workloads translate linked only
		}
		for i, o := range optionCombos() {
			res, err := translate.Translate(g, o)
			if err != nil {
				continue // combination rejected by the schema
			}
			checkLowering(t, fmt.Sprintf("%s/%d", name, i), res.Graph)
			if _, err := opt.Run(res); err == nil {
				checkLowering(t, fmt.Sprintf("%s/%d+opt", name, i), res.Graph)
			}
			graphs++
		}
	}
	for _, w := range workloads.All() {
		check(w.Name, w)
	}
	generated := 0
	for seed := int64(0); seed < 50; seed++ {
		for _, w := range []workloads.Workload{
			workloads.Random(seed, 6, 2),
			workloads.RandomUnstructured(seed, 3),
			workloads.RandomAliased(seed, 5, 2),
			workloads.Wide(1+int(seed)%9, 3),
			workloads.RandomProcs(seed, 3),
		} {
			check(w.Name, w)
			generated++
		}
	}
	if generated < 200 || graphs < 1000 {
		t.Fatalf("only %d generated programs / %d graphs checked; suite lost coverage", generated, graphs)
	}
}

// TestRunValidatesBeforeLowering: lowering indexes by arc endpoints
// without rechecking them, so a graph Validate rejects must never reach
// it — Run reports the validation error instead of panicking. A graph
// that already ran clean is validated again once it has grown.
func TestRunValidatesBeforeLowering(t *testing.T) {
	for _, grow := range []func(g *dfg.Graph){
		func(g *dfg.Graph) { g.Arcs = append(g.Arcs, dfg.Arc{From: len(g.Nodes) + 7, To: g.EndID}) },
		func(g *dfg.Graph) {
			g.Nodes = append(g.Nodes, &dfg.Node{ID: len(g.Nodes), Kind: dfg.Load, NIns: 1, Var: "x"})
		},
	} {
		g := benchGraph(t, workloads.MustByName("running-example"), translate.Options{Schema: translate.Schema2}, false)
		if _, err := Run(g, Config{}); err != nil {
			t.Fatal(err)
		}
		grow(g)
		if out, err := Run(g, Config{}); err == nil || out != nil {
			t.Fatalf("Run accepted a graph that grew an unfed node or an out-of-range arc (outcome %v)", out)
		}
	}
}

// TestRecordsArePlainOldData pins the hot records' layout: fixed sizes
// and pointer-free, so the buffers that hold them are noscan memory and a
// later field cannot silently bring back GC scan work.
func TestRecordsArePlainOldData(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
			return false
		case reflect.Array:
			return hasPointers(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if hasPointers(ty.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true
	}
	for _, rec := range []struct {
		v    interface{}
		size uintptr
	}{
		{tok{}, 24},
		{firing{}, 20},
		{matchEntry{}, 24},
		{op{}, 24},
	} {
		ty := reflect.TypeOf(rec.v)
		if ty.Size() != rec.size {
			t.Errorf("%s is %d bytes, want %d", ty, ty.Size(), rec.size)
		}
		if hasPointers(ty) {
			t.Errorf("%s carries a pointer", ty)
		}
	}
}
