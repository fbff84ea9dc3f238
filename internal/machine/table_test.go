package machine

import (
	"reflect"
	"testing"

	"ctdf/internal/dfg"
	"ctdf/internal/lang"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// TestRunFollowsAGrownGraph: reruns of an unchanged graph share its
// operator table; a graph grown after its first run — by Add, Connect and
// an appended step program — runs on a new one, exactly as a fresh graph
// of the same nodes, arcs and step programs runs.
func TestRunFollowsAGrownGraph(t *testing.T) {
	g := benchGraph(t, workloads.MustByName("running-example"), translate.Options{Schema: translate.Schema2}, false)
	first, err := Run(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := g.OpTable()
	if _, err := Run(g, Config{Workers: 2}); err != nil || g.OpTable() != t0 {
		t.Fatalf("a rerun of an unchanged graph built a new table (err %v)", err)
	}
	// Start also feeds a constant, its negation and a fused negation of
	// that, whose result goes nowhere: three more firings, the same store.
	c := g.Add(&dfg.Node{Kind: dfg.Const, Val: 7})
	g.Connect(g.StartID, 0, c.ID, 0, true)
	u := g.Add(&dfg.Node{Kind: dfg.UnOp, Op: lang.OpNeg})
	g.Connect(c.ID, 0, u.ID, 0, false)
	f := g.Add(&dfg.Node{Kind: dfg.Fused, NIns: 1, NOuts: 1})
	g.Connect(u.ID, 0, f.ID, 0, false)
	g.Fusions = append(g.Fusions, dfg.FusedInfo{Node: f.ID, Steps: []dfg.FusedOp{{Kind: dfg.UnOp, Op: lang.OpNeg, A: dfg.FusedInput(0)}}, Outs: []int32{0}})

	fresh := dfg.NewGraph(g.Prog)
	fresh.Names = g.Names
	for _, n := range g.Nodes {
		cp := *n
		fresh.Add(&cp)
	}
	for _, a := range g.Arcs {
		fresh.Connect(a.From, a.FromPort, a.To, a.ToPort, a.Dummy)
	}
	fresh.Fusions = g.Fusions
	for _, workers := range []int{1, 2} {
		grown, err := Run(g, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(fresh, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(grown.Stats, want.Stats) || grown.Store.Snapshot() != want.Store.Snapshot() ||
			!reflect.DeepEqual(grown.EndValues, want.EndValues) {
			t.Fatalf("workers %d: the grown graph ran %+v, a fresh one %+v", workers, grown.Stats, want.Stats)
		}
		if grown.Stats.Ops != first.Stats.Ops+3 || grown.Store.Snapshot() != first.Store.Snapshot() {
			t.Fatalf("workers %d: the grown graph fired %d operators, want %d", workers, grown.Stats.Ops, first.Stats.Ops+3)
		}
	}
	if g.OpTable() == t0 {
		t.Fatal("the grown graph kept its first table")
	}
}

// TestRunValidatesBeforeLowering: the operator table indexes by arc
// endpoints without rechecking them, so a graph Validate rejects must
// never reach it — Run reports the validation error instead of panicking. A graph
// that already ran clean is validated again once it has grown.
func TestRunValidatesBeforeLowering(t *testing.T) {
	for _, grow := range []func(g *dfg.Graph){
		func(g *dfg.Graph) { g.Arcs = append(g.Arcs, dfg.Arc{From: int32(len(g.Nodes)) + 7, To: g.EndID}) },
		func(g *dfg.Graph) {
			g.Nodes = append(g.Nodes, &dfg.Node{ID: int32(len(g.Nodes)), Kind: dfg.Load, NIns: 1, Var: 1})
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
		{dfg.Op{}, 24},
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
