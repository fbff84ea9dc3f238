package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func mustRing(t *testing.T, n int) *RingSink {
	t.Helper()
	r, err := NewRingSink(n)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingSinkWraps(t *testing.T) {
	r := mustRing(t, 3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Cycle: i, Type: EvFire})
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("retained %d events, want 3", len(ev))
	}
	for i, e := range ev {
		if e.Cycle != i+2 {
			t.Errorf("event %d has cycle %d, want %d (oldest-first)", i, e.Cycle, i+2)
		}
	}
}

func TestNDJSONSinkOneObjectPerLine(t *testing.T) {
	var b strings.Builder
	s := NewNDJSONSink(&b)
	s.Emit(Event{Cycle: 1, Type: EvFire, Node: 2, Kind: "binop", Tag: "0", Cost: 1})
	s.Emit(Event{Cycle: 3, Type: EvWait, Node: 4, Kind: "store", Tag: "0.1"})
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e != (Event{Cycle: 1, Type: EvFire, Node: 2, Kind: "binop", Tag: "0", Cost: 1}) {
		t.Errorf("round-trip mismatch: %+v", e)
	}
	var w Event
	if err := json.Unmarshal([]byte(lines[1]), &w); err != nil {
		t.Fatal(err)
	}
	if w.Type != EvWait || w.Cost != 0 {
		t.Errorf("wait event round-trip mismatch: %+v", w)
	}
}

func TestRingSinkRejectsNonPositiveCapacity(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if r, err := NewRingSink(n); err == nil {
			t.Errorf("NewRingSink(%d) = %v, want error", n, r)
		}
	}
	if _, err := NewRingSink(1); err != nil {
		t.Errorf("NewRingSink(1) rejected: %v", err)
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	a, b := mustRing(t, 8), mustRing(t, 8)
	m := MultiSink{a, b}
	m.Emit(Event{Cycle: 7, Type: EvFire})
	if a.Total() != 1 || b.Total() != 1 {
		t.Errorf("fan-out failed: %d, %d", a.Total(), b.Total())
	}
}

func TestTraceSinkFormatAndFilter(t *testing.T) {
	var b strings.Builder
	s := &TraceSink{W: &b, Labels: []string{"d0: start", "d1: binop +"}}
	s.Emit(Event{Cycle: 12, Type: EvFire, Node: 1, Tag: "0.1"})
	s.Emit(Event{Cycle: 13, Type: EvWait, Node: 1, Tag: "0.1"}) // not traced
	s.Emit(Event{Cycle: 14, Type: EvFire, Node: 1, Tag: ""})    // root tag renders empty
	want := "cycle 12: d1: binop + [tag 0.1]\ncycle 14: d1: binop + [tag ]\n"
	if b.String() != want {
		t.Errorf("trace output %q, want %q", b.String(), want)
	}
}

func TestNilCollectorNoOps(t *testing.T) {
	var c *Collector
	c.BindTags(func(int32) string { return "" })
	if got := c.Fire(3, 1, 1, 2, 0, 1, []int32{5}); got != noDep {
		t.Errorf("nil Fire returned %d", got)
	}
	c.Emitted(3, 2)
	c.Wait(3, 1, 0, 1, noDep)
	if c.Report(0, nil) != nil {
		t.Error("nil Report should be nil")
	}
	if c.Meta() != nil || c.Record() != nil {
		t.Error("nil collector leaks state")
	}
	var nc *NodeCounters
	nc.Inc(0)
	nc.ObserveClock(0, 5)
	if nc.Firings() != nil {
		t.Error("nil NodeCounters.Firings should be nil")
	}
	if nc.Clocks() != nil {
		t.Error("nil NodeCounters.Clocks should be nil")
	}
}

// TestRecordRowsArePlainOldData pins the record's row layout: fixed width
// and pointer-free, so a long run's record is noscan memory.
func TestRecordRowsArePlainOldData(t *testing.T) {
	for _, row := range []struct {
		v    interface{}
		size uintptr
	}{{Firing{}, 32}, {Park{}, 20}} {
		ty := reflect.TypeOf(row.v)
		if ty.Size() != row.size {
			t.Errorf("%s is %d bytes, want %d", ty, ty.Size(), row.size)
		}
		for i := 0; i < ty.NumField(); i++ {
			if k := ty.Field(i).Type.Kind(); k != reflect.Int32 && k != reflect.Int64 {
				t.Errorf("%s.%s is a %s", ty, ty.Field(i).Name, k)
			}
		}
	}
}

// TestRecordDepsAndFinish checks the producer arena and the chain length
// a firing's row carries: Cost plus its producers' largest Finish.
func TestRecordDepsAndFinish(t *testing.T) {
	var r Record
	a := r.AddFire(0, 0, 1, 0, 0, nil)
	b := r.AddFire(1, 0, 4, 0, 0, nil)
	c := r.AddFire(2, 4, 1, 0, 0, []int32{a, b})
	d := r.AddFire(3, 5, 1, 0, 0, []int32{b, c})
	want := []struct {
		deps   []int32
		finish int64
	}{{nil, 1}, {nil, 4}, {[]int32{a, b}, 5}, {[]int32{b, c}, 6}}
	for i, w := range want {
		got := r.Deps(int32(i))
		if !reflect.DeepEqual(append([]int32(nil), got...), w.deps) || r.Fires[i].Finish != w.finish {
			t.Errorf("firing %d: deps %v finish %d, want %v finish %d", i, got, r.Fires[i].Finish, w.deps, w.finish)
		}
	}
	// The first producer of maximal Finish, earliest arrival on a tie.
	if p := r.pred(d); p != c {
		t.Errorf("pred(%d) = %d, want %d", d, p, c)
	}
	r.Fires[a].Finish = 4
	if p := r.pred(c); p != a {
		t.Errorf("tie: pred(%d) = %d, want the first-arrived %d", c, p, a)
	}
	if p := r.pred(a); p != noDep {
		t.Errorf("pred of a root firing = %d", p)
	}
}

func TestNewCountersReportAggregates(t *testing.T) {
	meta := []NodeMeta{
		{Node: 0, Kind: "start", Label: "d0: start"},
		{Node: 1, Kind: "binop", Label: "d1: binop +"},
		{Node: 2, Kind: "binop", Label: "d2: binop *"},
	}
	r := NewCountersReport(meta, []int64{0, 4, 6}, []int64{0, 2, 3})
	if r.Ops != 10 {
		t.Errorf("ops = %d, want 10", r.Ops)
	}
	if r.Nodes[1].LamportMax != 2 || r.Nodes[2].LamportMax != 3 {
		t.Errorf("lamport clocks not carried: %+v", r.Nodes)
	}
	if len(r.ByKind) != 2 || r.ByKind[0].Kind != "binop" || r.ByKind[0].Firings != 10 {
		t.Errorf("byKind = %+v", r.ByKind)
	}
	if got := r.NodeFirings(); got[1] != 4 || got[2] != 6 {
		t.Errorf("node firings = %v", got)
	}
}

func TestCompare(t *testing.T) {
	a := &Report{Schema: "schema1", Cycles: 100, Ops: 50,
		ByKind: []KindStats{{Kind: "load", Nodes: 2, Firings: 20}}}
	b := &Report{Schema: "schema2", Cycles: 40, Ops: 60,
		ByKind: []KindStats{{Kind: "load", Nodes: 2, Firings: 20}, {Kind: "switch", Nodes: 1, Firings: 10}}}
	d := Compare(a, b)
	if d.A != "schema1" || d.B != "schema2" {
		t.Errorf("labels %q, %q", d.A, d.B)
	}
	var cycles *MetricDelta
	for i := range d.Metrics {
		if d.Metrics[i].Metric == "cycles" {
			cycles = &d.Metrics[i]
		}
	}
	if cycles == nil || cycles.Delta != -60 || cycles.Ratio != 2.5 {
		t.Errorf("cycles delta = %+v", cycles)
	}
	if len(d.ByKind) != 2 {
		t.Errorf("byKind rows = %d, want 2", len(d.ByKind))
	}
	txt := d.Text()
	for _, want := range []string{"schema1 vs schema2", "cycles", "switch"} {
		if !strings.Contains(txt, want) {
			t.Errorf("diff text missing %q", want)
		}
	}
}

func TestHistogram(t *testing.T) {
	bins := histogram([]int{0, 2, 2, 1, 0, 0})
	want := []HistBin{{0, 3}, {1, 1}, {2, 2}}
	if len(bins) != len(want) {
		t.Fatalf("bins = %v", bins)
	}
	for i := range want {
		if bins[i] != want[i] {
			t.Errorf("bin %d = %+v, want %+v", i, bins[i], want[i])
		}
	}
	if histogram(nil) != nil {
		t.Error("empty profile should give nil histogram")
	}
}
