package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// streamRecord is a hand-built record: two firings, a park at the second
// firing's cycle, a fault between them, and an abort.
func streamRecord() ([]NodeMeta, *Record) {
	meta := []NodeMeta{
		{Node: 0, Kind: "start", Label: "d0: start"},
		{Node: 1, Kind: "binop", Label: "d1: binop +"},
		{Node: 2, Kind: "store", Label: "d2: store x"},
	}
	r := &Record{Tags: []string{"", "0.1"}}
	r.AddFire(1, 0, 1, 0, 1, nil)
	r.Faults = append(r.Faults, Fault{Node: 2, Cycle: 1, Class: "dup-token", fires: 1})
	r.Parks = append(r.Parks, Park{Node: 2, Cycle: 1, Tag: 1, Dep: 0})
	r.AddFire(2, 1, 4, 0, 0, []int32{0})
	r.AbortCheck, r.AbortCycle = "TagViolation", 2
	return meta, r
}

// TestWriteEventsOneObjectPerLine checks the stream's line order — meta,
// then parks ahead of a cycle's firings with each fault where it was
// recorded, then the abort, then the summary — and its round trip.
func TestWriteEventsOneObjectPerLine(t *testing.T) {
	meta, r := streamRecord()
	var b strings.Builder
	if err := WriteEvents(&b, meta, r, &Report{Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	want := []EventType{EvMeta, EvMeta, EvMeta, EvFire, EvFault, EvWait, EvFire, EvAbort, EvSummary}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), b.String())
	}
	evs := make([]Event, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &evs[i]); err != nil {
			t.Fatal(err)
		}
		if evs[i].Type != want[i] {
			t.Errorf("line %d is %q, want %q", i, evs[i].Type, want[i])
		}
	}
	if evs[3] != (Event{Cycle: 0, Type: EvFire, Node: 1, Kind: "binop", Tag: "0.1", Cost: 1}) {
		t.Errorf("fire round-trip mismatch: %+v", evs[3])
	}
	if evs[4] != (Event{Cycle: 1, Type: EvFault, Node: 2, Kind: "store", Detail: "dup-token"}) {
		t.Errorf("fault round-trip mismatch: %+v", evs[4])
	}
	if evs[5] != (Event{Cycle: 1, Type: EvWait, Node: 2, Kind: "store", Tag: "0.1"}) {
		t.Errorf("wait round-trip mismatch: %+v", evs[5])
	}
	if evs[7] != (Event{Cycle: 2, Type: EvAbort, Node: -1, Detail: "TagViolation"}) {
		t.Errorf("abort round-trip mismatch: %+v", evs[7])
	}
	// Without a record (the channel engine) the stream is meta + summary.
	b.Reset()
	if err := WriteEvents(&b, meta, nil, &Report{}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "\n"); n != len(meta)+1 {
		t.Errorf("record-free stream has %d lines, want %d", n, len(meta)+1)
	}
}

// TestWriteTraceFormat pins the trace line format: firings only, the
// root tag rendering empty.
func TestWriteTraceFormat(t *testing.T) {
	meta, r := streamRecord()
	var b strings.Builder
	if err := WriteTrace(&b, meta, r); err != nil {
		t.Fatal(err)
	}
	want := "cycle 0: d1: binop + [tag 0.1]\ncycle 1: d2: store x [tag ]\n"
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
