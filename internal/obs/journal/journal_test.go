package journal

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

func translateWorkload(t *testing.T, w workloads.Workload, opt translate.Options) *translate.Result {
	t.Helper()
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// record runs the machine with the collector keeping the run's record
// and returns the journal built from it plus the collector's report.
func record(t *testing.T, g *dfg.Graph, label string, jcfg Config, mcfg machine.Config) (*Journal, *obs.Report) {
	t.Helper()
	col := obs.NewCollector(g, obs.Options{CriticalPath: true})
	mcfg.Collector = col
	out, err := machine.Run(g, mcfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return New(g, col, label, jcfg, out.Stats.Cycles), col.Report(out.Stats.Cycles, out.Stats.Profile)
}

// TestCriticalPathFollowsFirstMaxFinishDeps checks the critical path as a
// query over the record, on every workload, schema, latency and processor
// count: its last step is end's first firing, each step is the first
// producer of maximal chain length of the step after it, and every
// firing's chain length is its cost plus its producers' largest — the
// longest weighted provenance path, whose value at end is the Length.
func TestCriticalPathFollowsFirstMaxFinishDeps(t *testing.T) {
	schemas := []translate.Options{
		{Schema: translate.Schema1},
		{Schema: translate.Schema2},
		{Schema: translate.Schema2Opt},
	}
	for _, w := range workloads.All() {
		for _, opt := range schemas {
			res := translateWorkload(t, w, opt)
			for _, lat := range []int{1, 4} {
				for _, procs := range []int{0, 1, 3} {
					label := fmt.Sprintf("%s/%v lat=%d P=%d", w.Name, opt.Schema, lat, procs)
					j, rep := record(t, res.Graph, w.Name, Config{Processors: procs, MemLatency: lat}, machine.Config{MemLatency: lat, Processors: procs})
					if err := j.CheckLinearization(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					cp := rep.CriticalPath
					if cp == nil || len(cp.Steps) == 0 {
						t.Fatalf("%s: no critical path", label)
					}
					longest := make([]int64, len(j.Fires))
					for i := range j.Fires {
						var m int64
						for _, d := range j.Deps(int32(i)) {
							m = max(m, longest[d])
						}
						longest[i] = m + int64(j.Fires[i].Cost)
						if j.Fires[i].Finish != longest[i] {
							t.Fatalf("%s: firing #%d finish %d, longest path %d", label, i, j.Fires[i].Finish, longest[i])
						}
					}
					ends, err := ResolveAnchor(j, fmt.Sprintf("d%d@root", res.Graph.EndID))
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					id := ends[0]
					if cp.Length != longest[id] || cp.Ops != len(cp.Steps) {
						t.Errorf("%s: length %d over %d ops, end's longest path %d over %d steps", label, cp.Length, cp.Ops, longest[id], len(cp.Steps))
					}
					for k := len(cp.Steps) - 1; k >= 0; k-- {
						f, s := &j.Fires[id], cp.Steps[k]
						if int(f.Node) != s.Node || int(f.Cycle) != s.Cycle || int(f.Cost) != s.Cost || j.Tags[f.Tag] != s.Tag || f.Finish != s.Finish {
							t.Fatalf("%s: step %d is %+v, want firing #%d %+v", label, k, s, id, *f)
						}
						next := int32(-1)
						for _, d := range j.Deps(id) {
							if next < 0 || longest[d] > longest[next] {
								next = d
							}
						}
						if (k == 0) != (next < 0) {
							t.Fatalf("%s: chain of %d steps, firing #%d at step %d has first max dep %d", label, len(cp.Steps), id, k, next)
						}
						id = next
					}
				}
			}
		}
	}
}

// TestJournalRoundTrip serializes and re-reads a journal, plain and
// gzipped, and checks nothing is lost.
func TestJournalRoundTrip(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	j, _ := record(t, res.Graph, "running-example/s2", Config{MemLatency: 4}, machine.Config{MemLatency: 4})

	check := func(t *testing.T, got *Journal) {
		t.Helper()
		if got.Cycles != j.Cycles || len(got.Fires) != len(j.Fires) || len(got.Parks) != len(j.Parks) {
			t.Fatalf("roundtrip lost data: cycles %d/%d fires %d/%d parks %d/%d",
				got.Cycles, j.Cycles, len(got.Fires), len(j.Fires), len(got.Parks), len(j.Parks))
		}
		if got.Label != j.Label || got.Engine != "machine" || got.Version != Version {
			t.Fatalf("roundtrip header: %q %q v%d", got.Label, got.Engine, got.Version)
		}
		if len(got.Nodes) != len(j.Nodes) {
			t.Fatalf("roundtrip nodes: %d != %d", len(got.Nodes), len(j.Nodes))
		}
		for i := range j.Fires {
			a, b := j.Fires[i], got.Fires[i]
			if a.Node != b.Node || a.Cycle != b.Cycle || a.Cost != b.Cost || a.Port != b.Port || a.Finish != b.Finish ||
				j.Tags[a.Tag] != got.Tags[b.Tag] || !slices.Equal(j.Deps(int32(i)), got.Deps(int32(i))) {
				t.Fatalf("fire %d roundtrip: %+v != %+v", i, a, b)
			}
		}
		g, err := got.Graph()
		if err != nil {
			t.Fatalf("roundtrip graph: %v", err)
		}
		if len(g.Nodes) != len(res.Graph.Nodes) {
			t.Fatalf("roundtrip graph nodes: %d != %d", len(g.Nodes), len(res.Graph.Nodes))
		}
	}

	t.Run("plain", func(t *testing.T) {
		var buf bytes.Buffer
		if err := j.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})
	t.Run("gzip-file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.journal.gz")
		if err := j.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})
	t.Run("truncated", func(t *testing.T) {
		var buf bytes.Buffer
		if err := j.Write(&buf); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		cut := bytes.Join(lines[:len(lines)-1], []byte("\n"))
		if _, err := Read(bytes.NewReader(cut)); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncated journal accepted: %v", err)
		}
	})
}

// TestExplainImpactDuality checks the two causal queries against each
// other and against the cone-closure property on the running example.
func TestExplainImpactDuality(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	j, _ := record(t, res.Graph, "running-example", Config{MemLatency: 4}, machine.Config{MemLatency: 4})

	endFires, err := ResolveAnchor(j, fmt.Sprintf("d%d@root", res.Graph.EndID))
	if err != nil {
		t.Fatal(err)
	}
	cause, err := Explain(j, endFires)
	if err != nil {
		t.Fatal(err)
	}
	// Backward closure: every member's deps are members.
	for _, id := range cause.IDs {
		for _, d := range j.Deps(id) {
			if !cause.Contains(d) {
				t.Fatalf("cause cone not closed: #%d in, dep #%d out", id, d)
			}
		}
	}
	// Duality: x in Explain(end) iff end in Impact(x), spot-checked on
	// every firing (the example is small).
	for i := range j.Fires {
		imp, err := Impact(j, []int32{int32(i)})
		if err != nil {
			t.Fatal(err)
		}
		feedsEnd := false
		for _, e := range endFires {
			if imp.Contains(e) {
				feedsEnd = true
				break
			}
		}
		if feedsEnd != cause.Contains(int32(i)) {
			t.Fatalf("duality broken at firing #%d: impact-reaches-end=%v, in-cause-cone=%v",
				i, feedsEnd, cause.Contains(int32(i)))
		}
	}
	// The rendered tree mentions the anchor and at least one cause.
	text := cause.Text(0)
	if !strings.Contains(text, "end") {
		t.Fatalf("explain text misses anchor:\n%s", text)
	}
	if cause.Summary() == "" || len(cause.Nodes()) == 0 {
		t.Fatal("empty cone summary")
	}
}

// TestResolveAnchor exercises the query-spec grammar.
func TestResolveAnchor(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	j, _ := record(t, res.Graph, "running-example", Config{MemLatency: 4}, machine.Config{MemLatency: 4})

	if ids, err := ResolveAnchor(j, "#0"); err != nil || len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("#0: %v %v", ids, err)
	}
	node := int(j.Fires[0].Node)
	spec := dfgNodeSpec(node)
	ids, err := ResolveAnchor(j, spec)
	if err != nil || len(ids) == 0 {
		t.Fatalf("%s: %v %v", spec, ids, err)
	}
	// With the root tag qualifier.
	if ids, err := ResolveAnchor(j, spec+"@root"); err != nil || len(ids) == 0 {
		t.Fatalf("%s@root: %v %v", spec, ids, err)
	}
	// Label substring.
	if ids, err := ResolveAnchor(j, "store"); err != nil || len(ids) == 0 {
		t.Fatalf("store: %v %v", ids, err)
	}
	for _, bad := range []string{"", "#99999", "d99999", "no-such-label", "store@9.9.9"} {
		if _, err := ResolveAnchor(j, bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func dfgNodeSpec(n int) string {
	return fmt.Sprintf("d%d", n)
}

// TestStateAt reconstructs mid-run states and checks conservation
// against the journal.
func TestStateAt(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	j, _ := record(t, res.Graph, "running-example", Config{MemLatency: 4}, machine.Config{MemLatency: 4})

	for c := 0; c <= j.Cycles; c++ {
		st, err := j.StateAt(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range st.Issued {
			f := j.Fires[id]
			if !(f.Cycle <= int32(c) && int32(c) < f.Cycle+f.Cost) {
				t.Fatalf("cycle %d: firing #%d not actually in flight", c, id)
			}
		}
		for _, tk := range st.Tokens {
			p, f := j.Fires[tk.Producer], j.Fires[tk.Consumer]
			if !(p.Cycle+p.Cost <= int32(c) && int32(c) < f.Cycle) {
				t.Fatalf("cycle %d: token %d->%d not actually live", c, tk.Producer, tk.Consumer)
			}
		}
		_ = st.Text(j)
	}
	// After the run everything is drained.
	st, err := j.StateAt(j.Cycles + 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Issued) != 0 || len(st.Tokens) != 0 || len(st.Parked) != 0 {
		t.Fatalf("state not drained after completion: %+v", st)
	}
	// Mid-run, something is happening on a machine with latency 4.
	mid, err := j.StateAt(j.Cycles / 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Issued)+len(mid.Tokens)+len(mid.Parked) == 0 {
		t.Fatal("mid-run state empty")
	}
}

// TestReplayIdentical replays journals across the workload suite and
// demands zero divergences, through an NDJSON round trip.
func TestReplayIdentical(t *testing.T) {
	schemas := []translate.Options{
		{Schema: translate.Schema1},
		{Schema: translate.Schema2Opt},
	}
	// KEntry(4) is irreducible: its graph declares the dispatch selector.
	for _, w := range append(workloads.All(), workloads.KEntry(4)) {
		for _, opt := range schemas {
			res := translateWorkload(t, w, opt)
			if len(res.Graph.Calls) > 0 {
				continue // not serializable; covered by TestReplayInMemory
			}
			jcfg := Config{Processors: 2, MemLatency: 3}
			j, _ := record(t, res.Graph, w.Name, jcfg, machine.Config{Processors: 2, MemLatency: 3})
			var buf bytes.Buffer
			if err := j.Write(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Read(&buf)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			rr, err := Replay(loaded)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, opt.Schema, err)
			}
			if len(rr.Divergences) != 0 {
				t.Errorf("%s/%v: replay diverged:\n%s", w.Name, opt.Schema, rr.Text())
			}
		}
	}
}

// TestReplayInMemory covers procedure-call graphs, which are not
// serializable but replay via the retained in-memory graph.
func TestReplayInMemory(t *testing.T) {
	found := false
	for _, w := range workloads.All() {
		res := translateWorkload(t, w, translate.Options{Schema: translate.Schema2})
		if len(res.Graph.Calls) == 0 {
			continue
		}
		found = true
		j, _ := record(t, res.Graph, w.Name, Config{MemLatency: 2}, machine.Config{MemLatency: 2})
		rr, err := Replay(j)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(rr.Divergences) != 0 {
			t.Errorf("%s: replay diverged:\n%s", w.Name, rr.Text())
		}
		// Through serialization it must refuse with a clear error.
		var buf bytes.Buffer
		if err := j.Write(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.graphText != "" {
			t.Fatalf("%s: linked graph serialized?", w.Name)
		}
		if _, err := Replay(loaded); err == nil {
			t.Errorf("%s: replay of graph-less journal did not fail", w.Name)
		}
	}
	if !found {
		t.Skip("no procedure workloads in suite")
	}
}

// TestReplayDetectsTampering flips a recorded fact and expects the diff
// to catch it.
func TestReplayDetectsTampering(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	j, _ := record(t, res.Graph, "running-example", Config{MemLatency: 4}, machine.Config{MemLatency: 4})
	j.Fires[len(j.Fires)/2].Cycle += 3
	// Invalidate linearization cheaply: replay diff, not CheckLinearization.
	rr, err := Replay(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Divergences) == 0 {
		t.Fatal("tampered journal replayed clean")
	}
	if !strings.Contains(rr.Text(), "DIVERGED") {
		t.Fatalf("verdict text: %s", rr.Text())
	}
}

// TestChromeTraceValid validates the exporter output is well-formed
// JSON with the expected event population.
func TestChromeTraceValid(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	j, _ := record(t, res.Graph, "running-example", Config{MemLatency: 4}, machine.Config{MemLatency: 4})
	var buf bytes.Buffer
	if err := j.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   *int64 `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  *int   `json:"pid"`
			Tid  *int   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		counts[e.Ph]++
		if e.Ts == nil || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %q missing ts/pid/tid", e.Name)
		}
	}
	if counts["X"] != len(j.Fires) {
		t.Errorf("trace has %d X events, journal %d fires", counts["X"], len(j.Fires))
	}
	if counts["b"] == 0 || counts["b"] != counts["e"] {
		t.Errorf("unbalanced async spans: %d begin, %d end", counts["b"], counts["e"])
	}
	if counts["i"] != len(j.Parks) {
		t.Errorf("trace has %d instants, journal %d parks", counts["i"], len(j.Parks))
	}
	if counts["M"] == 0 {
		t.Error("no metadata events")
	}
}

// TestPprofValid decodes the exporter's protobuf wire format and checks
// the profile invariants pprof enforces (string table, id references,
// sample arity).
func TestPprofValid(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	j, _ := record(t, res.Graph, "running-example", Config{MemLatency: 4}, machine.Config{MemLatency: 4})
	var buf bytes.Buffer
	if err := j.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	gr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("pprof output is not gzipped: %v", err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(gr); err != nil {
		t.Fatal(err)
	}
	sampleTypes, samples, locs, funcs, strs := 0, 0, 0, 0, 0
	b := raw.Bytes()
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatal("bad varint in profile")
		}
		b = b[n:]
		field, wire := key>>3, key&7
		switch wire {
		case 0:
			_, n := binary.Uvarint(b)
			if n <= 0 {
				t.Fatal("bad varint value")
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b[n:])) < l {
				t.Fatal("bad length-delimited field")
			}
			b = b[n+int(l):]
			switch field {
			case 1:
				sampleTypes++
			case 2:
				samples++
			case 4:
				locs++
			case 5:
				funcs++
			case 6:
				strs++
			}
		default:
			t.Fatalf("unexpected wire type %d", wire)
		}
	}
	if sampleTypes != 2 {
		t.Errorf("sample types: %d, want 2", sampleTypes)
	}
	firing := map[int32]bool{}
	for i := range j.Fires {
		firing[j.Fires[i].Node] = true
	}
	if samples != len(firing) {
		t.Errorf("samples: %d, want one per fired node (%d)", samples, len(firing))
	}
	if locs == 0 || locs != funcs {
		t.Errorf("locations %d, functions %d", locs, funcs)
	}
	if strs < 4 {
		t.Errorf("string table suspiciously small: %d", strs)
	}
}

// TestDepthsMatchParallelStructure sanity-checks the Lamport depths: at
// least one firing at depth 1 (fed only by start tokens), monotone along
// edges, and NodeMaxDepths covers exactly the fired nodes.
func TestDepthsMatchParallelStructure(t *testing.T) {
	res := translateWorkload(t, workloads.RunningExample, translate.Options{Schema: translate.Schema2})
	j, _ := record(t, res.Graph, "running-example", Config{MemLatency: 4}, machine.Config{MemLatency: 4})
	depths := j.Depths()
	sawRoot := false
	for i := range j.Fires {
		if depths[i] == 1 {
			sawRoot = true
		}
		for _, d := range j.Deps(int32(i)) {
			if depths[d] >= depths[i] {
				t.Fatalf("depth not strictly increasing along edge %d->%d", d, i)
			}
		}
	}
	if !sawRoot {
		t.Fatal("no depth-1 firing")
	}
	perNode := j.NodeMaxDepths()
	for n, d := range perNode {
		fired := false
		for i := range j.Fires {
			if int(j.Fires[i].Node) == n {
				fired = true
				break
			}
		}
		if fired != (d > 0) {
			t.Fatalf("node %d fired=%v but max depth %d", n, fired, d)
		}
	}
}
