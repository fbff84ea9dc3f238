package machine

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/fault"
	"ctdf/internal/interp"
	"ctdf/internal/machcheck"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// ckCell is the full observable outcome a resumed run must reproduce
// byte-for-byte: snapshot, end values, and every statistic including
// the per-cycle parallelism profile.
type ckCell struct {
	snapshot string
	endVals  []int64
	stats    Stats
}

func cellOf(out *Outcome) ckCell {
	return ckCell{snapshot: out.Store.Snapshot(), endVals: append([]int64(nil), out.EndValues...), stats: out.Stats}
}

func (c ckCell) equal(o ckCell) bool {
	return c.snapshot == o.snapshot &&
		reflect.DeepEqual(c.endVals, o.endVals) &&
		reflect.DeepEqual(c.stats, o.stats)
}

// checkpointWorkloads spans the loop and memory state a checkpoint must
// carry: loops (tag stacks) and split-phase memory backlogs, with and
// without §6.1 memory elimination. I-structures and live procedure
// activations are TestCheckpointResumeStatefulUnits'.
var checkpointWorkloads = []string{
	"running-example", "fib-iterative", "array-sum", "nested-loops", "proc-in-loop",
}

type ckConfig struct {
	name string
	opt  translate.Options
	pr   int
	lat  int
}

func checkpointConfigs() []ckConfig {
	return []ckConfig{
		{name: "schema2opt-p3-l4", opt: translate.Options{Schema: translate.Schema2Opt}, pr: 3, lat: 4},
		{name: "memelim-p2-l3", opt: translate.Options{Schema: translate.Schema2Opt, EliminateMemory: true}, pr: 2, lat: 3},
	}
}

func buildGraph(t testing.TB, wname string, opt translate.Options) *translate.Result {
	t.Helper()
	w := workloads.MustByName(wname)
	g := cfg.MustBuild(w.Parse())
	res, err := translate.Translate(g, opt)
	if err != nil {
		t.Fatalf("%s: translate: %v", wname, err)
	}
	return res
}

// sampleCheckpoints bounds the resume matrix: all checkpoints when few,
// otherwise an even stride that always keeps the first and last.
func sampleCheckpoints(cks []*Checkpoint, max int) []*Checkpoint {
	if len(cks) <= max {
		return cks
	}
	out := make([]*Checkpoint, 0, max)
	stride := (len(cks) - 1) / (max - 1)
	for i := 0; i < len(cks)-1; i += stride {
		out = append(out, cks[i])
		if len(out) == max-1 {
			break
		}
	}
	return append(out, cks[len(cks)-1])
}

// roundTrip forces every captured checkpoint through the serialized
// form, so the resume matrix also proves the on-disk format is lossless.
func roundTrip(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	b, err := ck.Encode()
	if err != nil {
		t.Fatalf("encode checkpoint %d: %v", ck.ID, err)
	}
	dec, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatalf("decode checkpoint %d: %v", ck.ID, err)
	}
	return dec
}

// TestCheckpointRestoreResumesByteIdentical is the tentpole property
// test: across workloads × configs, a run that checkpoints every few
// cycles (1) produces the same outcome as one that doesn't, and (2)
// restoring at EVERY sampled checkpoint — serialized and deserialized,
// at worker counts 1 and 4, from snapshots captured at worker counts 1
// and 4 — resumes to the byte-identical final outcome: snapshot, end
// values, and full statistics including the parallelism profile.
func TestCheckpointRestoreResumesByteIdentical(t *testing.T) {
	for _, wname := range checkpointWorkloads {
		for _, cc := range checkpointConfigs() {
			wname, cc := wname, cc
			t.Run(wname+"/"+cc.name, func(t *testing.T) {
				res := buildGraph(t, wname, cc.opt)
				base, err := Run(res.Graph, Config{Processors: cc.pr, MemLatency: cc.lat})
				if err != nil {
					t.Fatalf("baseline: %v", err)
				}
				want := cellOf(base)
				for _, capW := range []int{1, 4} {
					var cks []*Checkpoint
					out, err := Run(res.Graph, Config{
						Processors: cc.pr, MemLatency: cc.lat, Workers: capW,
						CheckpointEvery: 7,
						CheckpointSink: func(ck *Checkpoint) error {
							cks = append(cks, roundTrip(t, ck))
							return nil
						},
					})
					label := fmt.Sprintf("capW=%d", capW)
					if err != nil {
						t.Fatalf("%s: checkpointed run: %v", label, err)
					}
					if !cellOf(out).equal(want) {
						t.Fatalf("%s: checkpointing perturbed the run", label)
					}
					if len(cks) == 0 {
						t.Fatalf("%s: run took no checkpoints (too short for interval 7?)", label)
					}
					if out.Checkpoint == nil || out.Checkpoint.ID != cks[len(cks)-1].ID {
						t.Fatalf("%s: outcome does not reference the last checkpoint", label)
					}
					for _, ck := range sampleCheckpoints(cks, 8) {
						for _, resW := range []int{1, 4} {
							got, err := Run(res.Graph, Config{
								Processors: cc.pr, MemLatency: cc.lat, Workers: resW, Resume: ck,
							})
							if err != nil {
								t.Fatalf("%s ck=%d resW=%d: resume: %v", label, ck.ID, resW, err)
							}
							if !cellOf(got).equal(want) {
								t.Errorf("%s ck=%d (cycle %d) resW=%d: resumed outcome diverged\nwant %+v\ngot  %+v",
									label, ck.ID, ck.Cycle, resW, want, cellOf(got))
							}
						}
					}
				}
			})
		}
	}
}

// statefulGraphs are the graphs whose checkpoints carry the stateful
// units' state: linked procedure graphs (live activations) and
// I-structure graphs (presence bits and deferred readers).
func statefulGraphs(t testing.TB) map[string]*dfg.Graph {
	t.Helper()
	graphs := map[string]*dfg.Graph{}
	for _, w := range []string{"proc-fortran", "proc-in-loop"} {
		res, err := translate.TranslateLinked(workloads.MustByName(w).Parse())
		if err != nil {
			t.Fatalf("%s: link: %v", w, err)
		}
		graphs[w+"/linked"] = res.Graph
	}
	for _, w := range []string{"producer-consumer", "fig14-array-stores", "array-sum"} {
		graphs[w+"/istruct"] = buildGraph(t, w, translate.Options{Schema: translate.Schema2Opt, UseIStructures: true}).Graph
	}
	return graphs
}

// TestCheckpointResumeStatefulUnits resumes from every checkpoint of the
// stateful graphs — taken each cycle at latency {1, 4} × processors
// {0, 2}, each through Encode and Decode — and requires the uncheckpointed
// run's outcome from every one. Some checkpoint must hold a live
// activation and some a deferred I-structure reader, or the matrix has
// stopped covering the state it is here for.
func TestCheckpointResumeStatefulUnits(t *testing.T) {
	acts, deferred := 0, 0
	for name, g := range statefulGraphs(t) {
		for _, lat := range []int{1, 4} {
			for _, pr := range []int{0, 2} {
				label := fmt.Sprintf("%s/l%d/p%d", name, lat, pr)
				base, err := Run(g, Config{Processors: pr, MemLatency: lat})
				if err != nil {
					t.Fatalf("%s: baseline: %v", label, err)
				}
				want := cellOf(base)
				var cks []*Checkpoint
				if _, err := Run(g, Config{Processors: pr, MemLatency: lat, CheckpointEvery: 1,
					CheckpointSink: func(ck *Checkpoint) error { cks = append(cks, roundTrip(t, ck)); return nil }}); err != nil {
					t.Fatalf("%s: checkpointed run: %v", label, err)
				}
				for _, ck := range cks {
					if len(ck.Acts) > 0 {
						acts++
					}
					if len(ck.IDeferred) > 0 {
						deferred++
					}
					got, err := Run(g, Config{Processors: pr, MemLatency: lat, Resume: ck})
					if err != nil {
						t.Fatalf("%s ck=%d: resume: %v", label, ck.ID, err)
					}
					if !cellOf(got).equal(want) {
						t.Errorf("%s ck=%d (cycle %d): resumed outcome diverged", label, ck.ID, ck.Cycle)
					}
				}
			}
		}
	}
	if acts == 0 || deferred == 0 {
		t.Errorf("%d checkpoints held live activations and %d deferred I-structure readers; want some of each", acts, deferred)
	}
}

// TestCheckpointFileRoundTrip pins the on-disk format: a checkpoint
// written to disk and read back resumes to the identical outcome.
func TestCheckpointFileRoundTrip(t *testing.T) {
	res := buildGraph(t, "fib-iterative", translate.Options{Schema: translate.Schema2Opt})
	base, err := Run(res.Graph, Config{MemLatency: 4})
	if err != nil {
		t.Fatal(err)
	}
	var last *Checkpoint
	res = buildGraph(t, "fib-iterative", translate.Options{Schema: translate.Schema2Opt})
	if _, err := Run(res.Graph, Config{MemLatency: 4, CheckpointEvery: 11,
		CheckpointSink: func(ck *Checkpoint) error { last = ck; return nil }}); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint taken")
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := last.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res = buildGraph(t, "fib-iterative", translate.Options{Schema: translate.Schema2Opt})
	got, err := Run(res.Graph, Config{MemLatency: 4, Resume: loaded})
	if err != nil {
		t.Fatal(err)
	}
	if !cellOf(got).equal(cellOf(base)) {
		t.Error("resume from on-disk checkpoint diverged from the baseline run")
	}
}

// TestCheckpointSeededRandomResume checks the RNG fast-forward: in
// seeded-random issue mode a resumed run must replay the exact schedule
// the original explored, at the worker count that took the snapshot;
// restoring a seeded snapshot at a different worker count is rejected.
func TestCheckpointSeededRandomResume(t *testing.T) {
	const seed = 12345
	res := buildGraph(t, "fib-iterative", translate.Options{Schema: translate.Schema2Opt})
	for _, w := range []int{1, 4} {
		label := fmt.Sprintf("W=%d", w)
		base, err := Run(res.Graph, Config{MemLatency: 2, RandomSeed: seed, Workers: w})
		if err != nil {
			t.Fatalf("%s baseline: %v", label, err)
		}
		var cks []*Checkpoint
		out, err := Run(res.Graph, Config{MemLatency: 2, RandomSeed: seed, Workers: w, CheckpointEvery: 5,
			CheckpointSink: func(ck *Checkpoint) error { cks = append(cks, roundTrip(t, ck)); return nil }})
		if err != nil {
			t.Fatalf("%s checkpointed: %v", label, err)
		}
		if !cellOf(out).equal(cellOf(base)) {
			t.Fatalf("%s: checkpointing perturbed the seeded run", label)
		}
		if len(cks) == 0 {
			t.Fatalf("%s: no checkpoints", label)
		}
		for _, ck := range sampleCheckpoints(cks, 5) {
			got, err := Run(res.Graph, Config{MemLatency: 2, RandomSeed: seed, Workers: w, Resume: ck})
			if err != nil {
				t.Fatalf("%s ck=%d: resume: %v", label, ck.ID, err)
			}
			if !cellOf(got).equal(cellOf(base)) {
				t.Errorf("%s ck=%d (cycle %d): seeded resume diverged", label, ck.ID, ck.Cycle)
			}
		}
		// Cross-worker seeded restore must be rejected, not silently wrong.
		otherW := 4
		if w == 4 {
			otherW = 1
		}
		if _, err := Run(res.Graph, Config{MemLatency: 2, RandomSeed: seed, Workers: otherW, Resume: cks[0]}); !errors.Is(err, machcheck.ErrInvalidConfig) {
			t.Errorf("%s snapshot restored at W=%d: got %v, want InvalidConfig", label, otherW, err)
		}
	}
}

// TestCheckpointsAreAlwaysPreFault pins the taint rule: once an armed
// injector fires, no further checkpoints are taken, so restoring the
// last checkpoint of a faulted run always restores clean state — the
// resumed run (without the injector) completes with the fault-free
// outcome.
func TestCheckpointsAreAlwaysPreFault(t *testing.T) {
	res := buildGraph(t, "fib-iterative", translate.Options{Schema: translate.Schema2Opt})
	clean, err := Run(res.Graph, Config{MemLatency: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(fault.Plan{Class: fault.DropToken, Site: 0})
	res = buildGraph(t, "fib-iterative", translate.Options{Schema: translate.Schema2Opt})
	if _, err := Run(res.Graph, Config{MemLatency: 2, Inject: in}); err != nil {
		t.Fatalf("counting pass: %v", err)
	}
	sites := in.Sites()
	if sites == 0 {
		t.Fatal("no drop-token sites")
	}
	for _, site := range []int64{sites / 2, sites} {
		if site == 0 {
			continue
		}
		var cks []*Checkpoint
		in := fault.NewInjector(fault.Plan{Class: fault.DropToken, Site: site})
		res := buildGraph(t, "fib-iterative", translate.Options{Schema: translate.Schema2Opt})
		out, err := Run(res.Graph, Config{MemLatency: 2, Inject: in, CheckpointEvery: 2,
			CheckpointSink: func(ck *Checkpoint) error { cks = append(cks, ck); return nil }})
		if !in.Injected() {
			t.Fatalf("site %d: fault did not fire", site)
		}
		if err == nil {
			t.Fatalf("site %d: dropped token went undetected", site)
		}
		if len(cks) == 0 {
			// The fault fired before the first interval elapsed; nothing
			// to restore — the supervisor falls back to a scratch retry.
			continue
		}
		if out == nil || out.Checkpoint == nil || out.Checkpoint.ID != cks[len(cks)-1].ID {
			t.Fatalf("site %d: aborted outcome does not carry the last checkpoint", site)
		}
		res = buildGraph(t, "fib-iterative", translate.Options{Schema: translate.Schema2Opt})
		got, err := Run(res.Graph, Config{MemLatency: 2, Resume: cks[len(cks)-1]})
		if err != nil {
			t.Fatalf("site %d: resume from last pre-fault checkpoint: %v", site, err)
		}
		if !cellOf(got).equal(cellOf(clean)) {
			t.Errorf("site %d: resume from pre-fault checkpoint diverged from the clean run", site)
		}
	}
}

// TestCheckpointConfigValidation covers the rejected combinations and
// mismatched restores.
func TestCheckpointConfigValidation(t *testing.T) {
	res := buildGraph(t, "running-example", translate.Options{Schema: translate.Schema2Opt})
	if _, err := Run(res.Graph, Config{CheckpointEvery: -1}); !errors.Is(err, machcheck.ErrInvalidConfig) {
		t.Errorf("negative CheckpointEvery: %v", err)
	}
	if _, err := Run(res.Graph, Config{CheckpointEvery: 4, DetectRaces: true}); !errors.Is(err, machcheck.ErrInvalidConfig) {
		t.Errorf("CheckpointEvery with DetectRaces: %v", err)
	}
	var last *Checkpoint
	if _, err := Run(res.Graph, Config{CheckpointEvery: 2,
		CheckpointSink: func(ck *Checkpoint) error { last = ck; return nil }}); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint")
	}
	in := fault.NewInjector(fault.Plan{Class: fault.DropToken, Site: 1})
	if _, err := Run(res.Graph, Config{Resume: last, Inject: in}); !errors.Is(err, machcheck.ErrInvalidConfig) {
		t.Errorf("Resume with Inject: %v", err)
	}
	// A checkpoint must refuse to restore into a different graph.
	other := buildGraph(t, "gcd", translate.Options{Schema: translate.Schema2Opt})
	if _, err := Run(other.Graph, Config{Resume: last}); !errors.Is(err, machcheck.ErrInvalidConfig) {
		t.Errorf("restore into different graph: %v", err)
	}
}

// TestRestoreRejectsMalformedCheckpoints edits one field of a real
// checkpoint at a time (Schema2Opt, latency 4, a checkpoint every 3
// cycles, through Encode and Decode): an in-flight token or ready firing
// on a port outside its node's inputs, a match entry with a bit past its
// node's inputs, a match entry whose bit count is not its operand count.
// Each must be refused with InvalidConfig before the run starts — neither
// panic in delivery nor resume into a neighbour's operand frame.
func TestRestoreRejectsMalformedCheckpoints(t *testing.T) {
	matching := func(g *dfg.Graph, node int) bool {
		return g.Nodes[node].NIns > 1 && !g.Nodes[node].FiresPerToken()
	}
	type edit struct {
		name string
		// apply edits ck, reporting false when ck has no site for it.
		apply func(g *dfg.Graph, ck *Checkpoint) bool
	}
	var edits []edit
	for _, port := range []int{5, 70, 100000, -1} {
		port := port
		edits = append(edits, edit{fmt.Sprintf("in-flight port %d", port), func(g *dfg.Graph, ck *Checkpoint) bool {
			for i := range ck.Inflight {
				for k := range ck.Inflight[i].Toks {
					if tk := &ck.Inflight[i].Toks[k]; matching(g, tk.Node) {
						tk.Port = port
						return true
					}
				}
			}
			return false
		}})
	}
	edits = append(edits,
		edit{"ready port past the inputs", func(g *dfg.Graph, ck *Checkpoint) bool {
			if len(ck.Ready) == 0 {
				return false
			}
			ck.Ready[0].Firings[0].Port = int(g.Nodes[ck.Ready[0].Node].NIns)
			return true
		}},
		edit{"match bit past the inputs", func(g *dfg.Graph, ck *Checkpoint) bool {
			if len(ck.Match) == 0 {
				return false
			}
			m := &ck.Match[0]
			m.Have = m.Have&(m.Have-1) | 1<<uint(g.Nodes[m.Node].NIns) // same bit count
			return true
		}},
		edit{"match bit count is not N", func(g *dfg.Graph, ck *Checkpoint) bool {
			if len(ck.Match) == 0 {
				return false
			}
			m := &ck.Match[0]
			m.Have |= (m.Have + 1) &^ m.Have // the lowest clear bit, an input since N < NIns
			return true
		}},
	)
	hit := map[string]int{}
	for _, wname := range []string{"bubble-sort", "collatz-bounded", "deep-expression", "sieve", "proc-fortran", "proc-in-loop"} {
		g := buildGraph(t, wname, translate.Options{Schema: translate.Schema2Opt}).Graph
		var cks [][]byte
		if _, err := Run(g, Config{MemLatency: 4, CheckpointEvery: 3, CheckpointSink: func(ck *Checkpoint) error {
			b, err := ck.Encode()
			cks = append(cks, b)
			return err
		}}); err != nil {
			t.Fatalf("%s: %v", wname, err)
		}
		for _, e := range edits {
			for _, b := range cks {
				ck, err := DecodeCheckpoint(b)
				if err != nil {
					t.Fatal(err)
				}
				if !e.apply(g, ck) {
					continue
				}
				hit[e.name]++
				out, err := Run(g, Config{MemLatency: 4, Resume: ck})
				if !errors.Is(err, machcheck.ErrInvalidConfig) || out != nil {
					t.Errorf("%s, %s at cycle %d: got outcome %v, error %v; want InvalidConfig", wname, e.name, ck.Cycle, out != nil, err)
				}
				break
			}
		}
	}
	for _, e := range edits {
		if hit[e.name] == 0 {
			t.Errorf("%s: no checkpoint had a site to edit", e.name)
		}
	}
}

// TestDispatchSelectorRoundTrips: an irreducible program's graph declares
// the dispatch selector (cfg.MakeReducible). The graph survives its text
// form, every checkpoint holds the selector and resumes to the
// uncheckpointed outcome, and the final store reads as sequential
// interpretation of the original program, selector left out.
func TestDispatchSelectorRoundTrips(t *testing.T) {
	g0 := cfg.MustBuild(workloads.KEntry(4).Parse())
	want, err := interp.Run(g0, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := translate.Translate(g0, translate.Options{Schema: translate.Schema2Opt})
	if err != nil {
		t.Fatal(err)
	}
	text := dfg.Text(res.Graph)
	g, err := dfg.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if dfg.Text(g) != text || !strings.Contains(text, "var "+cfg.Selector+"\n") {
		t.Fatal("graph text does not round-trip with the selector declared")
	}
	base, err := Run(g, Config{MemLatency: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Store.Snapshot(); got != want.Store.Snapshot() {
		t.Fatalf("machine computes\n%s\ninterp\n%s", got, want.Store.Snapshot())
	}
	var cks []*Checkpoint
	if _, err := Run(g, Config{MemLatency: 3, CheckpointEvery: 13,
		CheckpointSink: func(ck *Checkpoint) error { cks = append(cks, roundTrip(t, ck)); return nil }}); err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("run took no checkpoints")
	}
	for _, ck := range sampleCheckpoints(cks, 6) {
		if _, ok := ck.Scalars[cfg.Selector]; !ok {
			t.Errorf("checkpoint %d leaves out the selector", ck.ID)
		}
		got, err := Run(g, Config{MemLatency: 3, Resume: ck})
		if err != nil {
			t.Fatalf("ck=%d: resume: %v", ck.ID, err)
		}
		if !cellOf(got).equal(cellOf(base)) {
			t.Errorf("ck=%d (cycle %d): resumed outcome diverged", ck.ID, ck.Cycle)
		}
	}
}
