package ctdf

import (
	"strings"
	"testing"
	"time"

	"ctdf/internal/vet"
	"ctdf/internal/workloads"
)

// FuzzLoadDataflowRun feeds arbitrary graph text through LoadDataflow
// and, when it parses, executes it on the machine simulator under tight
// budgets. The property under test is total robustness: no input may
// panic, hang, or allocate unboundedly — every failure mode must come
// back as a returned (typed) error. Seeds are the serialized forms of
// real translated workloads so the fuzzer starts from well-formed graphs
// and mutates toward near-miss corruptions of them.
func FuzzLoadDataflowRun(f *testing.F) {
	for _, name := range []string{"straightline", "fib-iterative", "array-sum"} {
		w := workloads.MustByName(name)
		p, err := Compile(w.Source)
		if err != nil {
			f.Fatal(err)
		}
		d, err := p.Translate(Options{Schema: Schema2Opt})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(d.Text())
	}
	f.Add("ctdf-dataflow v1\nvar x\nnode d0 start\nnode d1 end ins=1\narc d0.0 -> d1.0\n")
	f.Add("ctdf-dataflow v1\narray a 8\nnode d0 start\nnode d1 end ins=1\narc d0.0 -> d1.0\n")
	f.Fuzz(func(t *testing.T, src string) {
		d, err := LoadDataflow(strings.NewReader(src))
		if err != nil {
			return // rejected at parse or validation: fine
		}
		res, err := d.Run(RunConfig{
			Engine:    EngineMachine,
			MaxCycles: 2_000,
			MaxOps:    200_000,
			Deadline:  2 * time.Second,
		})
		if err == nil && res == nil {
			t.Error("successful run returned no result")
		}
	})
}

// FuzzCompileVet asserts the translation-validation contract over
// arbitrary source programs: anything Compile accepts must translate to a
// graph that vets clean, under every schema and transform combination the
// translator accepts — and must stay clean through the graph optimizer,
// whose removals vet judges from the graph alone, and whose output must
// execute to the same result on both engines. Translating with
// Optimize set, where the optimizer edits the graph as it is emitted, must
// give the very graph that optimizing the plain translation gives. Seeds
// are the committed workloads, so the fuzzer mutates from realistic
// programs toward pathological ones.
// vetTranslated vets a graph the translator (and optimizer) built, on
// which the ordering check must order every pair along the token lines
// and the guards, never falling back to its reachability sweep.
func vetTranslated(t *testing.T, d *Dataflow) *VetReport {
	t.Helper()
	rep, work := vet.Measure(d.res.Graph, d.res)
	if work.Fallbacks != 0 {
		t.Errorf("the ordering check fell back to the reachability sweep %d times", work.Fallbacks)
	}
	return rep
}

func FuzzCompileVet(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source)
	}
	combos := []Options{
		{Schema: Schema1},
		{Schema: Schema2},
		{Schema: Schema2Opt},
		{Schema: Schema3},
		{Schema: Schema3Opt},
		{Schema: Schema2Opt, EliminateMemory: true, ParallelReads: true, ParallelArrayStores: true},
		{Schema: Schema2Opt, EliminateMemory: true, UseIStructures: true},
		{Schema: Schema3Opt, Cover: CoverClass, ParallelReads: true},
		{Schema: Schema3Opt, Cover: CoverClass, ParallelArrayStores: true},
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Compile(src)
		if err != nil {
			return // rejected by the front end: fine
		}
		if p.HasProcedures() {
			d, err := p.TranslateLinked()
			if err != nil {
				return
			}
			if rep := d.Vet(); rep.Errors > 0 {
				t.Errorf("linked graph does not vet clean:\n%s", rep)
			}
			return
		}
		for _, opt := range combos {
			d, err := p.Translate(opt)
			if err != nil {
				continue // combination rejected by the schema: fine
			}
			if rep := vetTranslated(t, d); !rep.Clean() {
				t.Errorf("schema %v graph does not vet clean:\n%s", opt.Schema, rep)
				continue
			}
			base, err := d.Run(RunConfig{MaxCycles: 20_000, MaxOps: 2_000_000})
			if err != nil {
				continue // runaway loop under the budget: fine, skip the diff
			}
			if _, err := d.Optimize(); err != nil {
				t.Errorf("schema %v optimize failed: %v", opt.Schema, err)
				continue
			}
			if rep := vetTranslated(t, d); !rep.Clean() {
				t.Errorf("schema %v optimized graph does not vet clean:\n%s", opt.Schema, rep)
				continue
			}
			opt.Optimize = 1
			if one, err := p.Translate(opt); err != nil || one.Text() != d.Text() {
				t.Errorf("schema %v: translating optimized (err %v) differs from optimizing the translation", opt.Schema, err)
				continue
			}
			mo, err := d.Run(RunConfig{MaxCycles: 20_000, MaxOps: 2_000_000})
			if err != nil {
				t.Errorf("schema %v optimized graph aborted: %v", opt.Schema, err)
				continue
			}
			if mo.Snapshot != base.Snapshot {
				t.Errorf("schema %v optimization changed the result\n got %s\nwant %s", opt.Schema, mo.Snapshot, base.Snapshot)
			}
			co, err := d.Run(RunConfig{Engine: EngineChannels, MaxOps: 2_000_000, Deadline: 10 * time.Second})
			if err != nil {
				t.Errorf("schema %v optimized graph failed on channels: %v", opt.Schema, err)
				continue
			}
			if co.Snapshot != mo.Snapshot || co.Ops != mo.Ops {
				t.Errorf("schema %v engines disagree on optimized graph: machine %s (%d ops) vs channels %s (%d ops)",
					opt.Schema, mo.Snapshot, mo.Ops, co.Snapshot, co.Ops)
			}
		}
	})
}
