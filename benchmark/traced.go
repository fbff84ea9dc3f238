package main

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"ctdf"
	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/machine"
	graphopt "ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/vet"
)

// span is one timed call into a layer. The spans of one op share its id
// and hang off the op's root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for an op's root span
	Op       int    `json:"op"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the recorder was made
	End      int64  `json:"end_ns"`
}

// recorder keeps spans in memory; main writes them out at exit.
type recorder struct {
	t0    time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name, workload string, parent, op int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Workload: workload, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// selfSeconds sums, per span name, the self time of the spans recorded
// from index from on: a span's duration minus its children's.
func (r *recorder) selfSeconds(from int) map[string]float64 {
	children := map[int]int64{}
	for _, s := range r.spans[from:] {
		if s.Parent >= from {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range r.spans[from:] {
		self[s.Name] += float64(s.End-s.Start-children[s.ID]) / 1e9
	}
	return self
}

// The layers whose spans make up what an untraced pass does, split into
// the ones before execution and execution itself.
var (
	compileSpans = []string{"lang.parse", "cfg.build", "translate.total", "opt.run"}
	coreSpans    = append([]string{"vet.run", "machine.run"}, compileSpans...)
)

// internalOptions is the translate.Options the ctdf façade would build
// for o.
func internalOptions(prog *lang.Program, o ctdf.Options) (translate.Options, error) {
	schema, err := translate.ParseSchema(o.Schema.String())
	if err != nil {
		return translate.Options{}, err
	}
	opt := translate.Options{Schema: schema, EliminateMemory: o.EliminateMemory, Optimize: o.Optimize}
	if o.Schema == ctdf.Schema3 || o.Schema == ctdf.Schema3Opt {
		// CoverClass is the only cover the workloads use.
		opt.Cover = analysis.ClassCover(analysis.NewAliasStructure(prog))
	}
	return opt, nil
}

// placeSwitches is the switch placement of the optimized schemas as
// translate runs it: Figure 10 iterated with the loops' needs to a
// fixpoint. It returns the extended need function the source vectors
// must see.
func placeSwitches(g *cfg.Graph, loops []cfg.Loop, cd *analysis.ControlDeps) (analysis.NeedFunc, *analysis.Placement) {
	base := analysis.VarNeed(g)
	loopNeed := map[int]map[string]bool{}
	extended := func(id int) []string {
		set := map[string]bool{}
		for _, tok := range base(id) {
			set[tok] = true
		}
		for tok := range loopNeed[id] {
			set[tok] = true
		}
		out := make([]string, 0, len(set))
		for tok := range set {
			out = append(out, tok)
		}
		sort.Strings(out)
		return out
	}
	for {
		placement := analysis.PlaceSwitches(g, cd, extended)
		next := analysis.LoopNeeds(g, loops, base, placement)
		if reflect.DeepEqual(next, loopNeed) {
			return extended, placement
		}
		loopNeed = next
	}
}

// tracedPass runs one pass of w layer by layer, a span around every
// exported call, and returns the pass's per-layer samples by metric name
// and the number of ops that failed their checks. translate.Translate
// runs loop control and the analyses inside itself; they are also run
// standalone on the same CFG here so that their cost can be taken out of
// it (translate.emit_self_s, derived).
func (r *recorder) tracedPass(w *workload) (map[string]float64, int) {
	from := len(r.spans)
	c := map[string]float64{}
	failed := 0
	for _, p := range w.programs {
		if err := r.tracedOp(w, p, c); err != nil {
			fmt.Printf("# %s %s: %v\n", w.name, p.name, err)
			failed++
		}
	}
	for name, s := range r.selfSeconds(from) {
		c[name+"_s"] = s
	}
	sum := func(names []string) (t float64) {
		for _, n := range names {
			t += c[n+"_s"]
		}
		return t
	}
	compile, core := sum(compileSpans), sum(coreSpans)
	c["lang.bytes_per_s"] = ratio(c["lang.src_bytes"], c["lang.parse_s"])
	c["translate.emit_self_s"] = c["translate.total_s"] - sum([]string{"cfg.loops", "analysis.controldep", "analysis.switchplace", "analysis.sourcevec"})
	c["interp.stmts_per_s"] = ratio(c["interp.stmts"], c["interp.run_s"])
	c["machine.match_ratio"] = ratio(c["machine.matches"], c["machine.tokens_moved"])
	c["machine.fires_per_s"] = ratio(c["machine.firings"], c["machine.run_s"])
	c["machine.cycles_per_s"] = ratio(c["machine.cycles"], c["machine.run_s"])
	c["machine.allocs_per_firing"] = ratio(c["machine.mallocs"], c["machine.firings"])
	c["ctdf.facade_s"] = c["ctdf.compile_s"] - compile
	c["ctdf.compile_vet_share"] = ratio(compile+c["vet.run_s"], core)
	c["ctdf.machine_share"] = ratio(c["machine.run_s"], core)
	c["traced_core_s"] = core
	return c, failed
}

// tracedOp takes one program through every layer, adding its counts to c.
func (r *recorder) tracedOp(w *workload, p *program, c map[string]float64) error {
	op := r.ops
	r.ops++
	root := r.begin("op", w.name, -1, op)
	defer r.end(root)
	var err error
	in := func(name string, f func()) {
		id := r.begin(name, w.name, root, op)
		f()
		r.end(id)
	}

	var prog *lang.Program
	in("lang.parse", func() { prog, err = lang.Parse(p.src) })
	if err != nil {
		return err
	}
	var g *cfg.Graph
	in("cfg.build", func() { g, err = cfg.Build(prog) })
	if err != nil {
		return err
	}
	c["lang.src_bytes"] += float64(len(p.src))
	c["cfg.nodes"] += float64(g.Len())
	for _, n := range g.Nodes {
		c["cfg.edges"] += float64(len(n.Succs))
	}

	var gl *cfg.Graph
	var loops []cfg.Loop
	in("cfg.loops", func() {
		if gl, _, err = cfg.MakeReducible(g); err == nil {
			gl, loops, err = cfg.InsertLoopControl(gl)
		}
	})
	if err != nil {
		return err
	}
	c["cfg.loops"] += float64(len(loops))
	var cd *analysis.ControlDeps
	in("analysis.controldep", func() { cd = analysis.ComputeControlDeps(gl) })
	var need analysis.NeedFunc
	var placement *analysis.Placement
	in("analysis.switchplace", func() { need, placement = placeSwitches(gl, loops, cd) })
	for _, toks := range placement.Needs {
		c["analysis.switches_placed"] += float64(len(toks))
	}
	universe := append([]string(nil), prog.AllNames()...)
	sort.Strings(universe)
	in("analysis.sourcevec", func() { _, err = analysis.ComputeSourceVectors(gl, loops, universe, need, placement) })
	if err != nil {
		return err
	}
	in("analysis.alias", func() { analysis.ClassCover(analysis.NewAliasStructure(prog)) })

	topt, err := internalOptions(prog, p.opt)
	if err != nil {
		return err
	}
	var res *translate.Result
	in("translate.total", func() { res, err = translate.Translate(g, topt) })
	if err != nil {
		return err
	}
	gs := res.Graph.Stats()
	c["translate.dfg_nodes"] += float64(gs.Nodes)
	c["translate.dfg_arcs"] += float64(gs.Arcs)
	c["translate.switches"] += float64(gs.Switches)
	c["translate.merges"] += float64(gs.Merges)
	c["translate.synchs"] += float64(gs.Synchs)
	if p.opt.Optimize > 0 {
		var cert *translate.OptCertificate
		in("opt.run", func() { cert, err = graphopt.Run(res) })
		if err != nil {
			return err
		}
		c["opt.rewrites"] += float64(cert.Rewrites())
		c["opt.nodes_removed"] += float64(gs.Nodes - res.Graph.NumNodes())
		for _, pass := range cert.Passes {
			c["opt.rewrites."+pass.Name] += float64(pass.Rewrites)
		}
	}

	var rep *vet.Report
	in("vet.run", func() { rep = vet.Run(res.Graph, res) })
	c["vet.passes_ran"] += float64(len(rep.Ran))
	c["vet.diagnostics"] += float64(len(rep.Diags))

	var text string
	in("dfg.text_roundtrip", func() {
		text = dfg.Text(res.Graph)
		_, err = dfg.ParseText(strings.NewReader(text))
	})
	if err != nil {
		return err
	}
	c["dfg.text_bytes"] += float64(len(text))

	var ires *interp.Result
	in("interp.run", func() { ires, err = interp.Run(g, interp.Options{}) })
	if err != nil {
		return err
	}
	c["interp.stmts"] += float64(ires.Statements)

	var out *machine.Outcome
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in("machine.run", func() {
		out, err = machine.Run(res.Graph, machine.Config{MemLatency: p.run.MemLatency, Workers: p.run.Workers})
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	st := out.Stats
	c["machine.mallocs"] += float64(after.Mallocs - before.Mallocs)
	c["machine.cycles"] += float64(st.Cycles)
	c["machine.firings"] += float64(st.Ops)
	c["machine.mem_ops"] += float64(st.MemOps)
	c["machine.matches"] += float64(st.Matches)
	c["machine.tokens_moved"] += float64(st.TokensMoved)
	c["machine.peak_match_store"] = max(c["machine.peak_match_store"], float64(st.PeakMatchStore))
	c["machine.max_parallelism"] = max(c["machine.max_parallelism"], float64(st.MaxParallelism))

	// The façade over the same layers, for ctdf.facade_s.
	in("ctdf.compile", func() {
		var cp *ctdf.Program
		if cp, err = ctdf.Compile(p.src); err == nil {
			_, err = cp.Translate(p.opt)
		}
	})
	if err != nil {
		return err
	}

	got := counts{dfgNodes: res.Graph.NumNodes(), cycles: st.Cycles, firings: st.Ops}
	if p.tokensMoved == 0 {
		p.tokensMoved = st.TokensMoved
	}
	switch {
	case translate.FinalSnapshot(res, out.Store, out.EndValues) != p.oracle:
		return fmt.Errorf("machine store differs from the interpreter oracle")
	case ires.Store.Snapshot() != p.oracle:
		return fmt.Errorf("interp store differs from the interpreter oracle")
	case !rep.Clean():
		return fmt.Errorf("vet is not clean: %d diagnostics", len(rep.Diags))
	case got != p.ref:
		return fmt.Errorf("counts %+v differ from the reference %+v", got, p.ref)
	case st.TokensMoved != p.tokensMoved:
		return fmt.Errorf("tokens moved %d, %d on the first traced pass", st.TokensMoved, p.tokensMoved)
	}
	return nil
}

// sweepExponents times loop control, translation and vet on the
// workload's generator at three sizes, best of a few repetitions each,
// and returns the log-log slopes against CFG nodes: the wall-clock
// companion of the paper's O(E·V) size bound. The largest size runs once;
// the smaller ones repeat, being cheap and noisier.
func sweepExponents(w *workload) (map[string]float64, error) {
	var nodes, loopsT, translateT, vetT []float64
	for i, p := range w.sweep {
		prog, err := lang.Parse(p.src)
		if err != nil {
			return nil, err
		}
		g, err := cfg.Build(prog)
		if err != nil {
			return nil, err
		}
		topt, err := internalOptions(prog, p.opt)
		if err != nil {
			return nil, err
		}
		best := [3]time.Duration{1 << 62, 1 << 62, 1 << 62}
		for rep := len(w.sweep) - i; rep > 0; rep-- {
			t0 := time.Now()
			gl, _, err := cfg.MakeReducible(g)
			if err == nil {
				_, _, err = cfg.InsertLoopControl(gl)
			}
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			res, err := translate.Translate(g, topt)
			t2 := time.Now()
			if err != nil {
				return nil, err
			}
			vet.Run(res.Graph, res)
			t3 := time.Now()
			for j, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)} {
				best[j] = min(best[j], d)
			}
		}
		nodes = append(nodes, float64(g.Len()))
		loopsT = append(loopsT, best[0].Seconds())
		translateT = append(translateT, best[1].Seconds())
		vetT = append(vetT, best[2].Seconds())
	}
	return map[string]float64{
		"cfg.loops_scaling_exp": logLogSlope(nodes, loopsT),
		"translate.scaling_exp": logLogSlope(nodes, translateT),
		"vet.scaling_exp":       logLogSlope(nodes, vetT),
	}, nil
}

// dataflow compiles and translates p through the façade.
func (p *program) dataflow() (*ctdf.Dataflow, error) {
	cp, err := ctdf.Compile(p.src)
	if err != nil {
		return nil, err
	}
	return cp.Translate(p.opt)
}

// observerCosts runs the workload's programs on the machine bare and
// under each observer, twice each in turn. It returns the observers'
// cost as ratios of best times and the phase shares of the first run with
// telemetry attached.
func observerCosts(w *workload) (map[string]float64, error) {
	variants := []struct {
		name   string
		attach func(rc *ctdf.RunConfig)
	}{
		{"plain", func(rc *ctdf.RunConfig) {}},
		{"telemetry", func(rc *ctdf.RunConfig) { rc.Telemetry = ctdf.NewTelemetry() }},
		{"collector", func(rc *ctdf.RunConfig) { rc.Obs = &ctdf.ObsOptions{} }},
		{"journal", func(rc *ctdf.RunConfig) { rc.Obs = &ctdf.ObsOptions{Journal: true} }},
	}
	total := make([]time.Duration, len(variants))
	var phases [5]int64 // select, fire, retire, deliver, barrier
	var fire []int64    // busy time per shard
	var remote, sharded int64
	for _, p := range w.programs {
		d, err := p.dataflow()
		if err != nil {
			return nil, err
		}
		best := make([]time.Duration, len(variants))
		for rep := 0; rep < 2; rep++ {
			for i, v := range variants {
				rc := p.run
				v.attach(&rc)
				runtime.GC()
				t0 := time.Now()
				res, err := d.Run(rc)
				el := time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("%s under %s: %w", p.name, v.name, err)
				}
				if res.Snapshot != p.oracle {
					return nil, fmt.Errorf("%s under %s: store differs from the interpreter oracle", p.name, v.name)
				}
				if rep == 0 || el < best[i] {
					best[i] = el
				}
				if rc.Telemetry == nil || rep > 0 {
					continue
				}
				b := rc.Telemetry.Snapshot().MachineBreakdown()
				phases[0] += b.SelectNs
				phases[2] += b.RetireNs
				phases[4] += b.BarrierFireNs + b.BarrierDeliverNs
				if len(fire) < len(b.FireNs) {
					fire = append(fire, make([]int64, len(b.FireNs)-len(fire))...)
				}
				for s := range b.FireNs {
					phases[1] += b.FireNs[s]
					phases[3] += b.DeliverNs[s]
					fire[s] += b.FireNs[s]
				}
				remote += b.RemoteTokens
				sharded += b.ShardTokens
			}
		}
		for i := range variants {
			total[i] += best[i]
		}
	}
	c := map[string]float64{}
	for i, v := range variants[1:] {
		c["obs."+v.name+"_overhead_ratio"] = ratio(total[i+1].Seconds(), total[0].Seconds())
	}
	var busy int64
	for _, ns := range phases {
		busy += ns
	}
	for i, name := range []string{"select", "fire", "retire", "deliver", "barrier"} {
		c["machine."+name+"_share"] = ratio(float64(phases[i]), float64(busy))
	}
	// One shard is trivially balanced and has no remote tokens.
	c["machine.fire_imbalance"] = 1
	if len(fire) > 1 && phases[1] > 0 {
		c["machine.fire_imbalance"] = float64(slices.Max(fire)) * float64(len(fire)) / float64(phases[1])
	}
	c["machine.remote_token_share"] = ratio(float64(remote), float64(sharded))
	return c, nil
}

// channelEngine runs the workload's programs once on the goroutine-per-
// operator engine. The engine has no clock, so its Deadline is only the
// watchdog that turns a deadlock into an error.
func channelEngine(w *workload) (map[string]float64, error) {
	c := map[string]float64{"chanexec.failed": 0}
	for _, p := range w.programs {
		d, err := p.dataflow()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := d.Run(ctdf.RunConfig{Engine: ctdf.EngineChannels, Deadline: 30 * time.Second})
		c["chanexec.run_s"] += time.Since(t0).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s on the channel engine: %w", p.name, err)
		}
		c["chanexec.firings"] += float64(res.Ops)
		if res.Snapshot != p.oracle {
			c["chanexec.failed"]++
		}
	}
	c["chanexec.fires_per_s"] = ratio(c["chanexec.firings"], c["chanexec.run_s"])
	return c, nil
}
