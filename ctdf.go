// Package ctdf is a from-scratch reproduction of "From Control Flow to
// Dataflow" (Micah Beck, Richard Johnson, Keshav Pingali; Cornell TR
// 89-1050 / ICPP 1990): a compiler from a small imperative language to
// dataflow graphs executable on an explicit-token-store dataflow machine,
// together with two execution engines and the program analyses the
// translation schemas rest on.
//
// The pipeline is Compile → Translate → Run:
//
//	p, _ := ctdf.Compile(src)              // parse + control-flow graph
//	d, _ := p.Translate(ctdf.Options{Schema: ctdf.Schema2Opt})
//	r, _ := d.Run(ctdf.RunConfig{})        // ETS machine simulation
//	fmt.Println(r.Snapshot, r.Cycles)
//
// Five translation schemas are available: Schema1 circulates a single
// access token (sequential semantics, §2.3); Schema2 circulates one token
// per variable (§3); Schema2Opt is the direct optimized construction of
// §4.2 driven by switch placement (Figure 10) and source vectors (Figure
// 11); Schema3 and Schema3Opt handle aliasing with per-cover-element
// tokens (§5). The §6 parallelizing transformations — memory-operation
// elimination, read parallelization, and array store parallelization
// (Figure 14) — compose with the schemas through Options.
package ctdf

import (
	"fmt"
	"io"
	"time"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/chanexec"
	"ctdf/internal/dfg"
	"ctdf/internal/fault"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/obs/journal"
	graphopt "ctdf/internal/opt"
	"ctdf/internal/translate"
)

// Schema selects a translation schema (see the package comment).
type Schema = translate.Schema

// Translation schemas, in increasing order of exposed parallelism.
const (
	// Schema1 circulates a single access token: the dataflow graph
	// executes statements strictly in sequence (§2.3).
	Schema1 = translate.Schema1
	// Schema2 circulates one access token per variable (§3).
	Schema2 = translate.Schema2
	// Schema2Opt is the §4.2 direct construction without redundant
	// switches.
	Schema2Opt = translate.Schema2Opt
	// Schema3 circulates one access token per cover element of the
	// program's alias structure (§5).
	Schema3 = translate.Schema3
	// Schema3Opt is Schema3 with computed switch placement.
	Schema3Opt = translate.Schema3Opt
)

// ParseSchema parses a schema name ("schema1", "schema2", "schema2-opt",
// "schema3", "schema3-opt").
func ParseSchema(name string) (Schema, error) { return translate.ParseSchema(name) }

// CoverKind selects the cover parameterizing Schema 3 (Definition 7): the
// parallelism/synchronization tradeoff of §5.
type CoverKind int

// Cover choices.
const (
	// CoverSingleton has one token per variable: maximal parallelism,
	// |[x]| token collections per operation on aliased x.
	CoverSingleton CoverKind = iota
	// CoverClass has one token per distinct alias class.
	CoverClass
	// CoverMonolithic has a single token for all of V: one collection per
	// operation, no memory parallelism.
	CoverMonolithic
)

// Options configures a translation.
type Options struct {
	Schema Schema
	// Cover selects the Schema 3 cover (ignored by other schemas).
	Cover CoverKind
	// EliminateMemory applies §6.1 to unaliased scalars (Schema2 and
	// Schema2Opt only): their loads and stores disappear and values ride
	// the token lines.
	EliminateMemory bool
	// ParallelReads applies §6.2: maximal within-statement load sequences
	// run in parallel on replicated access tokens.
	ParallelReads bool
	// ParallelArrayStores applies §6.3 (Figure 14) to loops whose array
	// stores are provably independent.
	ParallelArrayStores bool
	// UseIStructures gives provably write-once arrays I-structure
	// semantics (§6.3): reads and writes drop their access tokens and the
	// memory defers premature reads, letting consumers overlap producers.
	UseIStructures bool
	// Optimize, when > 0, runs the post-translation graph optimizer on
	// the translated graph: redundant switch/merge pairs sink away
	// (Figure 9), merge chains flatten, single-consumer pure operator
	// trees fuse into one-firing super-operators, and orphaned value
	// chains are deleted. The result computes the same store on both
	// engines, and Vet judges every removal from the graph against its
	// own recomputed §4 placement and source vectors. Level 1 runs
	// the full pipeline.
	Optimize int
}

// Engine selects an execution engine.
type Engine int

// Execution engines.
const (
	// EngineMachine is the cycle-driven explicit-token-store simulator; it
	// reports timing statistics (cycles, parallelism profile).
	EngineMachine Engine = iota
	// EngineChannels runs one goroutine per operator with channel-style
	// mailboxes; it reports only operation counts.
	EngineChannels
)

// RunConfig configures an execution.
type RunConfig struct {
	Engine Engine
	// Processors bounds operations issued per cycle; 0 = unlimited
	// (critical-path measurement). EngineMachine only.
	Processors int
	// MemLatency is the split-phase memory latency in cycles (default 1).
	// EngineMachine only.
	MemLatency int
	// Binding maps variable names to a canonical representative; names
	// sharing a representative share one memory location. Only declared
	// aliases may share. Nil keeps every name distinct.
	Binding map[string]string
	// RandomSeed, when nonzero, randomizes the machine's issue order (the
	// result must not change — dataflow execution is determinate).
	RandomSeed int64
	// DetectRaces makes the machine verify that no two memory operations
	// on one location ever overlap unless both are reads.
	DetectRaces bool
	// Workers, when > 1, partitions the machine's nodes and their state
	// across Workers shared-nothing shards and nothing else: the run stays
	// on the calling goroutine and the simulated execution is
	// byte-identical at every worker count. EngineMachine only; ignored
	// while fault injection is active.
	Workers int
	// MaxCycles / MaxOps bound the execution (defaults: one million
	// cycles, ten million firings).
	MaxCycles int
	MaxOps    int64
	// Deadline bounds wall-clock execution (0 = none). The machine
	// simulator reports ErrDeadline on expiry; the channel engine has no
	// clock, so its deadline is a progress-aware deadlock watchdog — it
	// aborts only a run that delivered no token for a full Deadline
	// window, reporting ErrDeadlock with per-mailbox diagnostics. A live
	// run keeps extending it.
	Deadline time.Duration
	// Fault, when non-nil, injects one deterministic fault into the run
	// (see FaultPlan, ROBUSTNESS.md, and the `ctdf chaos` command);
	// Result.Fault reports what happened.
	Fault *FaultPlan
	// Trace, when non-nil, receives one line per operator firing
	// (EngineMachine only), written from the run's record when the run
	// returns, after an abort too. A traced run keeps the record: 32 bytes
	// per firing, 4 per producer edge, 20 per matching-store park.
	Trace io.Writer
	// Obs, when non-nil, makes this an observed run: Result.Obs carries
	// per-node counters, the parallelism histogram, and (if requested)
	// the critical path; Obs.Events receives the NDJSON event stream. See
	// OBSERVABILITY.md.
	Obs *ObsOptions
	// Telemetry, when non-nil, records engine metrics into the given
	// registry: sampled phase wall time, the lane → shard token-traffic
	// matrix, matching-store depth, and checkpoint timing on the machine
	// engine; firings, deliveries, mailbox depth, and watchdog headroom on
	// the channel engine. The registry accumulates across runs and can be
	// scraped live. See OBSERVABILITY.md.
	Telemetry *Telemetry
	// Recovery, when non-nil, supervises the run: aborts whose machine
	// check is classified transient (or whose planned fault actually
	// fired) are retried — the machine engine resumes from its last
	// checkpoint, the channel engine restarts from scratch — and
	// Result.Recovery reports what happened. See RecoveryPolicy and
	// ROBUSTNESS.md.
	Recovery *RecoveryPolicy
}

// Program is a compiled source program: the AST and its statement-level
// control-flow graph.
type Program struct {
	prog *lang.Program
	cfg  *cfg.Graph
}

// Compile parses and checks source text and builds its control-flow graph.
func Compile(src string) (*Program, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	g, err := cfg.Build(prog)
	if err != nil {
		return nil, err
	}
	return &Program{prog: prog, cfg: g}, nil
}

// Variables returns the declared variable names (scalars then arrays).
func (p *Program) Variables() []string { return p.prog.AllNames() }

// HasProcedures reports whether the program declares procedures; such
// programs translate through TranslateLinked rather than Translate.
func (p *Program) HasProcedures() bool { return len(p.prog.Procs()) > 0 }

// ProcAliases describes the alias structure a procedure's formals inherit
// from the program's call sites (§5): for each formal, its alias class
// restricted to the formals.
type ProcAliases struct {
	Proc    string
	Formals []string
	// Class[f] lists the formals aliased with f (including f).
	Class map[string][]string
}

// DeriveAliases computes the alias structure of every procedure from the
// program's call sites — the paper's SUBROUTINE F(X,Y,Z) example: CALL
// F(A,B,A) and CALL F(C,D,D) give [X]={X,Z}, [Y]={Y,Z}, [Z]={X,Y,Z}.
func (p *Program) DeriveAliases() ([]ProcAliases, error) {
	derived, err := analysis.DeriveAliasStructures(p.prog)
	if err != nil {
		return nil, err
	}
	var out []ProcAliases
	for _, pr := range p.prog.Procs() {
		as := derived[pr.Name]
		pa := ProcAliases{Proc: pr.Name, Formals: append([]string(nil), pr.Params...), Class: map[string][]string{}}
		for _, f := range pr.Params {
			var class []string
			for _, g := range pr.Params {
				if as.Related(f, g) {
					class = append(class, g)
				}
			}
			pa.Class[f] = class
		}
		out = append(out, pa)
	}
	return out, nil
}

// ControlFlowDOT renders the control-flow graph in Graphviz format.
func (p *Program) ControlFlowDOT() string { return p.cfg.DOT() }

// Interpret executes the program with conventional sequential semantics
// (the von Neumann baseline and correctness oracle).
func (p *Program) Interpret(binding map[string]string) (*Result, error) {
	r, err := interp.Run(p.cfg, interp.Options{Binding: interp.Binding(binding)})
	if err != nil {
		return nil, err
	}
	return &Result{Snapshot: r.Store.Snapshot(), Ops: r.Statements}, nil
}

// TranslateLinked compiles the program with separate procedure
// compilation: every procedure body appears once in the dataflow graph and
// each call executes it under a fresh activation context (§2.2), so
// concurrent calls overlap and the graph grows with the number of
// procedures rather than call sites. The §6 transformations and Schema
// selection do not apply (bodies use the optimized construction with
// call-site-derived alias structures). The program must declare at least
// one procedure.
func (p *Program) TranslateLinked() (*Dataflow, error) {
	res, err := translate.TranslateLinked(p.prog)
	if err != nil {
		return nil, err
	}
	return &Dataflow{res: res}, nil
}

// Translate builds the dataflow graph for the program under opt.
func (p *Program) Translate(opt Options) (*Dataflow, error) {
	iopt := translate.Options{
		Schema:              opt.Schema,
		EliminateMemory:     opt.EliminateMemory,
		ParallelReads:       opt.ParallelReads,
		ParallelArrayStores: opt.ParallelArrayStores,
		UseIStructures:      opt.UseIStructures,
	}
	if opt.Schema == Schema3 || opt.Schema == Schema3Opt {
		as := analysis.NewAliasStructure(p.prog)
		switch opt.Cover {
		case CoverSingleton:
			iopt.Cover = analysis.SingletonCover(as)
		case CoverClass:
			iopt.Cover = analysis.ClassCover(as)
		case CoverMonolithic:
			iopt.Cover = analysis.MonolithicCover(as)
		default:
			return nil, fmt.Errorf("ctdf: unknown cover kind %d", opt.Cover)
		}
	}
	iopt.Optimize = opt.Optimize
	// With Optimize set, the optimizer edits the graph as the translator
	// emitted it: one graph is built and validated.
	var edit func(*dfg.Editor, *translate.Result) error
	if opt.Optimize > 0 {
		edit = graphopt.Edit
	}
	res, err := translate.TranslateEdited(p.cfg, iopt, edit)
	if err != nil {
		return nil, err
	}
	return &Dataflow{res: res}, nil
}

// OptPass reports one optimizer pass's activity for Optimize: its Name
// and Rewrites count.
type OptPass = translate.PassCount

// Optimize runs the graph optimizer pipeline over the dataflow graph in
// place (idempotently — a second call finds nothing) and returns the
// per-pass rewrite counts in pipeline order. The optimized graph stays
// Vet-clean: Vet judges each removal from the graph itself.
func (d *Dataflow) Optimize() ([]OptPass, error) {
	cert, err := graphopt.Run(d.res)
	if err != nil {
		return nil, err
	}
	return cert.Passes, nil
}

// Dataflow is a translated dataflow program graph.
type Dataflow struct {
	res *translate.Result
}

// GraphStats summarizes dataflow graph size: node and arc counts, the
// switch, merge, synch, load and store counts, and nodes by kind.
type GraphStats = dfg.Stats

// Stats returns size statistics of the dataflow graph.
func (d *Dataflow) Stats() GraphStats { return d.res.Graph.Stats() }

// DOT renders the dataflow graph in Graphviz format (dummy access-token
// arcs dashed, as in the paper's figures).
func (d *Dataflow) DOT() string { return d.res.Graph.DOT() }

// Text serializes the dataflow graph in the loadable textual format (see
// LoadDataflow).
func (d *Dataflow) Text() string { return dfg.Text(d.res.Graph) }

// Listing renders the dataflow graph as a per-node assembly-style listing
// (operator plus destination ports).
func (d *Dataflow) Listing() string { return dfg.Listing(d.res.Graph) }

// ProfileChart renders a parallelism profile (Result.Profile) as an ASCII
// bar chart: columns are time buckets, bar height is operations issued.
func ProfileChart(profile []int, cycles, width, height int) string {
	return obs.ProfileChart(profile, cycles, width, height)
}

// LoadDataflow parses a dataflow graph serialized by Text. The result can
// be Run but carries no translation metadata (no §6.1 value-token
// patching; Tokens and IStructures are empty).
func LoadDataflow(r io.Reader) (*Dataflow, error) {
	g, err := dfg.ParseText(r)
	if err != nil {
		return nil, err
	}
	res := &translate.Result{Graph: g, ValueTokens: map[string]string{}}
	return &Dataflow{res: res}, nil
}

// Tokens returns the access-token universe of the translation.
func (d *Dataflow) Tokens() []string { return append([]string(nil), d.res.Universe...) }

// IStructures returns the arrays the write-once analysis gave I-structure
// semantics.
func (d *Dataflow) IStructures() []string { return append([]string(nil), d.res.IStructures...) }

// LegalizeSynchTrees decomposes every synch collector wider than two
// inputs into a balanced tree of two-input synchs — the machine-level form
// an explicit token store (two-operand matching) requires. Returns the
// legalized graph and the number of synchs added.
func (d *Dataflow) LegalizeSynchTrees() (*Dataflow, int) {
	g, n := translate.LegalizeSynchTrees(d.res.Graph)
	res := *d.res
	res.Graph = g
	return &Dataflow{res: &res}, n
}

// EliminateRedundantSwitches applies the iterative switch-merge
// elimination of §4 and returns the simplified graph and the number of
// switches removed. On acyclic programs the result matches the direct
// Schema2Opt construction.
func (d *Dataflow) EliminateRedundantSwitches() (*Dataflow, int) {
	res := *d.res
	cert, err := graphopt.EliminateRedundantSwitches(&res)
	if err != nil {
		panic(fmt.Sprintf("ctdf: internal error: %v", err))
	}
	return &Dataflow{res: &res}, cert.Passes[0].Rewrites
}

// Result is the outcome of an execution.
type Result struct {
	// Snapshot is the final program state rendered deterministically, one
	// "name=value" line per variable.
	Snapshot string
	// Cycles is the machine execution time (0 for EngineChannels and the
	// interpreter).
	Cycles int
	// Ops counts operator firings (or interpreted statements).
	Ops int
	// MemOps counts load/store firings (EngineMachine only).
	MemOps int
	// MaxParallelism and AvgParallelism describe the parallelism profile
	// (EngineMachine only).
	MaxParallelism int
	AvgParallelism float64
	// PeakMatchStore is the peak number of partially matched activations
	// in the explicit token store (EngineMachine only).
	PeakMatchStore int
	// Profile is the number of operations issued per cycle (EngineMachine
	// only, truncated for very long runs).
	Profile []int
	// Obs is the observability report (nil unless RunConfig.Obs was set).
	Obs *ObsReport
	// Journal is the causal execution journal (nil unless
	// RunConfig.Obs.Journal was set; EngineMachine only).
	Journal *ExecJournal
	// Fault reports the fault injector's view of the run (nil unless
	// RunConfig.Fault was set).
	Fault *FaultReport
	// Checkpoint identifies the last completed machine checkpoint (nil
	// unless checkpointing ran, i.e. under RunConfig.Recovery). On an
	// aborted run it names the last good pre-abort state — point `ctdf
	// replay -at` at its cycle to reconstruct it.
	Checkpoint *CheckpointRef
	// Recovery reports the supervisor's attempts (nil unless
	// RunConfig.Recovery was set).
	Recovery *RecoveryReport
}

// Run executes the dataflow graph. When the run aborts with a machine
// check (see the Err* sentinels), the returned *Result is non-nil and
// carries the partial execution state — final store so far, op counts,
// and the observability report — so failed runs stay inspectable. With
// RunConfig.Recovery set, transient aborts are retried before the run is
// declared failed.
func (d *Dataflow) Run(cfg RunConfig) (*Result, error) {
	if cfg.Recovery != nil {
		return d.runSupervised(cfg)
	}
	var inj *fault.Injector
	if cfg.Fault != nil {
		inj = fault.NewInjector(*cfg.Fault)
	}
	return d.runOnce(cfg, inj, ckPlumb{})
}

// runOnce executes a single attempt: cfg, the attempt's injector (nil
// when faults are off or this is a supervised retry), and the
// supervisor's checkpoint plumbing (zero value when checkpointing is
// off).
func (d *Dataflow) runOnce(cfg RunConfig, inj *fault.Injector, ck ckPlumb) (*Result, error) {
	switch cfg.Engine {
	case EngineMachine:
		var col *obs.Collector
		if cfg.Obs != nil || cfg.Trace != nil {
			// The critical path, the journal, the event stream and the trace
			// read one record of the run.
			keep := cfg.Trace != nil || cfg.Obs.CriticalPath || cfg.Obs.Journal || cfg.Obs.Events != nil
			col = obs.NewCollector(d.res.Graph, obs.Options{CriticalPath: keep})
		}
		out, err := machine.Run(d.res.Graph, machine.Config{
			Processors:      cfg.Processors,
			MemLatency:      cfg.MemLatency,
			MaxCycles:       cfg.MaxCycles,
			MaxOps:          cfg.MaxOps,
			Deadline:        cfg.Deadline,
			Inject:          inj,
			Binding:         interp.Binding(cfg.Binding),
			RandomSeed:      cfg.RandomSeed,
			DetectRaces:     cfg.DetectRaces,
			Workers:         cfg.Workers,
			Collector:       col,
			Telemetry:       cfg.Telemetry,
			CheckpointEvery: ck.every,
			CheckpointSink:  ck.sink,
			Resume:          ck.resume,
		})
		if out == nil {
			// Validation failed before the simulation started.
			return nil, err
		}
		res := &Result{
			Snapshot:       translate.FinalSnapshot(d.res, out.Store, out.EndValues),
			Cycles:         out.Stats.Cycles,
			Ops:            out.Stats.Ops,
			MemOps:         out.Stats.MemOps,
			MaxParallelism: out.Stats.MaxParallelism,
			AvgParallelism: out.Stats.AvgParallelism(),
			PeakMatchStore: out.Stats.PeakMatchStore,
			Profile:        out.Stats.Profile,
			Fault:          faultReport(inj),
			Checkpoint:     out.Checkpoint,
		}
		if cfg.Trace != nil {
			if werr := obs.WriteTrace(cfg.Trace, col.Meta(), col.Record()); werr != nil && err == nil {
				err = werr
			}
		}
		if cfg.Obs != nil {
			rep := col.Report(out.Stats.Cycles, out.Stats.Profile)
			if !cfg.Obs.CriticalPath {
				rep.CriticalPath = nil // the record was kept for another reader
			}
			rep.Engine = "machine"
			rep.Schema = cfg.Obs.Label
			if cfg.Obs.Events != nil {
				if werr := obs.WriteEvents(cfg.Obs.Events, col.Meta(), col.Record(), rep); werr != nil && err == nil {
					err = werr
				}
			}
			res.Obs = rep
			if cfg.Obs.Journal {
				// The journal captures the full run configuration so Replay
				// can re-execute it bit-for-bit, fault plan included.
				jcfg := journal.Config{
					Processors: cfg.Processors,
					MemLatency: cfg.MemLatency,
					MaxCycles:  cfg.MaxCycles,
					MaxOps:     cfg.MaxOps,
					RandomSeed: cfg.RandomSeed,
					Workers:    cfg.Workers,
					Binding:    cfg.Binding,
				}
				if cfg.Fault != nil {
					jcfg.FaultClass = string(cfg.Fault.Class)
					jcfg.FaultSite = cfg.Fault.Site
					jcfg.FaultDelay = cfg.Fault.Delay
				}
				res.Journal = &ExecJournal{j: journal.New(d.res.Graph, col, cfg.Obs.Label, jcfg, out.Stats.Cycles)}
			}
		}
		return res, err
	case EngineChannels:
		var counters *obs.NodeCounters
		if cfg.Obs != nil {
			counters = obs.NewNodeCounters(d.res.Graph.NumNodes())
		}
		out, err := chanexec.Run(d.res.Graph, chanexec.Config{
			Binding:   interp.Binding(cfg.Binding),
			MaxOps:    cfg.MaxOps,
			Deadline:  cfg.Deadline,
			Inject:    inj,
			Counters:  counters,
			Telemetry: cfg.Telemetry,
		})
		if out == nil {
			// Validation failed before any worker started.
			return nil, err
		}
		res := &Result{
			Snapshot: translate.FinalSnapshot(d.res, out.Store, out.EndValues),
			Ops:      int(out.Ops),
			Fault:    faultReport(inj),
		}
		if counters != nil {
			rep := obs.NewCountersReport(d.res.Graph.Meta(), counters.Firings(), counters.Clocks())
			rep.Engine = "channels"
			rep.Schema = cfg.Obs.Label
			if cfg.Obs.Events != nil {
				if werr := obs.WriteEvents(cfg.Obs.Events, d.res.Graph.Meta(), nil, rep); werr != nil && err == nil {
					err = werr
				}
			}
			res.Obs = rep
		}
		return res, err
	}
	return nil, fmt.Errorf("ctdf: unknown engine %d", cfg.Engine)
}

// faultReport summarizes an injector's run (nil when injection is off).
func faultReport(inj *fault.Injector) *FaultReport {
	if inj == nil {
		return nil
	}
	return &FaultReport{Class: inj.Class(), Sites: inj.Sites(), Injected: inj.Injected()}
}

// graph exposes the underlying dataflow graph to the module's own
// commands and benchmarks.
func (d *Dataflow) graph() *dfg.Graph { return d.res.Graph }
