// Command ctdf compiles programs in the paper's imperative language to
// dataflow graphs and executes them on the explicit-token-store machine
// simulator or the goroutine engine.
//
// Usage:
//
//	ctdf run [flags] (file | -workload name)      execute a program
//	ctdf profile [flags] (file | -workload name)  observed run: NDJSON events + report
//	ctdf top [flags] (file | -workload name)      live telemetry view of a running machine
//	ctdf trace [flags] (file | -workload name)    causal journal: explain/impact, exports
//	ctdf replay [flags] (journal | -suite)        time-travel replay of a saved journal
//	ctdf dot [flags] (file | -workload name)      emit Graphviz (CFG or DFG)
//	ctdf stats [flags] (file | -workload name)    dataflow graph sizes per schema
//	ctdf vet [flags] (file | -workload name)      statically verify the dataflow graph
//	ctdf opt [flags] (file | -workload name)      run the graph optimizer, report deltas
//	ctdf experiments [flags] [id ...]             regenerate EXPERIMENTS.md tables
//	ctdf chaos [flags]                            fault-injection detection matrix
//	ctdf workloads                                list built-in workloads
//
// Programs use the paper's language: `var`/`array`/`alias` declarations,
// assignments, structured if/while, and `if p then goto l1 else goto l2`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"ctdf"
	"ctdf/internal/experiments"
	"ctdf/internal/workloads"
)

func main() {
	err := dispatch(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "ctdf:", err)
	var bad usageError
	if errors.As(err, &bad) {
		fmt.Fprint(os.Stderr, usageText)
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError is a command line dispatch cannot route to a command; main
// names it, prints the usage block and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// commands maps a command's name to its implementation, which takes the
// arguments after the name. Each parses them with a flag.ExitOnError
// set, whose Parse exits on a bad flag (0 for -h) and so never returns
// an error.
var commands = map[string]func(args []string) error{
	"run":         cmdRun,
	"profile":     cmdProfile,
	"top":         cmdTop,
	"trace":       cmdTrace,
	"replay":      cmdReplay,
	"dot":         cmdDot,
	"stats":       cmdStats,
	"vet":         cmdVet,
	"opt":         cmdOpt,
	"aliases":     cmdAliases,
	"explain":     cmdExplain,
	"experiments": cmdExperiments,
	"chaos":       cmdChaos,
	"workloads":   func([]string) error { return cmdWorkloads() },
}

// dispatch runs the command args[0] names on the arguments after it.
func dispatch(args []string) error {
	if len(args) == 0 {
		return usageError("no command given")
	}
	name := args[0]
	if cmd, ok := commands[name]; ok {
		return cmd(args[1:])
	}
	if name == "-h" || name == "--help" || name == "help" {
		fmt.Fprint(os.Stderr, usageText)
		return nil
	}
	return usageError(fmt.Sprintf("unknown command %q", name))
}

const usageText = `usage:
  ctdf run [flags] (file | -workload name)
  ctdf profile [flags] (file | -workload name)
  ctdf top [flags] (file | -workload name)
  ctdf trace [flags] (file | -workload name)
  ctdf replay [flags] (journal-file | -suite)
  ctdf dot [flags] (file | -workload name)
  ctdf stats (file | -workload name)
  ctdf vet [flags] (file | -workload name | -suite)
  ctdf opt [flags] (file | -workload name)
  ctdf aliases (file | -workload name)
  ctdf explain [flags] (file | -workload name)
  ctdf experiments [flags] [id ...]
  ctdf chaos [flags]
  ctdf workloads
Use 'ctdf run -h' etc. for per-command flags.
`

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	pf := addProgramFlags(fs)
	mf := addMachineFlags(fs)
	engine := fs.String("engine", "machine", "execution engine: machine, channels, interp")
	seed := fs.Int64("seed", 0, "randomize machine issue order with this seed")
	races := fs.Bool("races", false, "detect overlapping conflicting memory operations")
	profile := fs.Bool("profile", false, "print the per-cycle parallelism profile")
	legalize := fs.Bool("legalize", false, "decompose wide synch collectors into two-input trees")
	linked := fs.Bool("linked", false, "compile procedures separately (Apply/Param/ProcReturn linkage)")
	trace := fs.Bool("trace", false, "print one line per operator firing")
	deadline := fs.Duration("deadline", 0, "wall-clock deadline per attempt (0 = none)")
	supervise := fs.Bool("recover", false, "supervise the run: retry transient aborts, resuming the machine from its last checkpoint")
	metrics := fs.String("metrics", "", "serve OpenMetrics at this address (e.g. :9464) during and after the run; ctrl-c to exit")
	fs.Parse(args)
	p, err := pf.program()
	if err != nil {
		return err
	}
	cfg, err := mf.config()
	if err != nil {
		return err
	}

	if *engine == "interp" {
		r, err := p.Interpret(cfg.Binding)
		if err != nil {
			return err
		}
		fmt.Printf("engine: sequential interpreter\nstatements: %d\n%s", r.Ops, r.Snapshot)
		return nil
	}

	if cfg.Engine, err = parseEngine(*engine); err != nil {
		return err
	}
	d, err := pf.translate(p, *pf.schema, *linked)
	if err != nil {
		return err
	}
	if *legalize {
		var added int
		d, added = d.LegalizeSynchTrees()
		fmt.Fprintf(os.Stderr, "legalized: %d two-input synchs added\n", added)
	}
	cfg.RandomSeed, cfg.DetectRaces, cfg.Deadline = *seed, *races, *deadline
	if *supervise {
		cfg.Recovery = &ctdf.RecoveryPolicy{}
	}
	var srv *ctdf.TelemetryServer
	if *metrics != "" {
		cfg.Telemetry = ctdf.NewTelemetry()
		srv, err = cfg.Telemetry.Serve(*metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics\n", srv.Addr())
	}
	if *trace {
		cfg.Trace = os.Stderr
	}
	r, err := d.Run(cfg)
	if err != nil {
		if r != nil && r.Recovery != nil && len(r.Recovery.Checks) > 0 {
			fmt.Fprintf(os.Stderr, "recovery: %d attempt(s) aborted (%s)\n",
				r.Recovery.Attempts, strings.Join(r.Recovery.Checks, ", "))
		}
		if r != nil && r.Checkpoint != nil {
			// The abort left a last-good checkpoint behind; its cycle is a
			// direct `ctdf replay -at` target on this run's journal.
			fmt.Fprintf(os.Stderr, "last checkpoint: id %d at cycle %d — reconstruct it with `ctdf replay ... -at %d`\n",
				r.Checkpoint.ID, r.Checkpoint.Cycle, r.Checkpoint.Cycle)
		}
		return err
	}
	if r.Recovery != nil && r.Recovery.Recovered {
		fmt.Fprintf(os.Stderr, "recovered after %d attempts (%s): %d checkpoints taken, %d cycles replayed\n",
			r.Recovery.Attempts, strings.Join(r.Recovery.Checks, ", "),
			r.Recovery.CheckpointsTaken, r.Recovery.CyclesReplayed)
	}
	st := d.Stats()
	fmt.Printf("schema: %s   engine: %s\n", *pf.schema, *engine)
	fmt.Printf("graph: %d nodes, %d arcs (%d switches, %d merges, %d synchs, %d loads, %d stores)\n",
		st.Nodes, st.Arcs, st.Switches, st.Merges, st.Synchs, st.Loads, st.Stores)
	if cfg.Engine == ctdf.EngineMachine {
		fmt.Printf("cycles: %d   ops: %d   mem ops: %d   parallelism: avg %.2f, max %d   peak match store: %d\n",
			r.Cycles, r.Ops, r.MemOps, r.AvgParallelism, r.MaxParallelism, r.PeakMatchStore)
		if is := d.IStructures(); len(is) > 0 {
			fmt.Printf("i-structure arrays: %s\n", strings.Join(is, ", "))
		}
		if *profile {
			fmt.Print(ctdf.ProfileChart(r.Profile, r.Cycles, 72, 10))
		}
	} else {
		fmt.Printf("ops: %d\n", r.Ops)
	}
	fmt.Print(r.Snapshot)
	if srv != nil {
		// Hold the endpoint open so the final counters stay scrapeable —
		// the seed of a long-running `ctdf serve`.
		fmt.Fprintln(os.Stderr, "metrics: run complete, still serving (ctrl-c to exit)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	return nil
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	pf := addProgramFlags(fs)
	kind := fs.String("graph", "dfg", "which graph to render: cfg, dfg")
	format := fs.String("format", "dot", "output format for dfg: dot, text, listing")
	fs.Parse(args)
	p, err := pf.program()
	if err != nil {
		return err
	}
	switch *kind {
	case "cfg":
		fmt.Print(p.ControlFlowDOT())
		return nil
	case "dfg":
		d, err := pf.translate(p, *pf.schema, false)
		if err != nil {
			return err
		}
		return writeGraph(d, *format)
	}
	return fmt.Errorf("unknown graph kind %q", *kind)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	source := addSourceFlags(fs)
	fs.Parse(args)
	p, err := source.program()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %6s %6s %9s %7s %7s %6s %7s\n",
		"schema", "nodes", "arcs", "switches", "merges", "synchs", "loads", "stores")
	for _, s := range []ctdf.Schema{ctdf.Schema1, ctdf.Schema2, ctdf.Schema2Opt, ctdf.Schema3, ctdf.Schema3Opt} {
		d, err := p.Translate(ctdf.Options{Schema: s})
		if err != nil {
			return err
		}
		st := d.Stats()
		fmt.Printf("%-12s %6d %6d %9d %7d %7d %6d %7d\n",
			s, st.Nodes, st.Arcs, st.Switches, st.Merges, st.Synchs, st.Loads, st.Stores)
	}
	return nil
}

// cmdAliases prints the per-procedure alias structures derived from the
// program's call sites (paper §5).
func cmdAliases(args []string) error {
	fs := flag.NewFlagSet("aliases", flag.ExitOnError)
	source := addSourceFlags(fs)
	fs.Parse(args)
	p, err := source.program()
	if err != nil {
		return err
	}
	pas, err := p.DeriveAliases()
	if err != nil {
		return err
	}
	if len(pas) == 0 {
		fmt.Println("no procedures declared")
		return nil
	}
	for _, pa := range pas {
		fmt.Printf("proc %s(%s):\n", pa.Proc, strings.Join(pa.Formals, ", "))
		for _, f := range pa.Formals {
			fmt.Printf("  [%s] = {%s}\n", f, strings.Join(pa.Class[f], ", "))
		}
	}
	return nil
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	jsonDir := fs.String("json", "", "also write one JSON artifact per experiment into this directory")
	fs.Parse(args)
	want := map[string]bool{}
	for _, a := range fs.Args() {
		want[a] = true
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range experiments.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Printf("== %s: %s (%s) ==\n", e.ID, e.Title, e.Paper)
		out, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(out)
		if *jsonDir != "" {
			if err := writeJSON(filepath.Join(*jsonDir, e.Artifact), e); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
	}
	return nil
}

func cmdWorkloads() error {
	for _, w := range workloads.All() {
		paper := ""
		if w.Paper != "" {
			paper = " (" + w.Paper + ")"
		}
		fmt.Printf("%-24s%s\n", w.Name, paper)
	}
	return nil
}
