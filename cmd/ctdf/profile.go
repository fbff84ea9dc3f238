package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ctdf"
	"ctdf/internal/obs"
)

// cmdProfile executes a program as an observed run: it writes the
// NDJSON event stream (node metadata, cycle-stamped fire/wait events,
// and a trailing summary line), then prints the human-readable report —
// per-node counters, per-kind aggregation, parallelism histogram, and
// the critical path with per-operator attribution. With -vs it runs the
// program a second time under another schema and prints the structured
// diff. See OBSERVABILITY.md for the event schema and a walkthrough.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	workload := sourceFlags(fs)
	schema, cover, elim, parReads, parStores := translateOptions(fs)
	istructs := istructFlag(fs)
	engine := fs.String("engine", "machine", "execution engine: machine, channels")
	procs := fs.Int("procs", 0, "processors (0 = unlimited)")
	latency := fs.Int("latency", 1, "split-phase memory latency in cycles")
	workers := fs.Int("workers", 1, "partition the machine's state across N shards (byte-identical execution)")
	binding := fs.String("binding", "", "alias binding, e.g. x=z (x and z share one location)")
	events := fs.String("events", "-", "NDJSON event stream destination: -, a file path, or none")
	jsonOut := fs.String("json", "", "also write the report as JSON: - or a file path")
	tel := fs.Bool("telemetry", false, "record engine telemetry; print the phase breakdown and traffic matrix")
	telJSON := fs.String("telemetry-json", "", "also write the telemetry snapshot as JSON: - or a file path")
	top := fs.Int("top", 10, "per-node rows shown in the text report (0 = all)")
	vs := fs.String("vs", "", "also run under this schema and print the diff (baseline = -schema)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := loadSource(fs, *workload)
	if err != nil {
		return err
	}
	p, err := ctdf.Compile(src)
	if err != nil {
		return err
	}
	b, err := parseBinding(*binding)
	if err != nil {
		return err
	}
	cfg := ctdf.RunConfig{Processors: *procs, MemLatency: *latency, Workers: *workers, Binding: b}
	var reg *ctdf.Telemetry
	if *tel || *telJSON != "" {
		reg = ctdf.NewTelemetry()
	}
	switch *engine {
	case "machine":
		cfg.Engine = ctdf.EngineMachine
	case "channels":
		cfg.Engine = ctdf.EngineChannels
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}

	var eventsW io.Writer
	switch *events {
	case "none", "":
	case "-":
		eventsW = os.Stdout
	default:
		// CreateStream gzips transparently when the path ends in ".gz".
		f, err := obs.CreateStream(*events)
		if err != nil {
			return err
		}
		defer f.Close()
		eventsW = f
	}

	run := func(schemaName string, w io.Writer) (*ctdf.Result, error) {
		opt, err := buildOptions(schemaName, *cover, *elim, *parReads, *parStores, *istructs)
		if err != nil {
			return nil, err
		}
		d, err := p.Translate(opt)
		if err != nil {
			return nil, err
		}
		return d.Run(ctdf.RunConfig{
			Engine: cfg.Engine, Processors: cfg.Processors, MemLatency: cfg.MemLatency,
			Workers: cfg.Workers, Binding: cfg.Binding,
			Telemetry: reg,
			Obs: &ctdf.ObsOptions{
				Events:       w,
				CriticalPath: cfg.Engine == ctdf.EngineMachine,
				Label:        opt.Schema.String(),
			},
		})
	}

	r, err := run(*schema, eventsW)
	if err != nil {
		return err
	}
	fmt.Printf("schema: %s   engine: %s\n", *schema, *engine)
	fmt.Print(r.Obs.Text(*top))
	if reg != nil {
		snap := reg.Snapshot()
		if *tel {
			fmt.Println()
			fmt.Print(snap.PhaseTable())
		}
		if *telJSON != "" {
			js, err := snap.JSON()
			if err != nil {
				return err
			}
			js = append(js, '\n')
			if *telJSON == "-" {
				os.Stdout.Write(js)
			} else if err := os.WriteFile(*telJSON, js, 0o644); err != nil {
				return err
			}
		}
	}

	if *jsonOut != "" {
		js, err := r.Obs.JSON()
		if err != nil {
			return err
		}
		js = append(js, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(js)
		} else if err := os.WriteFile(*jsonOut, js, 0o644); err != nil {
			return err
		}
	}

	if *vs != "" {
		r2, err := run(*vs, nil)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(ctdf.CompareObs(r.Obs, r2.Obs).Text())
	}
	return nil
}
