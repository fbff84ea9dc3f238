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
	pf := addProgramFlags(fs)
	mf := addMachineFlags(fs)
	engine := fs.String("engine", "machine", "execution engine: machine, channels")
	events := fs.String("events", "-", "NDJSON event stream destination: -, a file path, or none")
	jsonOut := fs.String("json", "", "also write the report as JSON: - or a file path")
	tel := fs.Bool("telemetry", false, "record engine telemetry; print the phase breakdown and traffic matrix")
	telJSON := fs.String("telemetry-json", "", "also write the telemetry snapshot as JSON: - or a file path")
	top := fs.Int("top", 10, "per-node rows shown in the text report (0 = all)")
	vs := fs.String("vs", "", "also run under this schema and print the diff (baseline = -schema)")
	fs.Parse(args)
	p, err := pf.program()
	if err != nil {
		return err
	}
	cfg, err := mf.config()
	if err != nil {
		return err
	}
	if *tel || *telJSON != "" {
		cfg.Telemetry = ctdf.NewTelemetry()
	}
	if cfg.Engine, err = parseEngine(*engine); err != nil {
		return err
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

	run := func(schema string, w io.Writer) (*ctdf.Result, error) {
		d, err := pf.translate(p, schema, false)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Obs = &ctdf.ObsOptions{Events: w, CriticalPath: cfg.Engine == ctdf.EngineMachine, Label: schema}
		return d.Run(c)
	}

	r, err := run(*pf.schema, eventsW)
	if err != nil {
		return err
	}
	fmt.Printf("schema: %s   engine: %s\n", *pf.schema, *engine)
	fmt.Print(r.Obs.Text(*top))
	if cfg.Telemetry != nil {
		snap := cfg.Telemetry.Snapshot()
		if *tel {
			fmt.Println()
			fmt.Print(snap.PhaseTable())
		}
		if *telJSON != "" {
			if err := writeJSON(*telJSON, snap); err != nil {
				return err
			}
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, r.Obs); err != nil {
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
