package main

import (
	"flag"
	"fmt"
	"os"

	"ctdf"
	"ctdf/internal/obs"
)

// cmdTrace executes a program with the causal execution journal enabled
// and answers provenance questions about the run: -explain renders the
// backward cause cone of a firing ("which operations caused this
// value?"), -impact the forward slice ("what did this firing feed?"),
// -journal saves the journal for later `ctdf replay`, and -chrome /
// -pprof export the run for Perfetto and `go tool pprof`. Anchor specs
// name a node ("d10"), a node at a tag ("d10@0.1", "d10@root"), a label
// substring ("store x"), or a raw firing id ("#42"). See OBSERVABILITY.md
// for a walkthrough on the running example.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	workload := sourceFlags(fs)
	schema, cover, elim, parReads, parStores := translateOptions(fs)
	istructs := istructFlag(fs)
	procs := fs.Int("procs", 0, "processors (0 = unlimited)")
	workers := fs.Int("workers", 1, "partition the machine's state across N shared-nothing shards (byte-identical execution)")
	latency := fs.Int("latency", 1, "split-phase memory latency in cycles")
	binding := fs.String("binding", "", "alias binding, e.g. x=z (x and z share one location)")
	explain := fs.String("explain", "", "render the backward cause cone of this anchor (NODE[@TAG], label, or #ID)")
	impact := fs.String("impact", "", "render the forward slice of this anchor")
	depth := fs.Int("depth", 0, "limit rendered cone depth (0 = unlimited)")
	journalPath := fs.String("journal", "", "save the journal to this file (.gz compresses) for 'ctdf replay'")
	chrome := fs.String("chrome", "", "export a Chrome Trace Event JSON for Perfetto to this file")
	pprof := fs.String("pprof", "", "export a pprof profile for 'go tool pprof' to this file")
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
	opt, err := buildOptions(*schema, *cover, *elim, *parReads, *parStores, *istructs)
	if err != nil {
		return err
	}
	d, err := p.Translate(opt)
	if err != nil {
		return err
	}
	r, err := d.Run(ctdf.RunConfig{
		Engine: ctdf.EngineMachine, Processors: *procs, Workers: *workers,
		MemLatency: *latency, Binding: b,
		Obs: &ctdf.ObsOptions{Journal: true, Label: opt.Schema.String()},
	})
	if err != nil {
		return err
	}
	fmt.Println(r.Journal.Summary())

	if *explain != "" {
		text, err := r.Journal.Explain(*explain, *depth)
		if err != nil {
			return err
		}
		fmt.Print(text)
	}
	if *impact != "" {
		text, err := r.Journal.Impact(*impact, *depth)
		if err != nil {
			return err
		}
		fmt.Print(text)
	}
	if *journalPath != "" {
		if err := r.Journal.WriteFile(*journalPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "journal written to %s\n", *journalPath)
	}
	if *chrome != "" {
		w, err := obs.CreateStream(*chrome)
		if err != nil {
			return err
		}
		if err := r.Journal.WriteChromeTrace(w); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "chrome trace written to %s (load at ui.perfetto.dev)\n", *chrome)
	}
	if *pprof != "" {
		f, err := os.Create(*pprof)
		if err != nil {
			return err
		}
		if err := r.Journal.WritePprof(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pprof profile written to %s (inspect with 'go tool pprof -top %s')\n", *pprof, *pprof)
	}
	return nil
}
