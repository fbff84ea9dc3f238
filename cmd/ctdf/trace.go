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
	pf := addProgramFlags(fs)
	mf := addMachineFlags(fs)
	explain := fs.String("explain", "", "render the backward cause cone of this anchor (NODE[@TAG], label, or #ID)")
	impact := fs.String("impact", "", "render the forward slice of this anchor")
	depth := fs.Int("depth", 0, "limit rendered cone depth (0 = unlimited)")
	journalPath := fs.String("journal", "", "save the journal to this file (.gz compresses) for 'ctdf replay'")
	chrome := fs.String("chrome", "", "export a Chrome Trace Event JSON for Perfetto to this file")
	pprof := fs.String("pprof", "", "export a pprof profile for 'go tool pprof' to this file")
	fs.Parse(args)
	d, err := pf.dataflow(false)
	if err != nil {
		return err
	}
	cfg, err := mf.config()
	if err != nil {
		return err
	}
	cfg.Obs = &ctdf.ObsOptions{Journal: true, Label: *pf.schema}
	r, err := d.Run(cfg)
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
