package main

import (
	"flag"
	"fmt"

	"ctdf"
	"ctdf/internal/workloads"
)

// cmdVet statically verifies dataflow graphs against the paper's
// correctness conditions (see ANALYSIS.md): structure, token balance,
// determinacy, switch placement, source vectors, and alias-cover
// soundness. Exits non-zero when any error-severity diagnostic is found.
//
// Two modes:
//
//	ctdf vet [flags] (file | -workload name)   verify one translation
//	ctdf vet -suite [-json file]               verify every workload × schema
func cmdVet(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	pf := addProgramFlags(fs)
	linked := fs.Bool("linked", false, "compile procedures separately before verifying")
	suite := fs.Bool("suite", false, "verify every built-in workload under every schema")
	optimize := fs.Bool("optimize", false, "suite mode: also verify the optimized translation of every cell")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	jsonPath := fs.String("jsonfile", "", "write the report as JSON to this file")
	verbose := fs.Bool("v", false, "suite mode: print one line per verified graph")
	fs.Parse(args)
	if *suite {
		return vetSuite(*jsonOut, *jsonPath, *verbose, *optimize)
	}

	d, err := pf.dataflow(*linked)
	if err != nil {
		return err
	}
	rep := d.Vet()
	if *jsonOut {
		if err := writeJSON("-", rep); err != nil {
			return err
		}
	} else {
		fmt.Print(rep.String())
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			return err
		}
	}
	if rep.Errors > 0 {
		return fmt.Errorf("vet: %d errors", rep.Errors)
	}
	return nil
}

// vetSuiteEntry is one row of the suite artifact.
type vetSuiteEntry struct {
	Workload    string               `json:"workload"`
	Schema      string               `json:"schema"`
	Linked      bool                 `json:"linked,omitempty"`
	Passes      int                  `json:"passes"`
	Skipped     int                  `json:"skipped,omitempty"`
	Errors      int                  `json:"errors"`
	Warnings    int                  `json:"warnings"`
	Diagnostics []ctdf.VetDiagnostic `json:"diagnostics,omitempty"`
}

// vetSuiteReport is the artifacts/vet.json schema (deterministic: no
// timestamps, fixed iteration order).
type vetSuiteReport struct {
	Verified int             `json:"verified"`
	Clean    int             `json:"clean"`
	Errors   int             `json:"errors"`
	Warnings int             `json:"warnings"`
	Entries  []vetSuiteEntry `json:"entries"`
}

func vetSuite(jsonOut bool, jsonPath string, verbose, optimize bool) error {
	schemas := []ctdf.Schema{ctdf.Schema1, ctdf.Schema2, ctdf.Schema2Opt, ctdf.Schema3, ctdf.Schema3Opt}
	rep := &vetSuiteReport{}
	add := func(name, schemaName string, linked bool, vr *ctdf.VetReport) {
		e := vetSuiteEntry{
			Workload: name, Schema: schemaName, Linked: linked,
			Passes: len(vr.Ran), Skipped: len(vr.Skipped),
			Errors: vr.Errors, Warnings: vr.Warnings,
		}
		if !vr.Clean() {
			e.Diagnostics = vr.Diags
		}
		rep.Entries = append(rep.Entries, e)
		rep.Verified++
		if vr.Clean() {
			rep.Clean++
		}
		rep.Errors += vr.Errors
		rep.Warnings += vr.Warnings
		if verbose {
			fmt.Printf("%-24s %-12s errors=%d warnings=%d\n", name, schemaName, vr.Errors, vr.Warnings)
		}
	}
	for _, w := range workloads.All() {
		p, err := ctdf.Compile(w.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if p.HasProcedures() {
			d, err := p.TranslateLinked()
			if err != nil {
				return fmt.Errorf("%s: linked: %w", w.Name, err)
			}
			add(w.Name, "linked", true, d.Vet())
			continue
		}
		for _, s := range schemas {
			d, err := p.Translate(ctdf.Options{Schema: s})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.Name, s, err)
			}
			add(w.Name, s.String(), false, d.Vet())
			if !optimize {
				continue
			}
			od, err := p.Translate(ctdf.Options{Schema: s, Optimize: 1})
			if err != nil {
				return fmt.Errorf("%s/%s+opt: %w", w.Name, s, err)
			}
			add(w.Name, s.String()+"+opt", false, od.Vet())
		}
	}
	fmt.Printf("vet suite: %d graphs verified, %d clean, %d errors, %d warnings\n",
		rep.Verified, rep.Clean, rep.Errors, rep.Warnings)
	if jsonOut {
		if err := writeJSON("-", rep); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, rep); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", jsonPath)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("vet suite: %d errors", rep.Errors)
	}
	return nil
}
