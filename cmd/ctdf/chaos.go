package main

import (
	"flag"
	"fmt"
	"time"

	"ctdf/internal/chaos"
)

// cmdChaos runs the fault-injection detection matrix: every injected
// fault must be caught by a named machine check or by oracle mismatch
// (see ROBUSTNESS.md). Exits non-zero on any undetected fault or leaked
// goroutine. With -recover it runs the recovery matrix instead: every
// transient fault class must be survived — supervised runs
// (RunConfig.Recovery) retried to an output byte-identical to the
// fault-free golden.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	smoke := fs.Bool("smoke", false, "fast CI gate: one schema, two workloads")
	seed := fs.Int64("seed", 1, "seed for deterministic injection-site selection")
	deadline := fs.Duration("deadline", 10*time.Second, "per-run deadline")
	jsonPath := fs.String("json", "", "write the detection matrix as JSON to this file")
	verbose := fs.Bool("v", false, "print every matrix cell")
	recover := fs.Bool("recover", false, "run the recovery matrix: prove transient faults are survived, not just detected")
	fs.Parse(args)
	if *recover {
		return chaosRecover(chaos.Config{Smoke: *smoke, Seed: *seed, Deadline: *deadline}, *jsonPath, *verbose)
	}
	m, err := chaos.Run(chaos.Config{Smoke: *smoke, Seed: *seed, Deadline: *deadline})
	if err != nil {
		return err
	}
	if *verbose {
		for _, c := range m.Cells {
			fmt.Printf("%-8s %-12s %-16s %-20s site %d/%d: %s\n",
				c.Engine, c.Schema, c.Workload, c.Class, c.Site, c.Sites, c.Outcome)
		}
		for _, r := range m.Replay {
			abort := "clean finish"
			if r.Abort != "" {
				abort = fmt.Sprintf("%s @ cycle %d", r.Abort, r.AbortCycle)
			}
			fmt.Printf("replay   %-12s %-16s %-20s site %d: %s (%s)\n",
				r.Schema, r.Workload, r.Class, r.Site, r.Outcome, abort)
		}
	}
	fmt.Print(m.Summary())
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, m); err != nil {
			return err
		}
		fmt.Printf("matrix written to %s\n", *jsonPath)
	}
	if m.Detected != m.Total {
		return fmt.Errorf("chaos: %d of %d injected faults went undetected", m.Total-m.Detected, m.Total)
	}
	if m.LeakedGoroutines != 0 {
		return fmt.Errorf("chaos: %d goroutines leaked across the sweep", m.LeakedGoroutines)
	}
	if m.ReplayReproduced != m.ReplayTotal {
		return fmt.Errorf("chaos: %d of %d fault journals failed to replay exactly",
			m.ReplayTotal-m.ReplayReproduced, m.ReplayTotal)
	}
	return nil
}

// chaosRecover runs the recovery matrix and writes artifacts/recover.json
// style output. Exits non-zero on any unrecovered transient cell or
// leaked goroutine.
func chaosRecover(cfg chaos.Config, jsonPath string, verbose bool) error {
	m, err := chaos.RunRecover(cfg)
	if err != nil {
		return err
	}
	if verbose {
		for _, c := range m.Cells {
			fmt.Printf("%-8s %-12s %-16s %-20s w%d site %d/%d attempts %d: %s\n",
				c.Engine, c.Schema, c.Workload, c.Class, c.Workers, c.Site, c.Sites, c.Attempts, c.Outcome)
		}
	}
	fmt.Print(m.Summary())
	if jsonPath != "" {
		if err := writeJSON(jsonPath, m); err != nil {
			return err
		}
		fmt.Printf("matrix written to %s\n", jsonPath)
	}
	if m.OK != m.Total {
		return fmt.Errorf("chaos: %d of %d transient-fault cells were not recovered", m.Total-m.OK, m.Total)
	}
	if m.LeakedGoroutines != 0 {
		return fmt.Errorf("chaos: %d goroutines leaked across the recovery sweep", m.LeakedGoroutines)
	}
	return nil
}
