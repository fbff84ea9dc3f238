package main

import (
	"flag"
	"fmt"

	"ctdf"
)

// cmdOpt translates a program, runs the post-translation graph
// optimizer, and reports what changed: graph size and machine-cycle
// deltas, and with -explain the per-pass rewrite counts. The optimized
// graph must still vet clean — the command verifies that before
// printing anything.
func cmdOpt(args []string) error {
	fs := flag.NewFlagSet("opt", flag.ExitOnError)
	pf := addProgramFlags(fs)
	explain := fs.Bool("explain", false, "print per-pass rewrite counts")
	format := fs.String("format", "", "also emit the optimized graph: text, dot, listing")
	fs.Parse(args)
	d, err := pf.dataflow(false)
	if err != nil {
		return err
	}
	before := d.Stats()
	beforeRun, err := d.Run(ctdf.RunConfig{})
	if err != nil {
		return err
	}
	passes, err := d.Optimize()
	if err != nil {
		return err
	}
	if rep := d.Vet(); !rep.Clean() {
		return fmt.Errorf("optimized graph failed vet:\n%s", rep)
	}
	after := d.Stats()
	afterRun, err := d.Run(ctdf.RunConfig{})
	if err != nil {
		return err
	}
	if beforeRun.Snapshot != afterRun.Snapshot {
		return fmt.Errorf("optimizer changed the result:\nbefore %safter %s", beforeRun.Snapshot, afterRun.Snapshot)
	}

	fmt.Printf("schema: %s\n", *pf.schema)
	fmt.Printf("graph: %d → %d nodes, %d → %d arcs (%d → %d switches, %d → %d merges)\n",
		before.Nodes, after.Nodes, before.Arcs, after.Arcs,
		before.Switches, after.Switches, before.Merges, after.Merges)
	fmt.Printf("machine: %d → %d cycles, %d → %d firings\n",
		beforeRun.Cycles, afterRun.Cycles, beforeRun.Ops, afterRun.Ops)
	if *explain {
		total := 0
		for _, ps := range passes {
			fmt.Printf("  %-16s %4d rewrites\n", ps.Name, ps.Rewrites)
			total += ps.Rewrites
		}
		fmt.Printf("  %-16s %4d rewrites\n", "total", total)
	}
	if *format == "" {
		return nil
	}
	return writeGraph(d, *format)
}
