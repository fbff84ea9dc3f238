package main

import (
	"bytes"
	"flag"
	"fmt"

	"ctdf/internal/cfg"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/obs/journal"
	graphopt "ctdf/internal/opt"
	"ctdf/internal/translate"
	"ctdf/internal/workloads"
)

// cmdReplay is the time-travel debugger: it re-executes the machine
// engine under a journal's recorded configuration (fault plan included)
// and diffs the re-execution against the recording firing by firing.
// The machine is deterministic, so any divergence is a bug — in the
// engine, the journal, or the configuration capture — and the command
// exits non-zero. With -at it additionally dumps the reconstructed
// machine state (in-flight firings, live tokens, matching-store
// contents) at that cycle.
//
// Two modes:
//
//	ctdf replay [-at cycle] journal-file   replay one saved journal
//	ctdf replay -suite [-v]                record+replay every serializable
//	                                       workload × schema (verify gate)
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	at := fs.Int("at", -1, "also dump machine state at this cycle")
	suite := fs.Bool("suite", false, "record and replay every serializable workload × schema")
	verbose := fs.Bool("v", false, "suite mode: print one line per replayed run")
	fs.Parse(args)
	if *suite {
		return replaySuite(*verbose)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one journal file (or -suite)")
	}
	j, err := journal.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Println(j.Summary())
	rr, err := journal.Replay(j)
	if err != nil {
		return err
	}
	fmt.Print(rr.Text())
	if *at >= 0 {
		st, err := rr.Replayed.StateAt(*at)
		if err != nil {
			return err
		}
		fmt.Print(st.Text(rr.Replayed))
	}
	if len(rr.Divergences) > 0 {
		return fmt.Errorf("replay diverged from the recording")
	}
	return nil
}

// replaySuite records and replays the same workload × schema matrix the
// vet suite verifies (minus linked procedure graphs, which are not
// serializable in dfg text format v1), pushing every journal through an
// NDJSON round trip first so the gate also covers serialization. Every
// cell runs twice — as translated and through the graph optimizer — so
// the gate proves optimized graphs (fused super-operators included)
// journal and replay exactly like plain ones. Each variant runs at
// worker counts 1 and 4: the sharded machine's contract is
// byte-identical execution, so both journals must replay divergence-free
// AND agree with each other firing by firing. It is the replay gate run
// by scripts/verify.sh.
func replaySuite(verbose bool) error {
	schemas := []translate.Options{
		{Schema: translate.Schema1},
		{Schema: translate.Schema2},
		{Schema: translate.Schema2Opt},
		{Schema: translate.Schema3},
		{Schema: translate.Schema3Opt},
	}
	workerCounts := []int{1, 4}
	runs, diverged := 0, 0
	for _, w := range workloads.All() {
		g := cfg.MustBuild(w.Parse())
		for _, opt := range schemas {
			for _, optimized := range []bool{false, true} {
				res, err := translate.Translate(g, opt)
				if err != nil {
					return fmt.Errorf("%s/%v: %w", w.Name, opt.Schema, err)
				}
				if len(res.Graph.Calls) > 0 {
					continue
				}
				variant := ""
				if optimized {
					if _, err := graphopt.Run(res); err != nil {
						return fmt.Errorf("%s/%v: optimize: %w", w.Name, opt.Schema, err)
					}
					variant = "+opt"
				}
				var baseline *journal.Journal
				for _, workers := range workerCounts {
					label := fmt.Sprintf("%s/%v%s/w%d", w.Name, opt.Schema, variant, workers)
					jcfg := journal.Config{Processors: 2, MemLatency: 3, Workers: workers}
					col := obs.NewCollector(res.Graph, obs.Options{CriticalPath: true})
					out, err := machine.Run(res.Graph, machine.Config{Processors: 2, MemLatency: 3, Collector: col, Workers: workers})
					if err != nil {
						return fmt.Errorf("%s: %w", label, err)
					}
					j := journal.New(res.Graph, col, label, jcfg, out.Stats.Cycles)
					var buf bytes.Buffer
					if err := j.Write(&buf); err != nil {
						return fmt.Errorf("%s: %w", label, err)
					}
					loaded, err := journal.Read(&buf)
					if err != nil {
						return fmt.Errorf("%s: reload: %w", label, err)
					}
					rr, err := journal.Replay(loaded)
					if err != nil {
						return fmt.Errorf("%s: %w", label, err)
					}
					runs++
					if len(rr.Divergences) > 0 {
						diverged++
						fmt.Printf("%s: DIVERGED\n%s", label, rr.Text())
					} else if verbose {
						fmt.Printf("%-40s ok: %d firings, %d cycles\n", label, len(loaded.Fires), loaded.Cycles)
					}
					// Cross-worker-count byte-exactness: the sharded journal must
					// match the sequential one firing by firing.
					if baseline == nil {
						baseline = loaded
					} else if ds := journal.Diff(baseline, loaded); len(ds) > 0 {
						diverged++
						fmt.Printf("%s: DIVERGED from w%d journal:\n", label, workerCounts[0])
						for _, d := range ds {
							fmt.Printf("  %s\n", d)
						}
					}
				}
			}
		}
	}
	fmt.Printf("replay suite: %d runs replayed (worker counts %v), %d diverged\n", runs, workerCounts, diverged)
	if diverged > 0 {
		return fmt.Errorf("replay suite: %d divergent runs", diverged)
	}
	return nil
}
