package main

import (
	"flag"
	"fmt"
	"strings"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/interp"
	"ctdf/internal/lang"
	"ctdf/internal/machine"
	"ctdf/internal/obs"
	"ctdf/internal/translate"
)

// cmdExplain walks one program through every stage of the paper's
// pipeline, printing the intermediate artifacts: CFG, postdominators,
// control dependences, switch placement, source vectors, the dataflow
// listing, and an execution summary.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	source := addSourceFlags(fs)
	schemaName := fs.String("schema", "schema2-opt", "translation schema")
	latency := fs.Int("latency", 4, "split-phase memory latency in cycles")
	fs.Parse(args)
	src, err := source.text()
	if err != nil {
		return err
	}
	schema, err := translate.ParseSchema(*schemaName)
	if err != nil {
		return err
	}

	prog, err := lang.Parse(src)
	if err != nil {
		return err
	}
	fmt.Println("== source ==")
	fmt.Print(prog.Format())

	g, err := cfg.Build(prog)
	if err != nil {
		return err
	}
	fmt.Println("\n== control-flow graph (§2.1) ==")
	fmt.Print(g.String())

	g2, regions, err := cfg.MakeReducible(g)
	if err != nil {
		return err
	}
	if regions > 0 {
		fmt.Printf("\n== irreducible flow (footnote 5): %d dispatch region(s), each a header join forking on %s ==\n", regions, cfg.Selector)
		for _, n := range g2.Nodes[g.Len():] {
			fmt.Printf("%-40s -> %v\n", n, n.Succs)
		}
	}
	res, err := translate.Translate(g, translate.Options{Schema: schema})
	if err != nil {
		return err
	}
	tg := res.CFG
	if len(res.Loops) > 0 {
		fmt.Printf("\n== interval transformation (§3): %d loop(s) ==\n", len(res.Loops))
		for _, l := range res.Loops {
			fmt.Printf("loop entry n%d (header n%d, depth %d, exits %v, %d body nodes)\n",
				l.Entry, l.Header, l.Depth, l.Exits, len(l.Body))
		}
		fmt.Println("\ntransformed CFG:")
		fmt.Print(tg.String())
	}

	pdom := cfg.PostDominators(tg)
	fmt.Println("\n== immediate postdominators (footnote 6) ==")
	for id := range tg.Nodes {
		if ip := pdom.Idom[id]; ip >= 0 {
			fmt.Printf("ipdom(n%d) = n%d\n", id, ip)
		}
	}

	cd := analysis.ComputeControlDeps(tg)
	fmt.Println("\n== control dependences (Definition 4) ==")
	for id := range tg.Nodes {
		if deps := cd.CD(id); len(deps) > 0 {
			var parts []string
			for _, f := range deps {
				parts = append(parts, fmt.Sprintf("n%d", f))
			}
			fmt.Printf("CD(n%d) = {%s}\n", id, strings.Join(parts, ", "))
		}
	}

	fmt.Printf("\n== switch placement (Figure 10), schema %s ==\n", schema)
	for f, row := range res.Plan.Placement.Needs {
		if len(row) == 0 {
			continue
		}
		toks := make([]string, len(row))
		for i, t := range row {
			toks[i] = res.Plan.Placement.Universe[t]
		}
		fmt.Printf("%s switches: %s\n", res.CFG.Nodes[f], strings.Join(toks, ", "))
	}

	fmt.Println("\n== source vectors (Figure 11), non-trivial entries ==")
	sv, err := res.Plan.SourceVectors()
	if err != nil {
		return err
	}
	// Read token by token, as an entry the vectors do not keep is
	// recomputed a token at a time; printed node by node.
	lines := make([][]string, len(res.CFG.Nodes))
	for t, tok := range sv.Universe {
		for id := range res.CFG.Nodes {
			srcs := sv.Sources(id, int32(t))
			if len(srcs) == 0 {
				continue
			}
			var parts []string
			for _, s := range srcs {
				parts = append(parts, s.String())
			}
			lines[id] = append(lines[id], fmt.Sprintf("SV_n%d(%s) = {%s}", id, tok, strings.Join(parts, ", ")))
		}
	}
	for _, node := range lines {
		for _, l := range node {
			fmt.Println(l)
		}
	}

	st := res.Graph.Stats()
	fmt.Printf("\n== dataflow graph: %d nodes, %d arcs (%d switches, %d merges, %d synchs) ==\n",
		st.Nodes, st.Arcs, st.Switches, st.Merges, st.Synchs)
	fmt.Print(dfg.Listing(res.Graph))

	out, err := machine.Run(res.Graph, machine.Config{MemLatency: *latency})
	if err != nil {
		return err
	}
	want, err := interp.Run(g, interp.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("\n== execution (L=%d, unlimited processors) ==\n", *latency)
	fmt.Printf("cycles: %d   ops: %d   avg parallelism: %.2f   peak match store: %d\n",
		out.Stats.Cycles, out.Stats.Ops, out.Stats.AvgParallelism(), out.Stats.PeakMatchStore)
	fmt.Print(obs.ProfileChart(out.Stats.Profile, out.Stats.Cycles, 64, 8))
	got := translate.FinalSnapshot(res, out.Store, out.EndValues)
	fmt.Println("final state:")
	fmt.Print(got)
	if got == want.Store.Snapshot() {
		fmt.Println("matches the sequential interpreter ✓")
	} else {
		fmt.Println("!! DOES NOT MATCH THE INTERPRETER !!")
	}
	return nil
}
