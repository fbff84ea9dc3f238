package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ctdf"
	"ctdf/internal/workloads"
)

// The flags several commands share are declared here and nowhere else
// (scripts/verify.sh checks): a source selection, the program flags that
// say how it is translated, and the machine flags that say how it runs.

// sourceFlags selects the program: one file argument ("-" reads stdin),
// or a built-in workload.
type sourceFlags struct {
	fs       *flag.FlagSet
	workload *string
}

func addSourceFlags(fs *flag.FlagSet) *sourceFlags {
	return &sourceFlags{fs, fs.String("workload", "", "run a built-in workload instead of a file")}
}

// text returns the selected program's source text.
func (s *sourceFlags) text() (string, error) {
	switch {
	case *s.workload != "" && s.fs.NArg() > 0:
		return "", fmt.Errorf("unexpected argument %q: -workload already names the program", s.fs.Arg(0))
	case *s.workload != "":
		w, err := workloads.ByName(*s.workload)
		if err != nil {
			return "", fmt.Errorf("unknown workload %q (see 'ctdf workloads')", *s.workload)
		}
		return w.Source, nil
	case s.fs.NArg() != 1:
		return "", fmt.Errorf("expected exactly one source file (or -workload)")
	}
	name := s.fs.Arg(0)
	if name == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(name)
	return string(b), err
}

// program compiles the selected source.
func (s *sourceFlags) program() (*ctdf.Program, error) {
	src, err := s.text()
	if err != nil {
		return nil, err
	}
	return ctdf.Compile(src)
}

// programFlags selects a program and the options it is translated with.
type programFlags struct {
	*sourceFlags
	schema, cover                       *string
	elim, parReads, parStores, istructs *bool
}

func addProgramFlags(fs *flag.FlagSet) *programFlags {
	return &programFlags{
		sourceFlags: addSourceFlags(fs),
		schema:      fs.String("schema", "schema2-opt", "translation schema: schema1, schema2, schema2-opt, schema3, schema3-opt"),
		cover:       fs.String("cover", "singleton", "schema 3 cover: singleton, class, monolithic"),
		elim:        fs.Bool("elim", false, "eliminate memory operations for unaliased scalars (§6.1)"),
		parReads:    fs.Bool("parreads", false, "parallelize read sequences (§6.2)"),
		parStores:   fs.Bool("parstores", false, "parallelize independent array stores (§6.3)"),
		istructs:    fs.Bool("istructs", false, "give write-once arrays I-structure semantics (§6.3)"),
	}
}

var covers = map[string]ctdf.CoverKind{
	"singleton": ctdf.CoverSingleton, "class": ctdf.CoverClass, "monolithic": ctdf.CoverMonolithic,
}

// translate translates p under the flags with the schema named schema
// (-schema, or another the command compares against). When linked, p's
// procedures are compiled separately instead; the flags must still
// parse.
func (pf *programFlags) translate(p *ctdf.Program, schema string, linked bool) (*ctdf.Dataflow, error) {
	s, err := ctdf.ParseSchema(schema)
	if err != nil {
		return nil, err
	}
	cover, ok := covers[*pf.cover]
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown cover %q", *pf.cover)
	case linked:
		return p.TranslateLinked()
	}
	return p.Translate(ctdf.Options{
		Schema: s, Cover: cover, EliminateMemory: *pf.elim, ParallelReads: *pf.parReads,
		ParallelArrayStores: *pf.parStores, UseIStructures: *pf.istructs,
	})
}

// dataflow compiles the selected program and translates it under the
// flags' schema.
func (pf *programFlags) dataflow(linked bool) (*ctdf.Dataflow, error) {
	p, err := pf.program()
	if err != nil {
		return nil, err
	}
	return pf.translate(p, *pf.schema, linked)
}

// machineFlags describe the machine a dataflow graph runs on.
type machineFlags struct {
	procs, latency, workers *int
	binding                 *string
}

func addMachineFlags(fs *flag.FlagSet) *machineFlags {
	return &machineFlags{
		procs:   fs.Int("procs", 0, "processors (0 = unlimited)"),
		latency: fs.Int("latency", 1, "split-phase memory latency in cycles"),
		workers: fs.Int("workers", 1, "partition the machine's state across N shared-nothing shards (byte-identical execution)"),
		binding: fs.String("binding", "", "alias binding, e.g. x=z (x and z share one location)"),
	}
}

// config returns the run configuration the flags describe.
func (m *machineFlags) config() (ctdf.RunConfig, error) {
	cfg := ctdf.RunConfig{Processors: *m.procs, MemLatency: *m.latency, Workers: *m.workers}
	if *m.binding == "" {
		return cfg, nil
	}
	cfg.Binding = map[string]string{}
	for _, pair := range strings.Split(*m.binding, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return cfg, fmt.Errorf("bad binding %q (want name=canonical,…)", pair)
		}
		cfg.Binding[kv[0]] = kv[1]
	}
	return cfg, nil
}

// parseEngine resolves an -engine value naming one of the library's
// engines.
func parseEngine(name string) (ctdf.Engine, error) {
	switch name {
	case "machine":
		return ctdf.EngineMachine, nil
	case "channels":
		return ctdf.EngineChannels, nil
	}
	return 0, fmt.Errorf("unknown engine %q", name)
}
