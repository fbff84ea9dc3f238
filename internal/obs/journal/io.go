package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"ctdf/internal/dfg"
	"ctdf/internal/obs"
)

// The on-disk journal is NDJSON: one self-describing JSON object per
// line, streamable and greppable like the event log (-events). Line
// types, in order:
//
//	{"type":"journal", ...}   header: version, engine, label, config,
//	                          graph text, node metadata
//	{"type":"fire", ...}      one per firing, in issue order
//	{"type":"park", ...}      one per matching-store wait
//	{"type":"fault", ...}     one per injected fault
//	{"type":"abort", ...}     present iff the run died on a machine check
//	{"type":"end", ...}       trailer: total cycles; its presence marks
//	                          the journal complete
//
// Fires/parks/faults are written sorted by kind (not interleaved by
// cycle): the fire ids are self-describing, so no information is lost,
// and readers get locality. Paths ending in ".gz" are transparently
// compressed on write and sniffed on read (obs.CreateStream/OpenStream).

type headerLine struct {
	Type    string         `json:"type"`
	Version int            `json:"version"`
	Engine  string         `json:"engine"`
	Label   string         `json:"label,omitempty"`
	Config  Config         `json:"config"`
	Graph   string         `json:"graph,omitempty"`
	Nodes   []obs.NodeMeta `json:"nodes"`
}

type fireLine struct {
	Type  string  `json:"type"`
	ID    int32   `json:"id"`
	Node  int32   `json:"node"`
	Cycle int32   `json:"cycle"`
	Cost  int32   `json:"cost"`
	Port  int32   `json:"port,omitempty"`
	Tag   string  `json:"tag,omitempty"`
	Deps  []int32 `json:"deps,omitempty"`
}

type parkLine struct {
	Type  string `json:"type"`
	Node  int32  `json:"node"`
	Cycle int32  `json:"cycle"`
	Port  int32  `json:"port,omitempty"`
	Tag   string `json:"tag,omitempty"`
	Dep   int32  `json:"dep"`
}

type faultLine struct {
	Type string `json:"type"`
	obs.Fault
}

type abortLine struct {
	Type  string `json:"type"`
	Cycle int    `json:"cycle"`
	Check string `json:"check"`
}

type endLine struct {
	Type   string `json:"type"`
	Cycles int    `json:"cycles"`
}

// Write streams the journal as NDJSON. The graph text is rendered here,
// not when the run starts ("" for linked procedure graphs).
func (j *Journal) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	graph := j.graphText
	if graph == "" && j.graph != nil && len(j.graph.Calls) == 0 {
		graph = dfg.Text(j.graph)
	}
	if err := enc.Encode(headerLine{
		Type: "journal", Version: j.Version, Engine: j.Engine, Label: j.Label,
		Config: j.Config, Graph: graph, Nodes: j.Nodes,
	}); err != nil {
		return err
	}
	for i := range j.Fires {
		f := &j.Fires[i]
		if err := enc.Encode(fireLine{Type: "fire", ID: int32(i), Node: f.Node, Cycle: f.Cycle, Cost: f.Cost,
			Port: f.Port, Tag: j.Tags[f.Tag], Deps: j.Deps(int32(i))}); err != nil {
			return err
		}
	}
	for i := range j.Parks {
		p := &j.Parks[i]
		if err := enc.Encode(parkLine{Type: "park", Node: p.Node, Cycle: p.Cycle, Port: p.Port,
			Tag: j.Tags[p.Tag], Dep: p.Dep}); err != nil {
			return err
		}
	}
	for i := range j.Faults {
		if err := enc.Encode(faultLine{Type: "fault", Fault: j.Faults[i]}); err != nil {
			return err
		}
	}
	if j.AbortCheck != "" {
		if err := enc.Encode(abortLine{Type: "abort", Cycle: j.AbortCycle, Check: j.AbortCheck}); err != nil {
			return err
		}
	}
	if err := enc.Encode(endLine{Type: "end", Cycles: j.Cycles}); err != nil {
		return err
	}
	return bw.Flush()
}

// Read parses an NDJSON journal into the record form a run's collector
// keeps (tags interned in file order) and validates its internal
// consistency.
func Read(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	// A serialized graph rides in one header line; give it room.
	sc.Buffer(make([]byte, 64*1024), 1<<26)
	j := &Journal{}
	var kind struct {
		Type string `json:"type"`
	}
	tagIDs := map[string]int32{}
	intern := func(tag string) int32 {
		id, ok := tagIDs[tag]
		if !ok {
			id = int32(len(j.Tags))
			tagIDs[tag] = id
			j.Tags = append(j.Tags, tag)
		}
		return id
	}
	var f fireLine
	sawHeader, sawEnd := false, false
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", line, err)
		}
		if !sawHeader && kind.Type != "journal" {
			return nil, fmt.Errorf("journal: line %d: expected journal header, got %q", line, kind.Type)
		}
		switch kind.Type {
		case "journal":
			if sawHeader {
				return nil, fmt.Errorf("journal: line %d: duplicate header", line)
			}
			var h headerLine
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", line, err)
			}
			if h.Version != Version {
				return nil, fmt.Errorf("journal: unsupported format version %d (have %d)", h.Version, Version)
			}
			j.Version, j.Engine, j.Label = h.Version, h.Engine, h.Label
			j.Config, j.graphText, j.Nodes = h.Config, h.Graph, h.Nodes
			sawHeader = true
		case "fire":
			f = fireLine{Deps: f.Deps[:0]}
			if err := json.Unmarshal(raw, &f); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", line, err)
			}
			if err := j.checkFire(&f); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", line, err)
			}
			j.AddFire(f.Node, f.Cycle, f.Cost, f.Port, intern(f.Tag), f.Deps)
		case "park":
			var p parkLine
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", line, err)
			}
			j.Parks = append(j.Parks, obs.Park{Node: p.Node, Cycle: p.Cycle, Port: p.Port, Tag: intern(p.Tag), Dep: p.Dep})
		case "fault":
			var fl faultLine
			if err := json.Unmarshal(raw, &fl); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", line, err)
			}
			j.Faults = append(j.Faults, fl.Fault)
		case "abort":
			var a abortLine
			if err := json.Unmarshal(raw, &a); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", line, err)
			}
			j.AbortCycle, j.AbortCheck = a.Cycle, a.Check
		case "end":
			var e endLine
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("journal: line %d: %w", line, err)
			}
			j.Cycles = e.Cycles
			sawEnd = true
		default:
			return nil, fmt.Errorf("journal: line %d: unknown line type %q", line, kind.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("journal: empty input")
	}
	if !sawEnd {
		return nil, fmt.Errorf("journal: truncated (no end trailer)")
	}
	if err := j.checkIDs(); err != nil {
		return nil, err
	}
	return j, nil
}

// checkFire validates a fire line against the firings read before it:
// its id is the next one, its node exists, and it depends only on
// earlier firings.
func (j *Journal) checkFire(f *fireLine) error {
	id := int32(len(j.Fires))
	if f.ID != id {
		return fmt.Errorf("fire %d carries id %d", id, f.ID)
	}
	if f.Node < 0 || int(f.Node) >= len(j.Nodes) {
		return fmt.Errorf("fire %d names unknown node %d", id, f.Node)
	}
	for _, d := range f.Deps {
		if d < 0 || d >= id {
			return fmt.Errorf("fire %d depends on invalid firing %d", id, d)
		}
	}
	return nil
}

// WriteFile writes the journal to path, gzipped when path ends in ".gz".
func (j *Journal) WriteFile(path string) error {
	w, err := obs.CreateStream(path)
	if err != nil {
		return err
	}
	if err := j.Write(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// ReadFile loads a journal from path, decompressing gzip transparently
// (detected by content, not suffix).
func ReadFile(path string) (*Journal, error) {
	r, err := obs.OpenStream(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return Read(r)
}
