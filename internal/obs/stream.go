package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// EventType classifies the lines of the NDJSON event stream.
type EventType string

// Stream line types. A stream is one "meta" line per node, the run's
// events in engine order, and a trailing "summary" line holding the full
// Report (see WriteEvents).
const (
	// EvFire is one operator firing.
	EvFire EventType = "fire"
	// EvWait is a token waiting in the matching store for its partner
	// operands.
	EvWait EventType = "wait"
	// EvFault is an injected fault (see internal/fault and
	// ROBUSTNESS.md); Detail carries the fault class.
	EvFault EventType = "fault"
	// EvAbort is a failed machine check ending the run; Detail carries
	// the check name (see internal/machcheck).
	EvAbort EventType = "abort"
	// EvMeta and EvSummary are the stream's non-event lines.
	EvMeta    EventType = "meta"
	EvSummary EventType = "summary"
)

// Event is one cycle-stamped occurrence inside an engine.
type Event struct {
	Cycle int       `json:"cycle"`
	Type  EventType `json:"type"`
	Node  int       `json:"node"`
	Kind  string    `json:"kind"`
	Tag   string    `json:"tag,omitempty"`
	// Cost is the firing's duration in cycles (fire events only): 1 for
	// ordinary operators, the split-phase latency for memory operations.
	Cost int `json:"cost,omitempty"`
	// Detail carries the fault class (fault events) or the failed check
	// name (abort events).
	Detail string `json:"detail,omitempty"`
}

// metaLine and summaryLine are the non-event NDJSON stream records.
type metaLine struct {
	Type EventType `json:"type"`
	NodeMeta
}

type summaryLine struct {
	Type   EventType `json:"type"`
	Report *Report   `json:"report"`
}

// WriteEvents writes one run's NDJSON event stream to w: one "meta" line
// per node, rec's events in engine order, and a trailing "summary" line
// holding rep. Engine order merges the parks and the firings by cycle, a
// cycle's parks (delivered at the boundary that opens it) ahead of its
// firings; each fault follows the firings and parks recorded before it,
// and the abort comes last. A nil rec (an engine without a record) writes
// the meta lines and the summary only. The stream goes through one
// buffer; the first write error is returned.
func WriteEvents(w io.Writer, meta []NodeMeta, rec *Record, rep *Report) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var err error
	put := func(v any) {
		if err == nil {
			err = enc.Encode(v)
		}
	}
	for _, m := range meta {
		put(metaLine{Type: EvMeta, NodeMeta: m})
	}
	if rec == nil {
		rec = &Record{}
	}
	for fi, pi, xi := 0, 0, 0; ; {
		for ; xi < len(rec.Faults) && rec.Faults[xi].fires <= fi && rec.Faults[xi].parks <= pi; xi++ {
			x := &rec.Faults[xi]
			kind := ""
			if x.Node >= 0 && x.Node < len(meta) {
				kind = meta[x.Node].Kind
			}
			put(Event{Cycle: x.Cycle, Type: EvFault, Node: x.Node, Kind: kind, Detail: x.Class})
		}
		if pi < len(rec.Parks) && (fi == len(rec.Fires) || rec.Parks[pi].Cycle <= rec.Fires[fi].Cycle) {
			p := &rec.Parks[pi]
			put(Event{Cycle: int(p.Cycle), Type: EvWait, Node: int(p.Node), Kind: meta[p.Node].Kind, Tag: rec.Tags[p.Tag]})
			pi++
		} else if fi < len(rec.Fires) {
			f := &rec.Fires[fi]
			put(Event{Cycle: int(f.Cycle), Type: EvFire, Node: int(f.Node), Kind: meta[f.Node].Kind, Tag: rec.Tags[f.Tag], Cost: int(f.Cost)})
			fi++
		} else {
			break
		}
	}
	if rec.AbortCheck != "" {
		put(Event{Cycle: rec.AbortCycle, Type: EvAbort, Node: -1, Detail: rec.AbortCheck})
	}
	put(summaryLine{Type: EvSummary, Report: rep})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// WriteTrace writes one line per firing of rec, in issue order, in the
// machine's historical execution trace format:
//
//	cycle 12: d5: binop + [tag 0.1]
//
// Labels are meta's (NodeMeta.Label); parks are not traced. The lines go
// through one buffer; the first write error is returned.
func WriteTrace(w io.Writer, meta []NodeMeta, rec *Record) error {
	bw := bufio.NewWriter(w)
	for i := range rec.Fires {
		f := &rec.Fires[i]
		fmt.Fprintf(bw, "cycle %d: %s [tag %s]\n", f.Cycle, meta[f.Node].Label, rec.Tags[f.Tag])
	}
	return bw.Flush()
}
