package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteChromeTrace exports the journal as Chrome Trace Event JSON,
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing. One
// simulated cycle maps to one microsecond of trace time.
//
// Layout: a single process, one thread lane per issue slot — a firing
// issued as the k-th operation of its cycle renders on lane k, so the
// lane count at any instant IS the machine's instantaneous parallelism
// and the processor bound is directly visible as a lane ceiling.
// Firings are "X" (complete) events carrying tag, firing id, and
// producer ids in args; each loop-iteration tag additionally gets an
// async "b"/"e" span covering its firings, so iterations overlap
// visibly in the tag track exactly when tagged-token matching lets them
// overlap in the machine (paper §4).
func (j *Journal) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = bw.Write(raw)
		return err
	}

	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		ID   string         `json:"id,omitempty"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}

	if err := emit(ev{Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "ctdf machine (" + j.Label + ")"}}); err != nil {
		return err
	}

	// Lane assignment and per-tag span extents in one pass (fires are in
	// cycle order).
	type span struct{ start, end int64 }
	spans := make([]*span, len(j.Tags))
	var tagOrder []int32
	lanes := 0
	lane, laneCycle := 0, int32(-1)
	for i := range j.Fires {
		f := &j.Fires[i]
		if f.Cycle != laneCycle {
			lane, laneCycle = 0, f.Cycle
		} else {
			lane++
		}
		if lane+1 > lanes {
			lanes = lane + 1
		}
		args := map[string]any{"tag": j.tagName(f.Tag), "firing": i}
		if deps := j.Deps(int32(i)); len(deps) > 0 {
			args["deps"] = deps
		}
		if err := emit(ev{
			Name: j.label(f.Node), Cat: j.kind(f.Node), Ph: "X",
			Ts: int64(f.Cycle), Dur: int64(f.Cost), Pid: 0, Tid: lane, Args: args,
		}); err != nil {
			return err
		}
		s := spans[f.Tag]
		if s == nil {
			spans[f.Tag] = &span{start: int64(f.Cycle), end: int64(f.Cycle + f.Cost)}
			tagOrder = append(tagOrder, f.Tag)
		} else if e := int64(f.Cycle + f.Cost); e > s.end {
			s.end = e
		}
	}
	for l := 0; l < lanes; l++ {
		if err := emit(ev{Name: "thread_name", Ph: "M", Pid: 0, Tid: l,
			Args: map[string]any{"name": fmt.Sprintf("issue slot %d", l)}}); err != nil {
			return err
		}
	}
	// Async spans: one per tag, first-seen order, ids stable across runs.
	for n, tag := range tagOrder {
		s := spans[tag]
		id := fmt.Sprintf("tag-%d", n)
		name := "tag " + j.tagName(tag)
		if err := emit(ev{Name: name, Cat: "tag", Ph: "b", Ts: s.start, Pid: 0, Tid: 0, ID: id}); err != nil {
			return err
		}
		if err := emit(ev{Name: name, Cat: "tag", Ph: "e", Ts: s.end, Pid: 0, Tid: 0, ID: id}); err != nil {
			return err
		}
	}
	// Instant events for parks and faults, on the lane-0 track.
	for i := range j.Parks {
		p := &j.Parks[i]
		if err := emit(ev{Name: "park " + j.label(p.Node), Cat: "match", Ph: "i",
			Ts: int64(p.Cycle), Pid: 0, Tid: 0, S: "t",
			Args: map[string]any{"tag": j.tagName(p.Tag), "port": p.Port}}); err != nil {
			return err
		}
	}
	for i := range j.Faults {
		f := &j.Faults[i]
		if err := emit(ev{Name: "fault " + f.Class, Cat: "fault", Ph: "i",
			Ts: int64(f.Cycle), Pid: 0, Tid: 0, S: "g"}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// kind returns node's operator kind for event categorization.
func (j *Journal) kind(node int32) string {
	if int(node) < len(j.Nodes) {
		return j.Nodes[node].Kind
	}
	return "unknown"
}
