package journal

import (
	"fmt"
	"sort"
	"strings"

	"ctdf/internal/obs"
)

// State is the machine state at one cycle, reconstructed purely from
// the journal — no re-execution needed. It is the time-travel view
// behind `ctdf replay -at`.
type State struct {
	Cycle int
	// Issued holds the firings occupying functional units at the cycle
	// (issued, not yet finished).
	Issued []int32
	// Tokens holds the live dependence edges: values produced by a
	// finished firing but not yet consumed. A deferred I-structure read
	// contributes two edges (read and satisfying store) for its one
	// response token.
	Tokens []LiveToken
	// Parked holds the matching-store contents: operands parked waiting
	// for their partners. Activations that never complete (deadlock)
	// stay parked through every later cycle, which is exactly what makes
	// this view useful for deadlock forensics.
	Parked []ParkedToken
}

// LiveToken is one in-flight dependence edge.
type LiveToken struct {
	// Producer is the firing that produced the value.
	Producer int32
	// Consumer is the firing that will consume it (journals are complete
	// runs, so the consumer is always known).
	Consumer int32
}

// ParkedToken is one matching-store resident.
type ParkedToken struct {
	obs.Park
	// Claimed is the cycle the parked operand's activation finally fired,
	// or -1 if it never did (deadlocked or aborted run).
	Claimed int32
}

// StateAt reconstructs the state at cycle c. Leaked tokens (produced but
// never consumed — flagged separately by machcheck token-leak) have no
// dependence edge in the journal and do not appear.
func (j *Journal) StateAt(c int) (*State, error) {
	if err := j.checkIDs(); err != nil {
		return nil, err
	}
	st := &State{Cycle: c}
	cy := int32(c)
	for i := range j.Fires {
		f := &j.Fires[i]
		if f.Cycle <= cy && cy < f.Cycle+f.Cost {
			st.Issued = append(st.Issued, int32(i))
		}
		for _, d := range j.Deps(int32(i)) {
			p := &j.Fires[d]
			if p.Cycle+p.Cost <= cy && cy < f.Cycle {
				st.Tokens = append(st.Tokens, LiveToken{Producer: d, Consumer: int32(i)})
			}
		}
	}
	// A park is claimed by the first firing of its (node, tag) activation
	// at or after the park cycle; fires are already in cycle order.
	type actKey struct{ node, tag int32 }
	cycles := map[actKey][]int32{}
	for i := range j.Fires {
		k := actKey{j.Fires[i].Node, j.Fires[i].Tag}
		cycles[k] = append(cycles[k], j.Fires[i].Cycle)
	}
	for i := range j.Parks {
		p := &j.Parks[i]
		if p.Cycle > cy {
			continue
		}
		claimed := int32(-1)
		for _, fc := range cycles[actKey{p.Node, p.Tag}] {
			if fc >= p.Cycle {
				claimed = fc
				break
			}
		}
		if claimed < 0 || claimed > cy {
			st.Parked = append(st.Parked, ParkedToken{Park: *p, Claimed: claimed})
		}
	}
	sort.Slice(st.Tokens, func(a, b int) bool {
		if st.Tokens[a].Consumer != st.Tokens[b].Consumer {
			return st.Tokens[a].Consumer < st.Tokens[b].Consumer
		}
		return st.Tokens[a].Producer < st.Tokens[b].Producer
	})
	return st, nil
}

// Text renders the state dump for terminal output.
func (s *State) Text(j *Journal) string {
	var b strings.Builder
	fmt.Fprintf(&b, "state at cycle %d: %d issued, %d live tokens, %d parked\n",
		s.Cycle, len(s.Issued), len(s.Tokens), len(s.Parked))
	if len(s.Issued) > 0 {
		b.WriteString("  in functional units:\n")
		for _, id := range s.Issued {
			f := &j.Fires[id]
			fmt.Fprintf(&b, "    #%-5d %-26s [tag %s] issued @%d, done @%d\n",
				id, j.label(f.Node), j.tagName(f.Tag), f.Cycle, f.Cycle+f.Cost)
		}
	}
	if len(s.Tokens) > 0 {
		b.WriteString("  live tokens (producer -> consumer):\n")
		for _, t := range s.Tokens {
			p, c := &j.Fires[t.Producer], &j.Fires[t.Consumer]
			fmt.Fprintf(&b, "    #%-5d %-26s -> #%d %s [tag %s] (consumed @%d)\n",
				t.Producer, j.label(p.Node), t.Consumer, j.label(c.Node), j.tagName(c.Tag), c.Cycle)
		}
	}
	if len(s.Parked) > 0 {
		b.WriteString("  matching store:\n")
		for _, p := range s.Parked {
			claim := "never claimed"
			if p.Claimed >= 0 {
				claim = fmt.Sprintf("claimed @%d", p.Claimed)
			}
			fmt.Fprintf(&b, "    %-26s port %d [tag %s] parked @%d, %s\n",
				j.label(p.Node), p.Port, j.tagName(p.Tag), p.Cycle, claim)
		}
	}
	return b.String()
}
