package analysis

import (
	"fmt"
	"slices"
	"sort"

	"ctdf/internal/cfg"
)

// Source identifies where an access token comes from: a dataflow-producing
// CFG node and the out-direction along which the token leaves it (paper
// §4.2: "If the source node has only a single out-direction then we simply
// use true as the out-direction"). Read distinguishes the post-read tap of
// a fork: a fork is also a memory operation (it loads its predicate
// variables), and a token it reads but does not switch leaves the fork's
// read block before any switch, independent of the branch taken.
type Source struct {
	Node int32 // 32 bits: the vectors keep one per (CFG node, token)
	Dir  bool
	Read bool
}

func (s Source) String() string {
	d := "t"
	if !s.Dir {
		d = "f"
	}
	if s.Read {
		d = "r"
	}
	return fmt.Sprintf("⟨n%d,%s⟩", s.Node, d)
}

// compareSources orders sources by node, then taps before post-read
// taps, then the true out-direction before the false one.
func compareSources(a, b Source) int {
	switch {
	case a.Node != b.Node:
		return int(a.Node - b.Node)
	case a.Read != b.Read:
		if b.Read {
			return -1
		}
		return 1
	case a.Dir != b.Dir:
		if a.Dir {
			return -1
		}
		return 1
	}
	return 0
}

// SourceVectors is the result of the Figure 11 computation: for every node
// N and token, the sources access tokens arrive from. Deviating slightly
// from the figure for convenience, a join with a single source is resolved
// at propagation time (the paper resolves it when building the graph: "A
// join with a single source is equivalent to no operator"), so an entry
// with more than one source appears only at joins, at end, and at
// loop-entry ports — exactly the places where dataflow merges may be
// created.
type SourceVectors struct {
	// LoopNeed[n], for loop-entry and loop-exit nodes, is the token set
	// that must circulate through the loop (everything else bypasses it).
	LoopNeed map[int]map[string]bool
	// Universe is the full token name universe, sorted.
	Universe []string
	// Order is the topological order (cfg.Graph.TopoOrder) the vectors
	// were propagated in; the graph builder emits nodes in the same order.
	Order []int

	toks *tokenIDs // Universe first, so a token's id is its Universe index
	// cells holds one source list per (row, token): a row per CFG node —
	// for loop entries the initial (entry-side) port — then one per loop
	// entry for its back-edge (iteration) port, found through backRow. A
	// list is almost always one source and is kept in the cell itself;
	// Node is noSource for an empty list and manySources for one kept,
	// sorted, in many under the cell's index.
	cells   []Source
	many    map[int][]Source
	backRow map[int]int
}

const (
	noSource    = -1
	manySources = -2
)

// Sources returns the sorted source list of token tok at node n; for a
// loop entry, those of the initial port.
func (s *SourceVectors) Sources(n int, tok string) []Source { return s.at(n, tok) }

// BackSources returns the sorted sources of token tok at the back-edge
// port of loop entry n.
func (s *SourceVectors) BackSources(n int, tok string) []Source {
	if row, ok := s.backRow[n]; ok {
		return s.at(row, tok)
	}
	return nil
}

// TokenID returns tok's position in Universe, the id the analyses
// interned it under, or -1 for a token outside the universe.
func (s *SourceVectors) TokenID(tok string) int {
	if t, ok := s.toks.id[tok]; ok && int(t) < len(s.Universe) {
		return int(t)
	}
	return -1
}

func (s *SourceVectors) at(row int, tok string) []Source {
	t := s.TokenID(tok)
	if t < 0 {
		return nil
	}
	return s.list(row*len(s.Universe) + t)
}

func (s *SourceVectors) list(cell int) []Source {
	switch s.cells[cell].Node {
	case noSource:
		return nil
	case manySources:
		return s.many[cell]
	}
	return s.cells[cell : cell+1 : cell+1]
}

// add puts src on the list of cell.
func (s *SourceVectors) add(cell int, src Source) {
	c := &s.cells[cell]
	switch {
	case c.Node == noSource:
		*c = src
	case c.Node != manySources:
		if *c == src {
			return
		}
		s.many[cell] = []Source{*c}
		c.Node = manySources
		fallthrough
	default:
		list := s.many[cell]
		if i, found := slices.BinarySearchFunc(list, src, compareSources); !found {
			s.many[cell] = slices.Insert(list, i, src)
		}
	}
}

// ComputeSourceVectors runs the worklist algorithm of Figure 11,
// generalized to abstract tokens and to the loop control statements of §3:
//
//   - start sources every token to its successor;
//   - a memory-operation node (assignment or fork predicate evaluation)
//     consumes and regenerates the tokens it needs, and passes all other
//     token sources through unchanged;
//   - a fork creates a switch for every token placed at it, and for every
//     other token propagates the sources non-locally to the fork's
//     immediate postdominator (the bypass of §4) — to its back-edge port
//     when that is the entry of a loop holding the fork;
//   - a join merges: with two or more sources it becomes a dataflow merge
//     (and thus a new source); with one source it is no operator;
//   - a loop entry consumes and regenerates every token the loop needs
//     (giving iterations fresh tags) and bypasses all others to the first
//     postdominator outside the loop;
//   - a loop exit consumes and regenerates the loop's tokens.
//
// Nodes are processed in topological order ignoring loop back edges, so
// every source vector is complete before its node is processed; back-edge
// contributions to loop-entry ports are recorded for wiring but never
// influence propagation (a loop entry regenerates its tokens).
func ComputeSourceVectors(g *cfg.Graph, loops []cfg.Loop, universe []string, need NeedFunc, placement *Placement) (*SourceVectors, error) {
	n := g.Len()
	out := &SourceVectors{
		Universe: append([]string(nil), universe...),
		many:     map[int][]Source{},
		backRow:  map[int]int{},
	}
	sort.Strings(out.Universe)
	out.toks = newTokenIDs(out.Universe)
	v := len(out.Universe)
	// regen[id] is what node id consumes and regenerates: the tokens an
	// assignment, call or fork needs, the tokens a loop's control
	// statements circulate.
	regen, switched := tokenRows(g, out.toks, need, placement)
	var loopRows bitRows
	out.LoopNeed, loopRows = loopNeeds(loops, out.toks, regen, switched)
	pdom := cfg.PostDominators(g)

	// Bypass target per loop entry: the first node on the entry's
	// postdominator chain that is outside the loop body and not one of its
	// exit statements.
	bypass := map[int]int{}
	for i, l := range loops {
		t := pdom.Idom[l.Entry]
		for t != -1 && (l.Body[t] || isExit(l, t)) {
			t = pdom.Idom[t]
		}
		if t == -1 {
			return nil, fmt.Errorf("analysis: loop at n%d has no postdominator outside its body", l.Entry)
		}
		bypass[l.Entry] = t
		copy(regen.row(l.Entry), loopRows.row(i))
		for _, x := range l.Exits {
			copy(regen.row(x), loopRows.row(i))
		}
	}
	for id, nd := range g.Nodes {
		if nd.Kind == cfg.KindLoopEntry {
			out.backRow[id] = n + len(out.backRow)
		}
	}
	out.cells = make([]Source, (n+len(out.backRow))*v)
	for i := range out.cells {
		out.cells[i].Node = noSource
	}

	var ok bool
	if out.Order, ok = g.TopoOrder(); !ok {
		return nil, fmt.Errorf("analysis: no topological order (cycle not broken by loop entries)")
	}
	// port returns the first cell of the row that tokens sent from node
	// from arrive on at node to: the back port of a loop entry when from
	// is one of its back predecessors. Tokens sent around intervening
	// nodes (from < 0) always arrive on the initial port.
	port := func(to, from int) int {
		if from >= 0 && g.Nodes[to].BackPreds[from] {
			return out.backRow[to] * v
		}
		return to * v
	}
	forward := func(from, to int) {
		for _, src := range out.list(from) {
			out.add(to, src)
		}
	}
	for _, pick := range out.Order {
		nd := g.Nodes[pick]
		self := Source{Node: int32(pick), Dir: true}
		here := pick * v
		takes := regen.row(pick)

		switch nd.Kind {
		case cfg.KindStart:
			// Figure 11: every token flows from start to its (program
			// entry) successor; the conventional start→end edge carries
			// nothing.
			next := port(nd.Succs[0], pick)
			for t := 0; t < v; t++ {
				out.add(next+t, self)
			}

		case cfg.KindEnd:
			// Terminal; the translation collects every token here.

		case cfg.KindAssign, cfg.KindCall, cfg.KindLoopExit:
			// A call statement is a memory operation on everything its
			// callee may touch: it consumes and regenerates the mapped
			// token set (separate-compilation mode). A token that bypassed
			// a loop never reaches its exits; passing it through there is
			// defensive.
			next := port(nd.Succs[0], pick)
			for t := 0; t < v; t++ {
				if has(takes, t) {
					out.add(next+t, self)
				} else {
					forward(here+t, next+t)
				}
			}

		case cfg.KindFork:
			sw := switched.row(pick)
			onT, onF, past := port(nd.Succs[0], pick), port(nd.Succs[1], pick), port(pdom.Idom[pick], -1)
			if ip := pdom.Idom[pick]; ip >= 0 && g.Nodes[ip].Kind == cfg.KindLoopEntry {
				for _, l := range loops {
					if l.Entry == ip && l.Body[pick] {
						// The fork's arms part the loop's back-edges: what it
						// does not switch reaches the entry on the next
						// iteration.
						past = out.backRow[ip] * v
					}
				}
			}
			for t := 0; t < v; t++ {
				switch {
				case has(sw, t):
					out.add(onT+t, Source{Node: int32(pick), Dir: true})
					out.add(onF+t, Source{Node: int32(pick), Dir: false})
				case has(takes, t):
					// The fork's read block consumed and regenerated the
					// token; it continues past the (unneeded) switch point
					// to the fork's immediate postdominator.
					out.add(past+t, Source{Node: int32(pick), Dir: true, Read: true})
				default:
					forward(here+t, past+t)
				}
			}

		case cfg.KindJoin:
			next := port(nd.Succs[0], pick)
			for t := 0; t < v; t++ {
				if out.cells[here+t].Node == manySources {
					// A dataflow merge is created here; it becomes the source.
					out.add(next+t, self)
				} else {
					// Single source: no merge operator; forward the source.
					forward(here+t, next+t)
				}
			}

		case cfg.KindLoopEntry:
			next, around := port(nd.Succs[0], pick), port(bypass[pick], -1)
			for t := 0; t < v; t++ {
				if has(takes, t) {
					out.add(next+t, self)
				} else {
					forward(here+t, around+t)
				}
			}
		}
	}
	if err := out.validate(g, regen, switched); err != nil {
		return nil, err
	}
	return out, nil
}

func isExit(l cfg.Loop, id int) bool {
	for _, x := range l.Exits {
		if x == id {
			return true
		}
	}
	return false
}

// validate checks the structural invariants the graph builder relies on;
// needs holds the need rows of assignments, calls and forks.
func (s *SourceVectors) validate(g *cfg.Graph, needs, switched bitRows) error {
	v := len(s.Universe)
	// single checks that every token of row has exactly one source at nd.
	// A token outside the universe has none: nothing carries it.
	single := func(nd *cfg.Node, row []uint64, does string) error {
		for t, tok := range s.toks.names {
			if !has(row, t) {
				continue
			}
			if c := len(s.Sources(nd.ID, tok)); c != 1 {
				return fmt.Errorf("analysis: %s %s token %s but has %d sources", nd, does, tok, c)
			}
		}
		return nil
	}
	for id, nd := range g.Nodes {
		// Multiple sources may appear only where merges are legal.
		if nd.Kind != cfg.KindJoin && nd.Kind != cfg.KindEnd && nd.Kind != cfg.KindLoopEntry {
			for t, tok := range s.Universe {
				if s.cells[id*v+t].Node == manySources {
					return fmt.Errorf("analysis: %s has %d sources for %s at non-merge node", nd, len(s.many[id*v+t]), tok)
				}
			}
		}
		switch nd.Kind {
		case cfg.KindAssign, cfg.KindCall:
			if err := single(nd, needs.row(id), "needs"); err != nil {
				return err
			}
		case cfg.KindFork:
			if err := single(nd, needs.row(id), "reads"); err != nil {
				return err
			}
			if err := single(nd, switched.row(id), "switches"); err != nil {
				return err
			}
		case cfg.KindLoopEntry:
			for tok := range s.LoopNeed[id] {
				if len(s.Sources(id, tok)) < 1 {
					return fmt.Errorf("analysis: loop entry %s has no initial source for %s", nd, tok)
				}
				if len(s.BackSources(id, tok)) < 1 {
					return fmt.Errorf("analysis: loop entry %s has no back-edge source for %s", nd, tok)
				}
			}
		case cfg.KindLoopExit:
			for tok := range s.LoopNeed[id] {
				if c := len(s.Sources(id, tok)); c != 1 {
					return fmt.Errorf("analysis: loop exit %s has %d sources for %s", nd, c, tok)
				}
			}
		case cfg.KindEnd:
			for t, tok := range s.Universe {
				if s.cells[id*v+t].Node == noSource {
					return fmt.Errorf("analysis: token %s never reaches end", tok)
				}
			}
		}
	}
	return nil
}
