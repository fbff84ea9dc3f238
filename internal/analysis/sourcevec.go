package analysis

import (
	"container/heap"
	"fmt"
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
	Node int
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

func sortSources(srcs []Source) {
	if len(srcs) < 2 {
		return
	}
	sort.Slice(srcs, func(i, j int) bool {
		if srcs[i].Node != srcs[j].Node {
			return srcs[i].Node < srcs[j].Node
		}
		if srcs[i].Read != srcs[j].Read {
			return srcs[j].Read
		}
		return srcs[i].Dir && !srcs[j].Dir
	})
}

// idHeap is a min-heap of CFG node ids.
type idHeap []int

func (h idHeap) Len() int           { return len(h) }
func (h idHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h idHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *idHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *idHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
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
	// SV[n][tok] is the source set of token tok at node n. For loop
	// entries this is the initial (entry-side) port.
	SV []map[string][]Source
	// Back[n][tok] holds, for loop-entry nodes, the back-edge (iteration)
	// port sources.
	Back []map[string][]Source
	// LoopNeed[n], for loop-entry and loop-exit nodes, is the token set
	// that must circulate through the loop (everything else bypasses it).
	LoopNeed map[int]map[string]bool
	// Universe is the full token name universe, sorted.
	Universe []string
}

// Sources returns the sorted source list of token tok at node n.
func (s *SourceVectors) Sources(n int, tok string) []Source { return s.SV[n][tok] }

// ComputeSourceVectors runs the worklist algorithm of Figure 11,
// generalized to abstract tokens and to the loop control statements of §3:
//
//   - start sources every token to its successor;
//   - a memory-operation node (assignment or fork predicate evaluation)
//     consumes and regenerates the tokens it needs, and passes all other
//     token sources through unchanged;
//   - a fork creates a switch for every token placed at it, and for every
//     other token propagates the sources non-locally to the fork's
//     immediate postdominator (the bypass of §4);
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
	sv := make([]map[string]map[Source]bool, n)
	svBack := make([]map[string]map[Source]bool, n)
	for i := 0; i < n; i++ {
		sv[i] = map[string]map[Source]bool{}
		svBack[i] = map[string]map[Source]bool{}
	}
	loopNeed := LoopNeeds(g, loops, need, placement)
	pdom := cfg.PostDominators(g)

	// Bypass target per loop entry: the first node on the entry's
	// postdominator chain that is outside the loop body and not one of its
	// exit statements.
	bypass := map[int]int{}
	for _, l := range loops {
		exitSet := map[int]bool{}
		for _, x := range l.Exits {
			exitSet[x] = true
		}
		t := pdom.Idom[l.Entry]
		for t != -1 && (l.Body[t] || exitSet[t]) {
			t = pdom.Idom[t]
		}
		if t == -1 {
			return nil, fmt.Errorf("analysis: loop at n%d has no postdominator outside its body", l.Entry)
		}
		bypass[l.Entry] = t
	}

	// contribute records srcs as sources of tok at node to; writes from a
	// back predecessor of a loop entry land on the entry's back port.
	contribute := func(to int, tok string, srcs []Source, fromNode int) {
		tgt := sv
		toNode := g.Nodes[to]
		if toNode.Kind == cfg.KindLoopEntry && fromNode >= 0 && toNode.BackPreds[fromNode] {
			tgt = svBack
		}
		m := tgt[to][tok]
		if m == nil {
			m = map[Source]bool{}
			tgt[to][tok] = m
		}
		for _, s := range srcs {
			m[s] = true
		}
	}
	// passThrough forwards the (at most one) source of tok at node id to
	// target to.
	current := func(id int, tok string) []Source {
		m := sv[id][tok]
		out := make([]Source, 0, len(m))
		for s := range m {
			out = append(out, s)
		}
		sortSources(out)
		return out
	}

	// Topological processing ignoring back edges, lowest ready id first: a
	// node enters the ready heap once every non-back predecessor has been
	// processed, which can only become true when one of them is.
	processed := make([]bool, n)
	ready := func(id int) bool {
		nd := g.Nodes[id]
		for _, p := range nd.Preds {
			if !processed[p] && !(nd.Kind == cfg.KindLoopEntry && nd.BackPreds[p]) {
				return false
			}
		}
		return true
	}
	var frontier idHeap
	queued := make([]bool, n)
	for id := 0; id < n; id++ {
		if ready(id) {
			queued[id] = true
			frontier = append(frontier, id) // ascending, so already a heap
		}
	}
	for count := 0; count < n; count++ {
		if len(frontier) == 0 {
			return nil, fmt.Errorf("analysis: no topological order (cycle not broken by loop entries)")
		}
		pick := heap.Pop(&frontier).(int)
		processed[pick] = true
		nd := g.Nodes[pick]
		self := []Source{{Node: pick, Dir: true}}

		switch nd.Kind {
		case cfg.KindStart:
			// Figure 11: every token flows from start to its (program
			// entry) successor; the conventional start→end edge carries
			// nothing.
			for _, tok := range universe {
				contribute(nd.Succs[0], tok, self, pick)
			}

		case cfg.KindEnd:
			// Terminal; the translation collects every token here.

		case cfg.KindAssign, cfg.KindCall:
			// A call statement is a memory operation on everything its
			// callee may touch: it consumes and regenerates the mapped
			// token set (separate-compilation mode).
			needSet := map[string]bool{}
			for _, tok := range need(pick) {
				needSet[tok] = true
			}
			for _, tok := range universe {
				if needSet[tok] {
					contribute(nd.Succs[0], tok, self, pick)
				} else if srcs := current(pick, tok); len(srcs) > 0 {
					contribute(nd.Succs[0], tok, srcs, pick)
				}
			}

		case cfg.KindFork:
			readSet := map[string]bool{}
			for _, tok := range need(pick) {
				readSet[tok] = true
			}
			for _, tok := range universe {
				switch {
				case placement.NeedsSwitch(pick, tok):
					contribute(nd.Succs[0], tok, []Source{{Node: pick, Dir: true}}, pick)
					contribute(nd.Succs[1], tok, []Source{{Node: pick, Dir: false}}, pick)
				case readSet[tok]:
					// The fork's read block consumed and regenerated the
					// token; it continues past the (unneeded) switch point
					// to the fork's immediate postdominator.
					contribute(pdom.Idom[pick], tok, []Source{{Node: pick, Dir: true, Read: true}}, -1)
				default:
					if srcs := current(pick, tok); len(srcs) > 0 {
						contribute(pdom.Idom[pick], tok, srcs, -1)
					}
				}
			}

		case cfg.KindJoin:
			for _, tok := range universe {
				srcs := current(pick, tok)
				switch {
				case len(srcs) == 0:
				case len(srcs) == 1:
					// Single source: no merge operator; forward the source.
					contribute(nd.Succs[0], tok, srcs, pick)
				default:
					// A dataflow merge is created here; it becomes the source.
					contribute(nd.Succs[0], tok, self, pick)
				}
			}

		case cfg.KindLoopEntry:
			for _, tok := range universe {
				if loopNeed[pick][tok] {
					contribute(nd.Succs[0], tok, self, pick)
				} else if srcs := current(pick, tok); len(srcs) > 0 {
					contribute(bypass[pick], tok, srcs, -1)
				}
			}

		case cfg.KindLoopExit:
			for _, tok := range universe {
				if loopNeed[pick][tok] {
					contribute(nd.Succs[0], tok, self, pick)
				} else if srcs := current(pick, tok); len(srcs) > 0 {
					// A token that bypassed the loop never reaches its
					// exits; this is defensive pass-through.
					contribute(nd.Succs[0], tok, srcs, pick)
				}
			}
		}
		for _, s := range nd.Succs {
			if !queued[s] && ready(s) {
				queued[s] = true
				heap.Push(&frontier, s)
			}
		}
	}

	out := &SourceVectors{
		SV:       make([]map[string][]Source, n),
		Back:     make([]map[string][]Source, n),
		LoopNeed: loopNeed,
		Universe: append([]string(nil), universe...),
	}
	sort.Strings(out.Universe)
	flatten := func(in []map[string]map[Source]bool, dst []map[string][]Source) {
		for i, m := range in {
			dst[i] = map[string][]Source{}
			for tok, set := range m {
				srcs := make([]Source, 0, len(set))
				for s := range set {
					srcs = append(srcs, s)
				}
				sortSources(srcs)
				dst[i][tok] = srcs
			}
		}
	}
	flatten(sv, out.SV)
	flatten(svBack, out.Back)
	if err := out.validate(g, need, placement); err != nil {
		return nil, err
	}
	return out, nil
}

// validate checks the structural invariants the graph builder relies on.
func (s *SourceVectors) validate(g *cfg.Graph, need NeedFunc, placement *Placement) error {
	for _, id := range g.SortedIDs() {
		nd := g.Nodes[id]
		// Multiple sources may appear only where merges are legal.
		if nd.Kind != cfg.KindJoin && nd.Kind != cfg.KindEnd && nd.Kind != cfg.KindLoopEntry {
			for tok, srcs := range s.SV[id] {
				if len(srcs) > 1 {
					return fmt.Errorf("analysis: %s has %d sources for %s at non-merge node", nd, len(srcs), tok)
				}
			}
		}
		switch nd.Kind {
		case cfg.KindAssign, cfg.KindCall:
			for _, tok := range need(id) {
				if len(s.SV[id][tok]) != 1 {
					return fmt.Errorf("analysis: %s needs token %s but has %d sources", nd, tok, len(s.SV[id][tok]))
				}
			}
		case cfg.KindFork:
			for _, tok := range need(id) {
				if len(s.SV[id][tok]) != 1 {
					return fmt.Errorf("analysis: %s reads token %s but has %d sources", nd, tok, len(s.SV[id][tok]))
				}
			}
			for tok := range placement.Needs[id] {
				if len(s.SV[id][tok]) != 1 {
					return fmt.Errorf("analysis: %s switches token %s but has %d sources", nd, tok, len(s.SV[id][tok]))
				}
			}
		case cfg.KindLoopEntry:
			for tok := range s.LoopNeed[id] {
				if len(s.SV[id][tok]) < 1 {
					return fmt.Errorf("analysis: loop entry %s has no initial source for %s", nd, tok)
				}
				if len(s.Back[id][tok]) < 1 {
					return fmt.Errorf("analysis: loop entry %s has no back-edge source for %s", nd, tok)
				}
			}
		case cfg.KindLoopExit:
			for tok := range s.LoopNeed[id] {
				if len(s.SV[id][tok]) != 1 {
					return fmt.Errorf("analysis: loop exit %s has %d sources for %s", nd, len(s.SV[id][tok]), tok)
				}
			}
		case cfg.KindEnd:
			for _, tok := range s.Universe {
				if len(s.SV[id][tok]) < 1 {
					return fmt.Errorf("analysis: token %s never reaches end", tok)
				}
			}
		}
	}
	return nil
}
