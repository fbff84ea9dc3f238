package analysis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ctdf/internal/cfg"
	"ctdf/internal/workloads"
)

// acyclicPrograms collects loop-free workloads and random programs.
func acyclicPrograms(t *testing.T) []*cfg.Graph {
	t.Helper()
	var out []*cfg.Graph
	add := func(src string) {
		g := buildCFG(t, src)
		if _, loops, err := cfg.InsertLoopControl(g); err == nil && len(loops) == 0 {
			out = append(out, g)
		}
	}
	for _, w := range workloads.All() {
		add(w.Source)
	}
	for seed := int64(700); seed < 720; seed++ {
		add(workloads.Random(seed, 4, 0).Source) // depth 0: no loops generated
	}
	return out
}

// The production source-vector computation and the literal Figure 11
// transliteration must name the same ultimate source for every token
// consumer once single-source joins are resolved away.
func TestSourceVectorsMatchLiteralFigure11(t *testing.T) {
	for _, g := range acyclicPrograms(t) {
		need := VarNeed(g)
		matchLiteral(t, g, need, PlaceSwitches(g, ComputeControlDeps(g), need))
	}
}

// TestSourceVectorsMatchLiteralOnPartialPlacements: the verifier computes
// source vectors under the switches an edited graph holds, which lie
// between the minimal placement and the unoptimized schemas' full one
// (a switch at every fork for every token). The two computations must
// agree on such placements too: the minimal one plus a seeded random
// subset of the rest of the full one.
func TestSourceVectorsMatchLiteralOnPartialPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	for _, g := range acyclicPrograms(t) {
		need := VarNeed(g)
		minimal := PlaceSwitches(g, ComputeControlDeps(g), need)
		universe := slices.Clone(g.Prog.AllNames())
		slices.Sort(universe)
		for round := 0; round < 3; round++ {
			p := &Placement{Universe: universe, Needs: make([][]int32, g.Len())}
			for id, nd := range g.Nodes {
				if nd.Kind != cfg.KindFork {
					continue
				}
				for _, tok := range g.Prog.AllNames() {
					if minimal.NeedsSwitch(id, tok) || rng.Intn(2) == 0 {
						k, _ := slices.BinarySearch(universe, tok)
						p.Needs[id] = append(p.Needs[id], int32(k))
					}
				}
				slices.Sort(p.Needs[id])
			}
			matchLiteral(t, g, need, p)
		}
	}
}

// matchLiteral compares the production and the literal source vectors of
// g under placement, after resolving single-source joins away.
func matchLiteral(t *testing.T, g *cfg.Graph, need NeedFunc, placement *Placement) {
	t.Helper()
	universe := g.Prog.AllNames()
	prod, err := ComputeSourceVectors(g, nil, universe, need, placement)
	if err != nil {
		t.Fatal(err)
	}
	lit, err := ComputeSourceVectorsLiteral(g, universe, need, placement)
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(at func(n int, tok string) []Source, in []Source, tok string) map[Source]bool {
		out := map[Source]bool{}
		for _, s := range in {
			out[resolveThroughJoins(g, at, s, tok)] = true
		}
		return out
	}
	litAt := func(n int, tok string) []Source { return lit[n][tok] }
	prodAt := func(n int, tok string) []Source {
		t, _ := slices.BinarySearch(prod.Universe, tok)
		return prod.Sources(n, int32(t))
	}
	for id := range g.Nodes {
		for _, tok := range universe {
			ps, ls := prodAt(id, tok), lit[id][tok]
			pr, lr := resolve(prodAt, ps, tok), resolve(litAt, ls, tok)
			if len(pr) != len(lr) {
				t.Errorf("node n%d tok %s: production %v vs literal %v", id, tok, ps, ls)
				continue
			}
			for s := range pr {
				if !lr[s] {
					t.Errorf("node n%d tok %s: production source %s missing from literal %v", id, tok, s, ls)
				}
			}
		}
	}
}

func TestLiteralRejectsLoops(t *testing.T) {
	g := buildCFG(t, workloads.RunningExample.Source)
	tg, _, err := cfg.InsertLoopControl(g)
	if err != nil {
		t.Fatal(err)
	}
	need := VarNeed(tg)
	cd := ComputeControlDeps(tg)
	placement := PlaceSwitches(tg, cd, need)
	if _, err := ComputeSourceVectorsLiteral(tg, tg.Prog.AllNames(), need, placement); err == nil {
		t.Error("literal reference must reject loop-control graphs")
	}
}

// ComputeSourceVectorsLiteral is a transliteration of Figure 11 as printed,
// kept as a cross-validation reference for ComputeSourceVectors:
//
//   - a join contributes ⟨N,true⟩ for every token present at it, even with
//     a single source (the paper resolves single-source joins to "no
//     operator" later, when the graph is wired: "A join with a single
//     source is equivalent to no operator");
//   - the production version (ComputeSourceVectors) instead forwards
//     single sources during propagation, so merges appear in its vectors
//     only where real merges will exist.
//
// resolveThroughJoins erases that representational difference; the
// cross-check in the tests asserts both algorithms name identical
// ultimate sources for every consumer. This reference supports plain
// variables on acyclic graphs (Figure 11 predates the loop-control
// generalization this repository adds).
func ComputeSourceVectorsLiteral(g *cfg.Graph, universe []string, need NeedFunc, placement *Placement) ([]map[string][]Source, error) {
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindLoopEntry || n.Kind == cfg.KindLoopExit {
			return nil, fmt.Errorf("analysis: the literal Figure 11 reference handles acyclic graphs only")
		}
	}
	n := g.Len()
	sv := make([]map[string]map[Source]bool, n)
	for i := 0; i < n; i++ {
		sv[i] = map[string]map[Source]bool{}
	}
	pdom := cfg.PostDominators(g)
	add := func(to int, tok string, srcs ...Source) {
		m := sv[to][tok]
		if m == nil {
			m = map[Source]bool{}
			sv[to][tok] = m
		}
		for _, s := range srcs {
			m[s] = true
		}
	}
	current := func(id int, tok string) []Source {
		m := sv[id][tok]
		out := make([]Source, 0, len(m))
		for s := range m {
			out = append(out, s)
		}
		slices.SortFunc(out, compareSources)
		return out
	}

	// Figure 11's worklist: process a node once all predecessors are
	// visited (acyclic, so plain topological order works).
	processed := make([]bool, n)
	for count := 0; count < n; count++ {
		pick := -1
		for id := range g.Nodes {
			if processed[id] {
				continue
			}
			ready := true
			for _, p := range g.Nodes[id].Preds {
				if !processed[p] {
					ready = false
					break
				}
			}
			if ready {
				pick = id
				break
			}
		}
		if pick == -1 {
			return nil, fmt.Errorf("analysis: cycle in supposedly acyclic graph")
		}
		processed[pick] = true
		nd := g.Nodes[pick]
		switch nd.Kind {
		case cfg.KindStart:
			for _, tok := range universe {
				add(nd.Succs[0], tok, Source{Node: int32(pick), Dir: true})
			}
		case cfg.KindEnd:
		case cfg.KindAssign:
			needSet := map[string]bool{}
			for _, tok := range need(pick) {
				needSet[tok] = true
			}
			for _, tok := range universe {
				if needSet[tok] {
					add(nd.Succs[0], tok, Source{Node: int32(pick), Dir: true})
				} else {
					add(nd.Succs[0], tok, current(pick, tok)...)
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
					add(nd.Succs[0], tok, Source{Node: int32(pick), Dir: true})
					add(nd.Succs[1], tok, Source{Node: int32(pick), Dir: false})
				case readSet[tok]:
					add(pdom.Idom[pick], tok, Source{Node: int32(pick), Dir: true, Read: true})
				default:
					add(pdom.Idom[pick], tok, current(pick, tok)...)
				}
			}
		case cfg.KindJoin:
			// The figure as printed: every token present becomes sourced
			// by the join itself.
			for _, tok := range universe {
				if len(current(pick, tok)) > 0 {
					add(nd.Succs[0], tok, Source{Node: int32(pick), Dir: true})
				}
			}
		}
	}

	out := make([]map[string][]Source, n)
	for i, m := range sv {
		out[i] = map[string][]Source{}
		for tok, set := range m {
			srcs := make([]Source, 0, len(set))
			for s := range set {
				srcs = append(srcs, s)
			}
			slices.SortFunc(srcs, compareSources)
			out[i][tok] = srcs
		}
	}
	return out, nil
}

// resolveThroughJoins maps a source to its ultimate producer by chasing
// single-source joins (the "equivalent to no operator" rule of §4.2)
// through the source vectors at reads.
func resolveThroughJoins(g *cfg.Graph, at func(n int, tok string) []Source, src Source, tok string) Source {
	for {
		n := g.Nodes[src.Node]
		if n.Kind != cfg.KindJoin {
			return src
		}
		srcs := at(int(src.Node), tok)
		if len(srcs) != 1 {
			return src
		}
		src = srcs[0]
	}
}
