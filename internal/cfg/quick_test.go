package cfg

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"ctdf/internal/workloads"
)

// Property tests over random structured and unstructured programs.

func graphFromSeed(seed int64, unstructured bool) (*Graph, bool) {
	var w workloads.Workload
	if unstructured {
		w = workloads.RandomUnstructured(seed%1000, 3)
	} else {
		w = workloads.Random(seed%1000, 4, 2)
	}
	g, err := Build(w.Parse())
	if err != nil {
		return nil, false
	}
	return g, true
}

func TestQuickBuildProducesValidGraphs(t *testing.T) {
	f := func(seed int64, unstructured bool) bool {
		g, ok := graphFromSeed(seed, unstructured)
		if !ok {
			return false // generators must always produce buildable programs
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickDominatorAxioms(t *testing.T) {
	f := func(seed int64, unstructured bool) bool {
		g, ok := graphFromSeed(seed, unstructured)
		if !ok {
			return false
		}
		dom := Dominators(g)
		pdom := PostDominators(g)
		for n := range g.Nodes {
			// start dominates everything; end postdominates everything.
			if !dom.Dominates(g.Start, n) || !pdom.Dominates(g.End, n) {
				return false
			}
			// idom is a strict dominator (except the root).
			if n != g.Start {
				if id := dom.Idom[n]; id < 0 || !dom.StrictlyDominates(id, n) {
					return false
				}
			}
			if n != g.End {
				if ip := pdom.Idom[n]; ip < 0 || !pdom.StrictlyDominates(ip, n) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickLoopControlInvariants(t *testing.T) {
	f := func(seed int64, unstructured bool) bool {
		g, ok := graphFromSeed(seed, unstructured)
		if !ok {
			return false
		}
		out, loops, err := InsertLoopControl(g)
		if err != nil {
			return false // all generated programs are reducible
		}
		if out.Validate() != nil {
			return false
		}
		// Every back edge targets a loop entry; every loop entry has at
		// least one back pred and one initial pred.
		dom := Dominators(out)
		for _, n := range out.Nodes {
			for _, s := range n.Succs {
				if dom.Dominates(s, n.ID) && out.Nodes[s].Kind != KindLoopEntry {
					return false
				}
			}
			if n.Kind == KindLoopEntry {
				backs, inits := 0, 0
				for _, p := range n.Preds {
					if n.BackPreds[p] {
						backs++
					} else {
						inits++
					}
				}
				if backs == 0 || inits == 0 {
					return false
				}
			}
		}
		// Loop bodies are disjoint or nested.
		for i := range loops {
			for j := range loops {
				if i == j {
					continue
				}
				var inter, ai, bi int
				for n := range loops[i].Body {
					if loops[j].Body[n] {
						inter++
					}
				}
				if inter == 0 {
					continue
				}
				for n := range loops[i].Body {
					if loops[j].Body[n] {
						ai++
					}
				}
				for n := range loops[j].Body {
					if loops[i].Body[n] {
						bi++
					}
				}
				if ai != len(loops[i].Body) && bi != len(loops[j].Body) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickRPOIsTopologicalIgnoringBackEdges(t *testing.T) {
	f := func(seed int64) bool {
		g, ok := graphFromSeed(seed, true)
		if !ok {
			return false
		}
		out, _, err := InsertLoopControl(g)
		if err != nil {
			return false
		}
		pos := map[int]int{}
		for i, id := range out.RPO() {
			pos[id] = i
		}
		for _, n := range out.Nodes {
			for _, s := range n.Succs {
				// Forward edges respect RPO; back edges (into loop
				// entries) are exempt.
				if out.Nodes[s].Kind == KindLoopEntry && out.Nodes[s].BackPreds[n.ID] {
					continue
				}
				if pos[s] <= pos[n.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// loopContextBalanced walks g from start carrying the stack of loops the
// control is inside (§3's iteration contexts, as loop headers): a loop
// entry reached from outside pushes its header, a back edge must find its
// own header on top, a loop exit pops its own header. Every node must be
// reached with one stack, and end with an empty one; a token that reaches
// end inside a loop context aborts both engines.
func loopContextBalanced(g *Graph) error {
	stacks := make([][]int, g.Len())
	seen := make([]bool, g.Len())
	seen[g.Start] = true
	work := []int{g.Start}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Nodes[n].Succs {
			st, sn := stacks[n], g.Nodes[s]
			top := -1
			if len(st) > 0 {
				top = st[len(st)-1]
			}
			switch {
			case sn.Kind == KindLoopEntry && sn.BackPreds[n]:
				if top != sn.LoopHeader {
					return fmt.Errorf("back edge n%d→n%d with loops %v open", n, s, st)
				}
			case sn.Kind == KindLoopEntry:
				st = append(slices.Clip(st), sn.LoopHeader)
			case sn.Kind == KindLoopExit:
				if top != sn.LoopHeader {
					return fmt.Errorf("n%d leaves loop n%d with loops %v open", s, sn.LoopHeader, st)
				}
				st = st[:len(st)-1]
			}
			if !seen[s] {
				seen[s], stacks[s] = true, st
				work = append(work, s)
			} else if !slices.Equal(stacks[s], st) {
				return fmt.Errorf("n%d reached inside loops %v and %v", s, stacks[s], st)
			}
		}
	}
	if st := stacks[g.End]; len(st) != 0 {
		return fmt.Errorf("end reached inside loops %v", st)
	}
	return nil
}

// TestQuickLoopContextBalanced holds every loop-controlled graph the
// translator sees — the suite, the multi-level-exit fixture and every
// generator — to balanced loop contexts.
func TestQuickLoopContextBalanced(t *testing.T) {
	check := func(w workloads.Workload) {
		t.Helper()
		g0, err := Build(w.Parse())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		g1, _, err := MakeReducible(g0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		g, _, err := InsertLoopControl(g1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := loopContextBalanced(g); err != nil {
			t.Errorf("%s: %v\n%s", w.Name, err, g)
		}
	}
	for _, w := range append(workloads.All(), workloads.TwoLevelExit, workloads.KEntry(5)) {
		check(w)
	}
	f := func(seed int64) bool {
		seed %= 1000
		for _, w := range []workloads.Workload{
			workloads.Random(seed, 4, 2),
			workloads.RandomAliased(seed, 4, 2),
			workloads.RandomUnstructured(seed, 3),
			workloads.RandomMultiLatch(seed, 2),
			workloads.RandomProcs(seed, 2),
			workloads.RandomIrreducible(seed, 2),
			workloads.RandomMultiExit(seed, 2),
		} {
			check(w)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
