package translate

import (
	"sort"

	"ctdf/internal/cfg"
	"ctdf/internal/lang"
)

// FindIStructures applies the final enhancement of §6.3: "detect when an
// array is 'write-once'. If the dataflow machine has I-structure memory,
// array reads and writes can be done concurrently, since I-structure
// memory takes care of delaying premature read requests until the
// corresponding writes have occurred."
//
// An array qualifies when every execution writes each of its cells at most
// once and reads only follow writes in the sequential order (so I-structure
// execution computes the sequential answer, just more concurrently):
//
//   - the array has no aliases;
//   - exactly one statement stores to it, indexed by a strict induction
//     variable (the FindParallelStores criterion), so dynamic stores hit
//     distinct cells;
//   - every read of the array lies outside the storing loop and is
//     dominated by one of the loop's exits (all writes sequentially precede
//     every read).
//
// Reading a cell no store ever fills is an execution error under
// I-structure semantics (the deferred read is never satisfied), exactly as
// in I-structure machines; the engines report it.
func FindIStructures(g *cfg.Graph, loops []cfg.Loop) []string {
	pstores := FindParallelStores(g, loops)
	byArray := map[string][]ParallelStore{}
	for _, ps := range pstores {
		byArray[ps.Array] = append(byArray[ps.Array], ps)
	}
	// Count all stores per array to reject arrays with extra stores
	// outside the qualifying one.
	storeCount := map[string]int{}
	reads := map[string][]int{} // array -> reading statement IDs
	var nodeReads []string
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindAssign && n.TargetIndex != nil {
			storeCount[n.Target]++
		}
		nodeReads = g.ReadSet(nodeReads[:0], n.ID)
		for _, v := range nodeReads {
			if g.Prog.IsArray(v) {
				reads[v] = append(reads[v], n.ID)
			}
		}
	}
	dom := cfg.Dominators(g)

	var out []string
	arrays := make([]string, 0, len(byArray))
	for a := range byArray {
		arrays = append(arrays, a)
	}
	sort.Strings(arrays)
nextArray:
	for _, a := range arrays {
		pss := byArray[a]
		if len(pss) != 1 || storeCount[a] != 1 {
			continue
		}
		ps := pss[0]
		entryLoop := loopOf(loops, ps.Entry)
		if entryLoop == nil {
			continue
		}
		// Step must be ±1 so successive iterations fill a contiguous range
		// (larger strides leave unwritten holes a subsequent sweep-read
		// would block on).
		if !unitStepInduction(findInductionUpdate(g, entryLoop, ps.IndexVar)) {
			continue
		}
		for _, r := range reads[a] {
			// Reads must sit outside the loop's body, beyond an exit.
			if entryLoop.Body[r] {
				continue nextArray
			}
			dominated := false
			for _, x := range entryLoop.Exits {
				if dom.Dominates(x, r) {
					dominated = true
					break
				}
			}
			if !dominated {
				continue nextArray
			}
		}
		out = append(out, a)
	}
	return out
}

func loopOf(loops []cfg.Loop, entry int) *cfg.Loop {
	for i := range loops {
		if loops[i].Entry == entry {
			return &loops[i]
		}
	}
	return nil
}

// findInductionUpdate locates the unique in-body induction update of v.
func findInductionUpdate(g *cfg.Graph, l *cfg.Loop, v string) *cfg.Node {
	for id := range l.Body {
		n := g.Nodes[id]
		if n.Kind == cfg.KindAssign && n.Target == v && n.TargetIndex == nil && isInductionUpdate(n, v) {
			return n
		}
	}
	return nil
}

func unitStepInduction(n *cfg.Node) bool {
	if n == nil {
		return false
	}
	be, ok := n.RHS.(*lang.BinExpr)
	if !ok {
		return false
	}
	if c, ok := be.R.(*lang.IntLit); ok && (c.Value == 1 || c.Value == -1) {
		return true
	}
	if c, ok := be.L.(*lang.IntLit); ok && c.Value == 1 && be.Op == lang.OpAdd {
		return true
	}
	return false
}
