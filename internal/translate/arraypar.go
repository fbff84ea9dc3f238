package translate

import (
	"cmp"
	"slices"

	"ctdf/internal/cfg"
	"ctdf/internal/lang"
)

// ParallelStore describes one loop/array pair to which the §6.3
// transformation (Figure 14) applies: the stores of successive iterations
// are independent, so each iteration's store receives a replica of the
// array's access token (which passes to the next iteration immediately)
// while store completions accumulate on a separate completion line that
// downstream consumers synchronize with.
type ParallelStore struct {
	// Entry is the loop-entry CFG node of the loop.
	Entry int
	// Array is the array variable whose stores are parallelized.
	Array string
	// StoreStmt is the CFG assignment performing the store.
	StoreStmt int
	// IndexVar is the induction variable indexing the store.
	IndexVar string
	// Exits are the loop-exit CFG nodes where the completion line rejoins
	// the access line.
	Exits []int
}

// DoneToken names the completion token line of this transformation.
func (ps ParallelStore) DoneToken() string { return ps.Array + doneSuffix }

// FindParallelStores applies the "standard disambiguation" of §6.3 in its
// simplest classical form — stores indexed by a strict induction variable
// are independent across iterations. A loop/array pair (L, x) qualifies
// when:
//
//   - exactly one statement in L's body assigns to x, with index
//     expression exactly an induction variable v;
//   - no statement in L's body reads x;
//   - v is a scalar assigned exactly once in the body, as v := v + c or
//     v := v - c with constant c ≠ 0, and that update dominates every
//     back edge (so v strictly changes every iteration);
//   - neither x nor v has aliases;
//   - the loop has at least one exit (always true after loop insertion).
//
// The paper leaves the analysis open ("standard disambiguation techniques
// such as subscript analysis can be applied"); this implements the classic
// a[i], i := i+c case of its Figure 14 example.
func FindParallelStores(g *cfg.Graph, loops []cfg.Loop) []ParallelStore {
	aliased := map[string]bool{}
	for _, al := range g.Prog.Aliases {
		aliased[al.A] = true
		aliased[al.B] = true
	}
	dom := cfg.Dominators(g)

	var out []ParallelStore
	var reads []string
	for _, l := range loops {
		// Gather per-array store statements and read flags, and per-scalar
		// assignment statistics, over the loop body.
		arrayStores := map[string][]int{}
		arrayRead := map[string]bool{}
		scalarAssigns := map[string][]int{}
		for _, id := range sortedKeys(l.Body) {
			n := g.Nodes[id]
			reads = g.ReadSet(reads[:0], id)
			for _, v := range reads {
				if g.Prog.IsArray(v) {
					arrayRead[v] = true
				}
			}
			if n.Kind != cfg.KindAssign {
				continue
			}
			if n.TargetIndex != nil {
				arrayStores[n.Target] = append(arrayStores[n.Target], id)
			} else {
				scalarAssigns[n.Target] = append(scalarAssigns[n.Target], id)
			}
		}

		le := g.Nodes[l.Entry]
		for _, arr := range sortedKeys(arrayStores) {
			stores := arrayStores[arr]
			if len(stores) != 1 || arrayRead[arr] || aliased[arr] {
				continue
			}
			st := g.Nodes[stores[0]]
			iv, ok := st.TargetIndex.(*lang.VarRef)
			if !ok {
				continue
			}
			v := iv.Name
			if aliased[v] {
				continue
			}
			assigns := scalarAssigns[v]
			if len(assigns) != 1 {
				continue
			}
			if !isInductionUpdate(g.Nodes[assigns[0]], v) {
				continue
			}
			// The update must run every iteration: it dominates every back
			// edge source.
			everyIter := true
			for back := range le.BackPreds {
				if !dom.Dominates(assigns[0], back) {
					everyIter = false
					break
				}
			}
			if !everyIter {
				continue
			}
			out = append(out, ParallelStore{
				Entry:     l.Entry,
				Array:     arr,
				StoreStmt: stores[0],
				IndexVar:  v,
				Exits:     append([]int(nil), l.Exits...),
			})
		}
	}
	return out
}

// isInductionUpdate reports whether assignment node n is v := v + c or
// v := v - c for a nonzero constant c.
func isInductionUpdate(n *cfg.Node, v string) bool {
	if n.Target != v || n.TargetIndex != nil {
		return false
	}
	be, ok := n.RHS.(*lang.BinExpr)
	if !ok || (be.Op != lang.OpAdd && be.Op != lang.OpSub) {
		return false
	}
	vr, ok := be.L.(*lang.VarRef)
	if !ok || vr.Name != v {
		// Also accept c + v.
		if be.Op != lang.OpAdd {
			return false
		}
		c, okc := be.L.(*lang.IntLit)
		vr2, okv := be.R.(*lang.VarRef)
		return okc && okv && vr2.Name == v && c.Value != 0
	}
	c, ok := be.R.(*lang.IntLit)
	return ok && c.Value != 0
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
