// Package analysis implements the program analyses the translation schemas
// depend on: control dependence and its iterated closure (paper §4.1,
// Definitions 4–5, Theorem 1), switch placement (Figure 10), source
// vectors (Figure 11), and alias structures with covers and access sets
// (§5, Definitions 6–7).
//
// Map to the paper:
//
//   - controldep.go — CD (Definition 4) over the postdominator tree, and
//     iterated control dependence CD+ (Definition 5); Theorem 1 equates
//     CD+(N) with the forks F such that N lies between F and ipdom(F),
//     which is what TestSwitchPlacementMatchesTheorem1 checks by brute
//     force.
//   - switchplace.go — switch placement (Figure 10): a token for x needs a
//     switch at fork F iff some statement referencing x is in CD+ of F.
//   - sourcevec.go — source vectors (Figure 11) for the §4.2 direct
//     construction; sourcevec_literal_test.go holds a line-by-line
//     transliteration of the figure, kept as a cross-check.
//   - tokens.go — the form the three run on: interned token ids and token
//     sets in compressed sparse rows, by CFG node or by token.
//   - alias.go — alias structures, covers, and access sets C[x]
//     (Definitions 6–7) with cover legality checking.
//   - procalias.go — deriving alias structures from FORTRAN-style call
//     sites (§5's CALL F(A,B,A) example).
package analysis

import (
	"slices"

	"ctdf/internal/cfg"
)

// ControlDeps holds, for every node N, the set CD(N) of nodes N is control
// dependent on (Definition 4). Targets of control dependence are always
// fork nodes (including start, which the conventional start→end edge makes
// a fork).
type ControlDeps struct {
	// On[n] is CD(n): the nodes n is control dependent on, sorted.
	On [][]int

	pdom *cfg.DomTree
}

// ComputeControlDeps computes control dependences with the
// Ferrante–Ottenstein–Warren walk: for each CFG edge a→b where b does not
// strictly postdominate a, every node on the postdominator-tree path from
// b up to (excluding) ipdom(a) is control dependent on a. Taking a in
// increasing order keeps each row sorted, and a second walk from a to the
// same node finds a already last in its row.
func ComputeControlDeps(g *cfg.Graph) *ControlDeps {
	pdom := cfg.PostDominators(g)
	cd := &ControlDeps{On: make([][]int, g.Len()), pdom: pdom}
	for a := range g.Nodes {
		for _, b := range g.Nodes[a].Succs {
			if pdom.StrictlyDominates(b, a) {
				continue
			}
			for w := b; w != -1 && w != pdom.Idom[a]; w = pdom.Idom[w] {
				if row := cd.On[w]; len(row) == 0 || row[len(row)-1] != a {
					cd.On[w] = append(row, a)
				}
			}
		}
	}
	return cd
}

// PostDom returns the postdominator tree used by the computation.
func (cd *ControlDeps) PostDom() *cfg.DomTree { return cd.pdom }

// CD returns CD(n) as a sorted slice.
func (cd *ControlDeps) CD(n int) []int { return slices.Clone(cd.On[n]) }

// IteratedCD computes CD+(seeds): the limit of CD(S), CD(S) ∪ CD(CD(S)),
// ... (Definition 5, generalized to a seed set). By Theorem 1, F ∈
// CD+(N) iff N is between F and its immediate postdominator, which by
// Corollary 1 is exactly when F needs a switch for N.
// Seeds outside the graph (stale statement IDs from before a code-copying
// rewrite, or any ID on a start-end-only graph) contribute nothing rather
// than faulting: CD+ of a node that does not exist is empty.
func (cd *ControlDeps) IteratedCD(seeds []int) map[int]bool {
	in := make([]int32, 0, len(seeds))
	for _, n := range seeds {
		if n >= 0 && n < len(cd.On) {
			in = append(in, int32(n))
		}
	}
	var pops int
	out := map[int]bool{}
	for _, f := range cd.newClosure().of(in, &pops) {
		out[int(f)] = true
	}
	return out
}

// closure computes CD+ of seed sets one after another, on one mark per
// node stamped with the set's turn.
type closure struct {
	cd        *ControlDeps
	mark      []int32
	turn      int32
	work, out []int32
}

func (cd *ControlDeps) newClosure() *closure {
	return &closure{cd: cd, mark: make([]int32, len(cd.On))}
}

// of returns CD+(seeds), in the order reached, counting the worklist
// pops in pops; the slice is reused by the next call.
func (c *closure) of(seeds []int32, pops *int) []int32 {
	c.turn++
	c.work, c.out = append(c.work[:0], seeds...), c.out[:0]
	for len(c.work) > 0 {
		n := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		*pops++
		for _, f := range c.cd.On[n] {
			if c.mark[f] != c.turn {
				c.mark[f] = c.turn
				c.work = append(c.work, int32(f))
				c.out = append(c.out, int32(f))
			}
		}
	}
	return c.out
}

// Between reports whether n is between f and f's immediate postdominator
// (Definition 1): there is a non-null path f ⇒ n that does not pass
// through ipdom(f). Computed directly from the definition by graph search;
// used to validate Theorem 1 and for brute-force comparisons.
func Between(g *cfg.Graph, f, n int) bool {
	return BetweenWith(g, ComputeControlDeps(g).pdom, f, n)
}

// BetweenWith is Between with a precomputed postdominator tree. Node IDs
// outside the graph are between nothing (false), matching IteratedCD's
// treatment of stale seeds.
func BetweenWith(g *cfg.Graph, pdom *cfg.DomTree, f, n int) bool {
	if f < 0 || f >= g.Len() || n < 0 || n >= g.Len() {
		return false
	}
	p := pdom.Idom[f]
	// Non-null path from f to n avoiding p. Successors of f start the path;
	// interior nodes (and n itself, as path end) must not be p.
	if n == p {
		return false
	}
	seen := map[int]bool{}
	stack := []int{}
	for _, s := range g.Nodes[f].Succs {
		if s == n {
			return true
		}
		if s != p && !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Nodes[u].Succs {
			if s == n {
				return true
			}
			if s != p && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
