package cfg

// Dominator and postdominator trees via the Cooper–Harvey–Kennedy
// iterative algorithm ("A Simple, Fast Dominance Algorithm"). The paper
// (§4.1, footnote 6) relies on the postdominator tree: every node has a
// unique immediate postdominator because end is reachable from every node.

// DomTree holds an immediate-(post)dominator relation. Idom[start] (or
// Ipdom[end]) is -1.
type DomTree struct {
	// Idom[n] is the immediate (post)dominator of n, or -1 for the root.
	Idom []int
	root int
	// pre[n] is n's preorder number in the tree and last[n] the largest
	// preorder number in n's subtree, so a dominates b exactly when
	// pre[a] <= pre[b] <= last[a]. Nodes the root does not reach have -1.
	pre, last []int32
}

// Root returns the tree root (start for dominators, end for postdominators).
func (t *DomTree) Root() int { return t.root }

// Dominates reports whether a (post)dominates b (reflexively).
func (t *DomTree) Dominates(a, b int) bool {
	if a == b {
		return true
	}
	return t.pre[a] >= 0 && t.pre[a] <= t.pre[b] && t.pre[b] <= t.last[a]
}

// StrictlyDominates reports whether a (post)dominates b and a != b.
func (t *DomTree) StrictlyDominates(a, b int) bool {
	return a != b && t.Dominates(a, b)
}

// Children returns, for each node, its children in the (post)dominator tree.
func (t *DomTree) Children() [][]int {
	kids := make([][]int, len(t.Idom))
	for n, p := range t.Idom {
		if p >= 0 {
			kids[p] = append(kids[p], n)
		}
	}
	return kids
}

// Dominators computes the dominator tree of g rooted at start.
func Dominators(g *Graph) *DomTree {
	return computeDom(g, g.RPO(), g.Start, func(n int) []int { return g.Nodes[n].Preds })
}

// PostDominators computes the postdominator tree of g rooted at end (the
// dominator tree of the reverse graph).
func PostDominators(g *Graph) *DomTree {
	return computeDom(g, g.ReverseRPO(), g.End, func(n int) []int { return g.Nodes[n].Succs })
}

func computeDom(g *Graph, rpo []int, root int, preds func(int) []int) *DomTree {
	n := len(g.Nodes)
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	for i, id := range rpo {
		order[id] = i
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root

	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, id := range rpo {
			if id == root {
				continue
			}
			newIdom := -1
			for _, p := range preds(id) {
				if idom[p] == -1 {
					continue // not yet processed (or unreachable)
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[id] != newIdom {
				idom[id] = newIdom
				changed = true
			}
		}
	}
	idom[root] = -1
	t := &DomTree{Idom: idom, root: root}
	t.number()
	return t
}

// number fills pre and last by a preorder walk of the tree from its root.
func (t *DomTree) number() {
	n := len(t.Idom)
	// Children in CSR form: kids[first[p]:first[p+1]] are p's children.
	first := make([]int32, n+1)
	for _, p := range t.Idom {
		if p >= 0 {
			first[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		first[i+1] += first[i]
	}
	kids := make([]int32, first[n])
	fill := append([]int32(nil), first[:n]...)
	for c, p := range t.Idom {
		if p >= 0 {
			kids[fill[p]] = int32(c)
			fill[p]++
		}
	}
	t.pre, t.last = make([]int32, n), fill // fill is spent; reuse it for last
	for i := range t.pre {
		t.pre[i], t.last[i] = -1, -1
	}
	next := int32(0)
	stack := []int32{int32(t.root)}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if t.pre[v] < 0 {
			t.pre[v] = next
			next++
			stack = append(stack, kids[first[v]:first[v+1]]...)
			continue
		}
		// Second visit: every descendant has been numbered.
		stack = stack[:len(stack)-1]
		t.last[v] = next - 1
	}
}
