package cfg

import (
	"testing"
)

// pathExistsAvoiding reports whether a path from src to dst exists that
// never passes through avoid (unless src or dst is avoid itself, in which
// case it must still not be an interior node).
func pathExistsAvoiding(g *Graph, src, dst, avoid int) bool {
	if src == dst {
		return true
	}
	seen := map[int]bool{src: true}
	stack := []int{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n != src && n == avoid {
			continue
		}
		for _, s := range g.Nodes[n].Succs {
			if s == dst {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// bruteDominates: a dominates b iff every path start→b passes through a.
func bruteDominates(g *Graph, a, b int) bool {
	if a == b || a == g.Start {
		return true
	}
	return !pathExistsAvoiding(g, g.Start, b, a)
}

// brutePostDominates: a postdominates b iff every path b→end passes
// through a.
func brutePostDominates(g *Graph, a, b int) bool {
	if a == b || a == g.End {
		return true
	}
	return !pathExistsAvoiding(g, b, g.End, a)
}

var domTestPrograms = []string{
	runningExample,
	"var x\nx := 1\n",
	"var a, b, c\nif a < b { c := 1 } else { c := 2 }\na := c\n",
	"var i, j\nwhile i < 10 {\n  j := 0\n  while j < 5 { j := j + 1 }\n  i := i + 1\n}\n",
	`
var x, w
x := x + 1
if w == 0 then goto l1 else goto l2
l1:
w := 1
goto l3
l2:
w := 2
l3:
x := 0
`,
	`
var a, b
top:
a := a + 1
if a < 3 then goto top else goto mid
mid:
b := b + 1
if b < 4 then goto top2 else goto end
top2:
goto mid2
mid2:
a := 0
`,
}

func TestDominatorsAgainstBruteForce(t *testing.T) {
	for _, src := range domTestPrograms {
		g := build(t, src)
		dom := Dominators(g)
		for a := range g.Nodes {
			for b := range g.Nodes {
				want := bruteDominates(g, a, b)
				got := dom.Dominates(a, b)
				if got != want {
					t.Errorf("prog %q: Dominates(n%d, n%d) = %v, brute force says %v", src, a, b, got, want)
				}
			}
		}
	}
}

func TestPostDominatorsAgainstBruteForce(t *testing.T) {
	for _, src := range domTestPrograms {
		g := build(t, src)
		pdom := PostDominators(g)
		for a := range g.Nodes {
			for b := range g.Nodes {
				want := brutePostDominates(g, a, b)
				got := pdom.Dominates(a, b)
				if got != want {
					t.Errorf("prog %q: PostDominates(n%d, n%d) = %v, brute force says %v", src, a, b, got, want)
				}
			}
		}
	}
}

func TestImmediatePostdominatorUnique(t *testing.T) {
	// Footnote 6: every node except end has a unique immediate
	// postdominator, and the relation is a tree rooted at end.
	for _, src := range domTestPrograms {
		g := build(t, src)
		pdom := PostDominators(g)
		if pdom.Root() != g.End {
			t.Errorf("postdominator root = n%d, want end n%d", pdom.Root(), g.End)
		}
		for n := range g.Nodes {
			if n == g.End {
				if pdom.Idom[n] != -1 {
					t.Errorf("ipdom(end) = n%d, want none", pdom.Idom[n])
				}
				continue
			}
			ip := pdom.Idom[n]
			if ip < 0 {
				t.Errorf("prog %q: node n%d has no immediate postdominator", src, n)
				continue
			}
			// ip must strictly postdominate n, and every other strict
			// postdominator of n must postdominate ip.
			if !pdom.StrictlyDominates(ip, n) {
				t.Errorf("ipdom(n%d)=n%d does not strictly postdominate it", n, ip)
			}
			for m := range g.Nodes {
				if m != n && pdom.StrictlyDominates(m, n) && !pdom.Dominates(m, ip) {
					t.Errorf("n%d strictly postdominates n%d but not its ipdom n%d", m, n, ip)
				}
			}
		}
	}
}

func TestStartIpdomIsEndByConvention(t *testing.T) {
	// Because of the conventional start→end edge, ipdom(start) = end, which
	// is what makes "between start and its immediate postdominator" cover
	// the whole program (§4.1).
	g := build(t, runningExample)
	pdom := PostDominators(g)
	if pdom.Idom[g.Start] != g.End {
		t.Errorf("ipdom(start) = n%d, want end n%d", pdom.Idom[g.Start], g.End)
	}
}

func TestDomTreeChildren(t *testing.T) {
	g := build(t, runningExample)
	dom := Dominators(g)
	kids := dom.Children()
	// Every node except the root appears exactly once as a child.
	count := 0
	for _, c := range kids {
		count += len(c)
	}
	if count != g.Len()-1 {
		t.Errorf("children count = %d, want %d", count, g.Len()-1)
	}
}
