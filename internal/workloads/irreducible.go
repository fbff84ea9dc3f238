package workloads

import (
	"fmt"
	"slices"
	"strings"
)

// KEntry is a region of k blocks (k ≥ 2) entered at any of them: one is
// picked by e % k on entry, and each block runs u := u + 1;
// x := x*3 + i, leaves when u > 25, and otherwise jumps to one of the
// other blocks through a fork chain on x % (k-1). Every block is an entry
// of one strongly connected region, the irreducible shape whose code
// copying grows exponentially in k.
func KEntry(k int) Workload {
	g := &ugen{}
	var b strings.Builder
	blocks := make([]string, k)
	for i := range blocks {
		blocks[i] = fmt.Sprintf("b%d", i)
	}
	fmt.Fprintf(&b, "var e, u, x\ne := 7\n")
	g.branch(&b, fmt.Sprintf("e %% %d", k), 0, blocks)
	for i, bl := range blocks {
		fmt.Fprintf(&b, "%s:\nu := u + 1\nx := x * 3 + %d\n", bl, i)
		next := g.label()
		fmt.Fprintf(&b, "if u > 25 then goto end else goto %s\n%s:\n", next, next)
		g.branch(&b, fmt.Sprintf("x %% %d", k-1), 0, slices.Delete(slices.Clone(blocks), i, i+1))
	}
	return Workload{Name: fmt.Sprintf("k-entry-%d", k), Source: b.String()}
}

// RandomIrreducible generates a seeded random program of irreducible
// regions: k blocks (k = 2…6), any of which the region is entered at, each
// jumping to the others until the region's counter runs out. Regions are
// chained, and a block may hold a whole region of its own. Programs
// terminate: every block bumps its region's counter, which is reset on
// entry and tested in every block.
func RandomIrreducible(seed int64, size int) Workload {
	return newUgen(seed).program("random-irreducible", seed, size, func(g *ugen, b *strings.Builder) { g.region(b, 1) })
}

// region emits one k-entry region; with nest > 0 one of its blocks may
// hold another region.
func (g *ugen) region(b *strings.Builder, nest int) {
	k := 2 + g.r.Intn(5)
	c := g.counter()
	blocks := make([]string, k)
	for i := range blocks {
		blocks[i] = g.label()
	}
	out := g.label()
	pick := func(m int) string { return fmt.Sprintf("((%s + %s) %% %d + %d) %% %d", g.v(), c, m, m, m) }
	fmt.Fprintf(b, "%s := 0\n", c)
	g.branch(b, pick(k), 0, blocks)
	for i, bl := range blocks {
		fmt.Fprintf(b, "%s:\n%s := %s + 1\n", bl, c, c)
		g.assign(b)
		if nest > 0 && g.r.Intn(k) == 0 {
			g.region(b, nest-1)
		}
		next := g.label()
		fmt.Fprintf(b, "if %s > %d then goto %s else goto %s\n%s:\n", c, 2+g.r.Intn(6), out, next, next)
		g.branch(b, pick(k-1), 0, slices.Delete(slices.Clone(blocks), i, i+1))
	}
	fmt.Fprintf(b, "%s:\n", out)
}

// branch jumps to targets[j] when sel == base+j, and to the last target
// otherwise, through a chain of forks.
func (g *ugen) branch(b *strings.Builder, sel string, base int, targets []string) {
	last := len(targets) - 1
	for j := 0; j < last-1; j++ {
		next := g.label()
		fmt.Fprintf(b, "if %s == %d then goto %s else goto %s\n%s:\n", sel, base+j, targets[j], next, next)
	}
	if last == 0 {
		fmt.Fprintf(b, "goto %s\n", targets[0])
	} else {
		fmt.Fprintf(b, "if %s == %d then goto %s else goto %s\n", sel, base+last-1, targets[last-1], targets[last])
	}
}

// RandomMultiExit generates a seeded random program of counted loop
// nests, two or three deep, whose innermost body may leave two or three
// of them with one goto. Programs terminate (every loop is bounded by its
// own counter, reset on entry) and stay reducible.
func RandomMultiExit(seed int64, size int) Workload {
	return newUgen(seed).program("random-multiexit", seed, size, func(g *ugen, b *strings.Builder) { g.exitNest(b, 2+g.r.Intn(2)) })
}

// exitNest emits depth nested counted loops; a data-dependent fork in the
// innermost body jumps past at least two of them.
func (g *ugen) exitNest(b *strings.Builder, depth int) {
	tops, afters := make([]string, depth), make([]string, depth)
	for l := range depth {
		c := g.counter()
		tops[l], afters[l] = g.label(), g.label()
		body := g.label()
		fmt.Fprintf(b, "%s := 0\n%s:\n%s := %s + 1\n", c, tops[l], c, c)
		fmt.Fprintf(b, "if %s > %d then goto %s else goto %s\n%s:\n", c, 1+g.r.Intn(4), afters[l], body, body)
		g.assign(b)
	}
	cont := g.label()
	fmt.Fprintf(b, "if %s then goto %s else goto %s\n%s:\n", g.cond(), afters[g.r.Intn(depth-1)], cont, cont)
	g.assign(b)
	for l := depth - 1; l >= 0; l-- {
		fmt.Fprintf(b, "goto %s\n%s:\n", tops[l], afters[l])
		if l > 0 {
			g.assign(b)
		}
	}
}

// TwoLevelExit holds a goto that leaves two nested loops at once (§3:
// the inner loop's exit statement, then the outer one's). It is not in
// All: it is a fixture for the loop-exit order, not a suite workload.
var TwoLevelExit = Workload{Name: "two-level-exit", Source: `
var i, j, x
i := 0
outer:
if i < 3 then goto ob else goto done
ob:
j := 0
inner:
if j < 3 then goto ib else goto oend
ib:
x := x + 1
if x > 5 then goto done else goto icont
icont:
j := j + 1
goto inner
oend:
i := i + 1
goto outer
done:
x := x + 100
`}
