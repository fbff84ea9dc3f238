package workloads

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandomUnstructured generates a seeded random program built from
// goto-based patterns — multi-exit counted loops with data-dependent early
// exits, forward skips, and two-way unstructured merges — the control
// flow the paper's §4 machinery exists for. Programs terminate by
// construction (every cycle is bounded by a dedicated counter) and remain
// reducible (every goto targets either the top of its own pattern's loop
// or a forward label in the same pattern).
func RandomUnstructured(seed int64, size int) Workload {
	g := newUgen(seed)
	var b strings.Builder
	for i := 0; i < size; i++ {
		g.pattern(&b)
	}
	return g.workload(fmt.Sprintf("random-unstructured-%d", seed), b.String())
}

// RandomMultiLatch generates a seeded random program of counted loops
// whose back-edges part at a fork: continue-style gotos from inside a
// fork's arms, and k-way dispatch loops (k = 2, 3, 4) whose every target
// jumps back to the header. No fork in a loop reads the loop's counter, so
// §4 forwards the counter's token past the fork to the loop entry's
// back-edge port. Programs terminate (each loop is bounded by its own
// counter, tested once at its header) and stay reducible (every goto
// targets its own loop's header or a forward label).
func RandomMultiLatch(seed int64, size int) Workload {
	return newUgen(seed).program("random-multilatch", seed, size, (*ugen).latchPattern)
}

// RandomProcs generates a seeded random program with one or two
// procedures (straight-line or lightly branching bodies over their formals
// and a shared global) and several calls whose actual tuples may repeat a
// variable — inducing aliased formals exactly as the paper's §5 FORTRAN
// example does. Programs terminate by construction (no loops inside
// bodies; the main body may wrap calls in counted loops).
func RandomProcs(seed int64, calls int) Workload {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	nvars := 3 + r.Intn(3)
	var names []string
	for i := 0; i < nvars; i++ {
		names = append(names, fmt.Sprintf("g%d", i))
	}
	fmt.Fprintf(&b, "var %s\n", strings.Join(names, ", "))

	v := func() string { return names[r.Intn(len(names))] }
	expr := func(vars []string) string {
		pick := func() string {
			if r.Intn(3) == 0 {
				return fmt.Sprint(1 + r.Intn(9))
			}
			return vars[r.Intn(len(vars))]
		}
		ops := []string{"+", "-", "*"}
		e := pick()
		for i := 0; i < 1+r.Intn(2); i++ {
			e = fmt.Sprintf("(%s %s %s)", e, ops[r.Intn(len(ops))], pick())
		}
		return e
	}

	// One or two procedures.
	nprocs := 1 + r.Intn(2)
	var procs []struct {
		name   string
		nparam int
	}
	for pi := 0; pi < nprocs; pi++ {
		name := fmt.Sprintf("p%d", pi)
		nparam := 1 + r.Intn(3)
		var params []string
		for i := 0; i < nparam; i++ {
			params = append(params, fmt.Sprintf("f%d", i))
		}
		scope := append(append([]string(nil), params...), names[0])
		fmt.Fprintf(&b, "proc %s(%s) {\n", name, strings.Join(params, ", "))
		for i := 0; i < 2+r.Intn(3); i++ {
			target := scope[r.Intn(len(scope))]
			if r.Intn(4) == 0 {
				fmt.Fprintf(&b, "  if %s < %d {\n    %s := %s\n  }\n",
					scope[r.Intn(len(scope))], r.Intn(10), target, expr(scope))
			} else {
				fmt.Fprintf(&b, "  %s := %s\n", target, expr(scope))
			}
		}
		fmt.Fprintf(&b, "}\n")
		procs = append(procs, struct {
			name   string
			nparam int
		}{name, nparam})
	}

	// Main: seed globals, then random calls (sometimes inside a counted
	// loop), sometimes repeating an actual to alias formals.
	for i, n := range names {
		fmt.Fprintf(&b, "%s := %d\n", n, i+1)
	}
	counters := 0
	for c := 0; c < calls; c++ {
		pr := procs[r.Intn(len(procs))]
		var args []string
		for i := 0; i < pr.nparam; i++ {
			if len(args) > 0 && r.Intn(3) == 0 {
				args = append(args, args[r.Intn(len(args))]) // repeat → alias
			} else {
				args = append(args, v())
			}
		}
		call := fmt.Sprintf("call %s(%s)", pr.name, strings.Join(args, ", "))
		if r.Intn(4) == 0 {
			// Wrap the call in a counted loop; the counter's declaration
			// is patched into the declaration section afterwards.
			cn := fmt.Sprintf("k%d", counters)
			counters++
			fmt.Fprintf(&b, "%s := 0\nwhile %s < %d {\n  %s\n  %s := %s + 1\n}\n",
				cn, cn, 2+r.Intn(3), call, cn, cn)
		} else {
			fmt.Fprintf(&b, "%s\n", call)
		}
	}
	src := b.String()
	if counters > 0 {
		var cs []string
		for i := 0; i < counters; i++ {
			cs = append(cs, fmt.Sprintf("k%d", i))
		}
		src = strings.Replace(src, "proc ", fmt.Sprintf("var %s\nproc ", strings.Join(cs, ", ")), 1)
	}
	return Workload{Name: fmt.Sprintf("random-procs-%d", seed), Source: src}
}

type ugen struct {
	r        *rand.Rand
	scalars  []string
	arr      string
	arrSize  int
	counters int
	labels   int
}

// newUgen draws the scalars of a goto program.
func newUgen(seed int64) *ugen {
	g := &ugen{r: rand.New(rand.NewSource(seed)), arr: "arr", arrSize: 8}
	nvars := 3 + g.r.Intn(3)
	for i := 0; i < nvars; i++ {
		g.scalars = append(g.scalars, fmt.Sprintf("v%d", i))
	}
	return g
}

// program draws size patterns, each followed by an assignment, into the
// workload named prefix-seed.
func (g *ugen) program(prefix string, seed int64, size int, pattern func(*ugen, *strings.Builder)) Workload {
	var b strings.Builder
	for i := 0; i < size; i++ {
		pattern(g, &b)
		g.assign(&b)
	}
	return g.workload(fmt.Sprintf("%s-%d", prefix, seed), b.String())
}

// workload prefixes body with the declarations of everything it uses.
func (g *ugen) workload(name, body string) Workload {
	var decls strings.Builder
	fmt.Fprintf(&decls, "var %s\n", strings.Join(g.scalars, ", "))
	if g.counters > 0 {
		var cs []string
		for i := 0; i < g.counters; i++ {
			cs = append(cs, fmt.Sprintf("u%d", i))
		}
		fmt.Fprintf(&decls, "var %s\n", strings.Join(cs, ", "))
	}
	fmt.Fprintf(&decls, "array %s[%d]\n", g.arr, g.arrSize)
	return Workload{Name: name, Source: decls.String() + body}
}

func (g *ugen) v() string { return g.scalars[g.r.Intn(len(g.scalars))] }

func (g *ugen) label() string {
	g.labels++
	return fmt.Sprintf("L%d", g.labels)
}

func (g *ugen) counter() string {
	c := fmt.Sprintf("u%d", g.counters)
	g.counters++
	return c
}

func (g *ugen) expr() string {
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprint(g.r.Intn(20))
	case 1:
		return g.v()
	case 2:
		return fmt.Sprintf("%s[(%s %% %d + %d) %% %d]", g.arr, g.v(), g.arrSize, g.arrSize, g.arrSize)
	case 3:
		return fmt.Sprintf("(%s + %s)", g.v(), g.expr())
	default:
		return fmt.Sprintf("(%s * %d)", g.v(), 1+g.r.Intn(5))
	}
}

func (g *ugen) cond() string {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	return fmt.Sprintf("%s %s %d", g.v(), ops[g.r.Intn(len(ops))], g.r.Intn(10))
}

func (g *ugen) assign(b *strings.Builder) {
	if g.r.Intn(4) == 0 {
		fmt.Fprintf(b, "%s[(%s %% %d + %d) %% %d] := %s\n",
			g.arr, g.v(), g.arrSize, g.arrSize, g.arrSize, g.expr())
	} else {
		fmt.Fprintf(b, "%s := %s\n", g.v(), g.expr())
	}
}

// pattern emits one self-contained unstructured construct.
func (g *ugen) pattern(b *strings.Builder) {
	switch g.r.Intn(4) {
	case 0:
		// Forward skip: if p then goto skip else goto cont.
		skip, cont := g.label(), g.label()
		fmt.Fprintf(b, "if %s then goto %s else goto %s\n", g.cond(), skip, cont)
		fmt.Fprintf(b, "%s:\n", cont)
		g.assign(b)
		g.assign(b)
		fmt.Fprintf(b, "%s:\n", skip)
		g.assign(b)

	case 1:
		// Diamond with unstructured merge (the paper's l1/l2/l3 shape).
		l1, l2, l3 := g.label(), g.label(), g.label()
		fmt.Fprintf(b, "if %s then goto %s else goto %s\n", g.cond(), l1, l2)
		fmt.Fprintf(b, "%s:\n", l1)
		g.assign(b)
		fmt.Fprintf(b, "goto %s\n", l3)
		fmt.Fprintf(b, "%s:\n", l2)
		g.assign(b)
		g.assign(b)
		fmt.Fprintf(b, "%s:\n", l3)
		g.assign(b)

	case 2:
		// Multi-exit counted loop: a data-dependent early exit and the
		// counter exit converge at an unstructured join.
		c := g.counter()
		top, cont, exit1, exit2, after := g.label(), g.label(), g.label(), g.label(), g.label()
		n := 3 + g.r.Intn(5)
		fmt.Fprintf(b, "%s := 0\n", c)
		fmt.Fprintf(b, "%s:\n", top)
		fmt.Fprintf(b, "%s := %s + 1\n", c, c)
		g.assign(b)
		fmt.Fprintf(b, "if %s then goto %s else goto %s\n", g.cond(), exit1, cont)
		fmt.Fprintf(b, "%s:\n", cont)
		g.assign(b)
		fmt.Fprintf(b, "if %s < %d then goto %s else goto %s\n", c, n, top, exit2)
		fmt.Fprintf(b, "%s:\n", exit1)
		g.assign(b)
		fmt.Fprintf(b, "goto %s\n", after)
		fmt.Fprintf(b, "%s:\n", exit2)
		g.assign(b)
		fmt.Fprintf(b, "%s:\n", after)

	default:
		// Counted loop with two back edges to the same header.
		c := g.counter()
		top, mid, out := g.label(), g.label(), g.label()
		n := 3 + g.r.Intn(5)
		fmt.Fprintf(b, "%s := 0\n", c)
		fmt.Fprintf(b, "%s:\n", top)
		fmt.Fprintf(b, "%s := %s + 1\n", c, c)
		fmt.Fprintf(b, "if %s < %d then goto %s else goto %s\n", c, n, midOrTop(g, top, mid), mid)
		fmt.Fprintf(b, "%s:\n", mid)
		g.assign(b)
		fmt.Fprintf(b, "if %s < %d then goto %s else goto %s\n", c, n, top, out)
		fmt.Fprintf(b, "%s:\n", out)
		g.assign(b)
	}
}

// midOrTop picks the true arm of the inner fork: jumping straight back to
// the header creates the second back edge half the time.
func midOrTop(g *ugen, top, mid string) string {
	if g.r.Intn(2) == 0 {
		return top
	}
	return mid
}

// latchPattern emits one counted loop whose back-edges part at a fork.
func (g *ugen) latchPattern(b *strings.Builder) {
	c := g.counter()
	k := 1 + g.r.Intn(4) // 1: continue from a fork; else a k-way dispatch
	sel := ""
	if k > 1 {
		sel = g.counter()
		fmt.Fprintf(b, "%s := %d\n", sel, 1+g.r.Intn(k))
	}
	top, body, out := g.label(), g.label(), g.label()
	fmt.Fprintf(b, "%s := 0\n", c)
	fmt.Fprintf(b, "%s:\n", top)
	fmt.Fprintf(b, "%s := %s + 1\n", c, c)
	fmt.Fprintf(b, "if %s > %d then goto %s else goto %s\n", c, 2+g.r.Intn(5), out, body)
	fmt.Fprintf(b, "%s:\n", body)
	if k == 1 {
		// A continue straight from the fork half the time, else from the
		// end of its true arm; the false arm may fork and continue again.
		g.assign(b)
		arm, rest := g.label(), g.label()
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(b, "if %s then goto %s else goto %s\n", g.cond(), top, rest)
		} else {
			fmt.Fprintf(b, "if %s then goto %s else goto %s\n", g.cond(), arm, rest)
			fmt.Fprintf(b, "%s:\n", arm)
			g.assign(b)
			fmt.Fprintf(b, "goto %s\n", top)
		}
		fmt.Fprintf(b, "%s:\n", rest)
		g.assign(b)
		if g.r.Intn(2) == 0 {
			more := g.label()
			fmt.Fprintf(b, "if %s then goto %s else goto %s\n", g.cond(), top, more)
			fmt.Fprintf(b, "%s:\n", more)
			g.assign(b)
		}
		fmt.Fprintf(b, "goto %s\n", top)
	} else {
		// Target i runs when sel == i; each sets the next selector.
		targets := make([]string, k)
		for i := range targets {
			targets[i] = g.label()
		}
		g.branch(b, sel, 1, targets)
		for _, t := range targets {
			fmt.Fprintf(b, "%s:\n", t)
			g.assign(b)
			fmt.Fprintf(b, "%s := %d\n", sel, 1+g.r.Intn(k))
			fmt.Fprintf(b, "goto %s\n", top)
		}
	}
	fmt.Fprintf(b, "%s:\n", out)
}
