// Package vet statically verifies dataflow graphs against the paper's
// correctness conditions. Where internal/machcheck names the invariants an
// execution may violate at run time, vet proves (or refutes) them on the
// graph itself, before any token moves:
//
//   - structure — the dfg.Validate structural invariants (§2.2);
//   - token-balance — every variable's access token count is exactly 1 on
//     every path: no output port leaks tokens, no input port starves, and
//     every token line runs from start to end (the Schema 2 invariant, §3);
//   - determinacy — no port can statically receive two same-tag tokens;
//     merge inputs must arrive from disjoint predicate paths (§2.2, §5);
//   - switch-placement — the emitted switches equal an independent
//     recomputation of CD+ per token (Theorem 1/Corollary 1, Figure 10):
//     a missing switch is unsound, a redundant one is a missed §4
//     optimization;
//   - source-vectors — merges exist exactly where the recomputed source
//     vector SV_N(x) has more than one element (Figure 11), and loop
//     entry/exit operators exist exactly for the tokens each loop
//     circulates;
//   - alias-cover — every memory operation on x gathers, through its synch
//     tree, the access token of every cover element intersecting [x]
//     (§5, Figure 13).
//
// The passes run over a Unit: the graph plus (when available) the
// translate.Result metadata recording which schema contract the graph must
// satisfy. Graphs without metadata (loaded from text, linked separate
// compilation) get the graph-level passes only; the translation-validation
// passes are reported as skipped.
//
// Each Diagnostic carries the machcheck.Check the defect would trip at run
// time, so static findings map onto the existing taxonomy.
package vet

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"ctdf/internal/dfg"
	"ctdf/internal/machcheck"
	"ctdf/internal/translate"
)

// Severity grades a diagnostic.
type Severity int

// Severities. Errors refute a correctness condition (the graph can
// deadlock, leak, or misbehave); warnings flag missed optimizations and
// harmless redundancy.
const (
	SevError Severity = iota
	SevWarning
)

func (s Severity) String() string {
	if s == SevWarning {
		return "warning"
	}
	return "error"
}

// MarshalText encodes the severity by name, as String renders it.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Diagnostic is one finding of one pass.
type Diagnostic struct {
	// Pass names the reporting pass.
	Pass string `json:"pass"`
	// Severity grades the finding: "error" (a correctness condition is
	// refuted) or "warning" (missed optimization or harmless redundancy).
	Severity Severity `json:"severity"`
	// Check is the machcheck invariant the defect would violate at run
	// time (empty for pure optimization warnings).
	Check machcheck.Check `json:"check,omitempty"`
	// Node is the dataflow node the finding anchors to, or -1.
	Node int `json:"node"`
	// Label is the node's diagnostic label ("" when Node is -1).
	Label string `json:"label,omitempty"`
	// Tok is the access token or variable involved, if any.
	Tok string `json:"tok,omitempty"`
	// Paper cites the section/figure/theorem the violated condition comes
	// from.
	Paper string `json:"paper,omitempty"`
	// Msg describes the finding.
	Msg string `json:"msg"`
}

// String renders the diagnostic on one line.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]", d.Severity, d.Pass)
	if d.Node >= 0 {
		if d.Label != "" {
			fmt.Fprintf(&b, " %s:", d.Label)
		} else {
			fmt.Fprintf(&b, " d%d:", d.Node)
		}
	}
	fmt.Fprintf(&b, " %s", d.Msg)
	if d.Paper != "" {
		fmt.Fprintf(&b, " (%s)", d.Paper)
	}
	return b.String()
}

// SkippedPass records a pass that could not run and why.
type SkippedPass struct {
	Pass   string `json:"pass"`
	Reason string `json:"reason"`
}

// Report is the outcome of a vet run.
type Report struct {
	// Diags lists every finding, grouped by pass in registry order.
	Diags []Diagnostic `json:"diagnostics"`
	// Ran lists the passes that ran.
	Ran []string `json:"passes"`
	// Skipped lists the passes that could not run. Graphs loaded from
	// text or linked from separately compiled procedures carry no
	// translation metadata, so the translation-validation passes
	// (switch-placement, source-vectors, alias-cover) skip.
	Skipped []SkippedPass `json:"skipped,omitempty"`
	// Errors and Warnings count the diagnostics of each severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
}

// Clean reports whether the run produced no diagnostics at all.
func (r *Report) Clean() bool { return len(r.Diags) == 0 }

// Detectors returns the sorted set of passes that reported at least one
// error (the mutation self-tests assert on it).
func (r *Report) Detectors() []string {
	set := map[string]bool{}
	for _, d := range r.Diags {
		if d.Severity == SevError {
			set[d.Pass] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// String renders the report: one line per diagnostic, then a summary.
func (r *Report) String() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "vet: %d passes", len(r.Ran))
	if len(r.Skipped) > 0 {
		fmt.Fprintf(&b, " (%d skipped)", len(r.Skipped))
	}
	fmt.Fprintf(&b, ", %d errors, %d warnings\n", r.Errors, r.Warnings)
	return b.String()
}

// Pass is one registered analysis.
type Pass struct {
	// Name identifies the pass in diagnostics and reports.
	Name string
	// Paper is the default citation attached to the pass's findings.
	Paper string
	// Doc is a one-line description.
	Doc string

	run func(u *Unit) (diags []Diagnostic, skip string)
}

// Passes returns the ordered pass registry.
func Passes() []Pass {
	return []Pass{
		{Name: "structure", Paper: "§2.2", Doc: "dfg.Validate structural invariants", run: passStructure},
		{Name: "token-balance", Paper: "§3", Doc: "every access token count is exactly 1 on every path", run: passTokenBalance},
		{Name: "determinacy", Paper: "§2.2, §5", Doc: "no port statically receives two same-tag tokens", run: passDeterminacy},
		{Name: "switch-placement", Paper: "§4 Theorem 1, Figure 10", Doc: "emitted switches equal the recomputed CD+ placement", run: passSwitchPlacement},
		{Name: "source-vectors", Paper: "§4.2 Figure 11", Doc: "merges exist exactly where |SV_N(x)| > 1", run: passSourceVectors},
		{Name: "alias-cover", Paper: "§5 Figure 13", Doc: "memory ops gather the access set C[x] through their synch trees", run: passAliasCover},
	}
}

// Run vets graph g. res supplies the translation metadata the
// translation-validation passes diff against; nil (or a Result without a
// CFG) restricts the run to the graph-level passes.
func Run(g *dfg.Graph, res *translate.Result) *Report {
	rep, _ := Measure(g, res)
	return rep
}

// Work counts what a vet run did, each analysis in the unit of its inner
// loop, so that the cost of the run can be read without a clock.
type Work struct {
	// OrderSteps counts the ordering check's steps: arcs and intervals
	// its line walks take, pairs it judges and arcs its fallback searches
	// take.
	OrderSteps int
	// Fallbacks counts the elements whose pairs neither the line nor the
	// guards settled, left to a search over the whole graph.
	Fallbacks int
	// GuardCons counts the guard table's cons calls, GuardSteps the arm
	// list steps of its set operations while it is solved.
	GuardCons, GuardSteps int
	// NeedEntries counts the entries of the need rows the translator
	// numbered and the recomputed placement reads, one per (node, token
	// it needs), CDPops the CD+ worklist pops of its rounds, and SVCells
	// the entries its source-vector walk made, moved, recorded and
	// united.
	NeedEntries, CDPops, SVCells int
}

// Measure is Run that also returns the run's work counts.
func Measure(g *dfg.Graph, res *translate.Result) (*Report, Work) {
	u := newUnit(g, res)
	rep := u.run(Passes())
	return rep, u.work
}

// run runs every pass but the last on a goroutine of its own and the last
// on the caller, then assembles the report in registry order, so the
// schedule never shows in it. Passes only read the Unit; the two analyses
// they share are solved once, by whichever pass asks first.
func (u *Unit) run(passes []Pass) *Report {
	type outcome struct {
		diags []Diagnostic
		skip  string
	}
	outs := make([]outcome, len(passes))
	var wg sync.WaitGroup
	for i, p := range passes {
		if i == len(passes)-1 {
			outs[i].diags, outs[i].skip = p.run(u)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i].diags, outs[i].skip = p.run(u)
		}()
	}
	wg.Wait()
	if u.place != nil && u.place.plan != nil {
		u.work.NeedEntries, u.work.CDPops = u.place.needEntries, u.place.plan.Work.Pops
	}

	g := u.G
	rep := &Report{}
	for k, p := range passes {
		diags, skip := outs[k].diags, outs[k].skip
		if skip != "" {
			rep.Skipped = append(rep.Skipped, SkippedPass{Pass: p.Name, Reason: skip})
			continue
		}
		rep.Ran = append(rep.Ran, p.Name)
		for i := range diags {
			diags[i].Pass = p.Name
			if diags[i].Paper == "" {
				diags[i].Paper = p.Paper
			}
			if diags[i].Node >= 0 && diags[i].Node < len(g.Nodes) && diags[i].Label == "" {
				diags[i].Label = g.Label(g.Nodes[diags[i].Node])
			}
		}
		rep.Diags = append(rep.Diags, diags...)
	}
	for _, d := range rep.Diags {
		if d.Severity == SevError {
			rep.Errors++
		} else {
			rep.Warnings++
		}
	}
	return rep
}

// Unit is the subject of a vet run: the graph, optional translation
// metadata, and what the passes share — the graph's adjacency and what
// one depth-first search over it finds.
type Unit struct {
	G   *dfg.Graph
	Res *translate.Result

	// adj is the graph's own index. Mutated or hand-written graphs may hold
	// arcs that name no node or no port; the index leaves those out, so the
	// passes never meet them, and the structure pass reports them.
	adj *dfg.Index

	// post lists every node in depth-first post-order over the arcs, the
	// first fromStart of them being those reachable from start. The two
	// dataflow solvers sweep it (forwards in reverse, backwards as is) so
	// that all but loop-carried facts settle in one sweep. The search that
	// fills post and comp runs on first use (searched), so that the
	// placement passes, which read neither, do not wait for it.
	searchOnce sync.Once
	post       []int
	fromStart  int
	// comp numbers each node's strongly connected component in the order
	// the search finishes them, so that every component a component
	// reaches has a smaller number; comps counts them.
	comp  []int32
	comps int

	placeOnce   sync.Once
	place       *placeInfo // recomputed placement (switch-placement, source-vectors)
	guardOnce   sync.Once
	guards      *guardTable // guard analysis (determinacy, alias-cover)
	guardBuilds int         // times guards was solved; the tests hold it to 1

	// work is what the run did. Each field is written by one pass, or
	// under one sync.Once, and read once the passes are done.
	work Work
}

func newUnit(g *dfg.Graph, res *translate.Result) *Unit {
	return &Unit{G: g, Res: res, adj: g.Index()}
}

// searched runs the unit's search once, on first use, and returns u.
func (u *Unit) searched() *Unit {
	u.searchOnce.Do(u.search)
	return u
}

// search is the run's one depth-first search over the arcs, iterative,
// rooted at start first and then at every node not yet visited, in id
// order. It fills post and fromStart and, by Tarjan's bookkeeping, comp.
func (u *Unit) search() {
	n := len(u.G.Nodes)
	u.post, u.comp = make([]int, 0, n), make([]int32, n)
	index := make([]int32, n) // visit number, from 1; 0 until visited
	low := make([]int32, n)
	for i := range u.comp {
		u.comp[i] = -1 // until finished: visited and unfinished means on the stack
	}
	var stack []int32
	type frame struct{ node, next int32 } // next: out-arcs of node taken
	var calls []frame
	visited := int32(0)
	visit := func(v int32) {
		visited++
		index[v], low[v] = visited, visited
		stack = append(stack, v)
		calls = append(calls, frame{v, 0})
	}
	root := func(v int) {
		if index[v] != 0 {
			return
		}
		visit(int32(v))
		for len(calls) > 0 {
			top := len(calls) - 1
			v := calls[top].node
			if out := u.adj.OutOf(v); int(calls[top].next) < len(out) {
				to := u.G.Arcs[out[calls[top].next]].To
				calls[top].next++
				if index[to] == 0 {
					visit(to)
				} else if u.comp[to] < 0 {
					low[v] = min(low[v], index[to])
				}
				continue
			}
			calls = calls[:top]
			u.post = append(u.post, int(v))
			if top > 0 {
				p := calls[top-1].node
				low[p] = min(low[p], low[v])
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					u.comp[w] = int32(u.comps)
					if w == v {
						break
					}
				}
				u.comps++
			}
		}
	}
	if s := int(u.G.StartID); s >= 0 && s < n {
		root(s)
	}
	u.fromStart = len(u.post)
	for v := range n {
		root(v)
	}
}

// In returns the ids of the arcs entering (node, port).
func (u *Unit) In(node int32, port int) []int32 { return u.adj.In(node, port) }

// Out returns the ids of the arcs leaving (node, port).
func (u *Unit) Out(node int32, port int) []int32 { return u.adj.Out(node, port) }

// tokID returns the number of token name in the graph's name table
// (dfg.Node.Tok), or -1 when the table has no such name.
func (u *Unit) tokID(name string) int32 {
	if i := slices.Index(u.G.Names, name); i >= 0 {
		return int32(i) + 1
	}
	return -1
}

// hasMeta reports whether translation-validation metadata is available.
func (u *Unit) hasMeta() bool {
	return u.Res != nil && u.Res.Plan != nil
}

const noMetaReason = "no translation metadata (graph loaded from text or linked)"

// passStructure reruns the structural validator and reports its first
// finding as a diagnostic; the remaining passes still run (the index holds
// no malformed arc), so one broken invariant does not hide others.
func passStructure(u *Unit) ([]Diagnostic, string) {
	if err := u.G.Validate(); err != nil {
		return []Diagnostic{{
			Severity: SevError,
			Check:    machcheck.InvalidConfig,
			Node:     -1,
			Msg:      err.Error(),
		}}, ""
	}
	return nil, ""
}
