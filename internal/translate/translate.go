// Package translate implements the paper's translation schemas from
// control-flow graphs to dataflow graphs:
//
//   - Schema 1 (§2.3): a single access token visits every memory operation
//     in sequence, playing the role of the program counter.
//   - Schema 2 (§3): one access token per variable; independent memory
//     operations proceed in parallel; cyclic intervals get loop entry/exit
//     control.
//   - The optimized direct construction (§4.2): switches are created only
//     where switch placement (Figure 10) demands them and wiring follows
//     the source vectors of Figure 11, so access tokens bypass conditionals
//     and loops that never reference their variables.
//   - Schema 3 (§5): one access token per cover element of an alias
//     structure; a memory operation on x collects the access set C[x]
//     through a synch tree and regenerates it on completion.
//
// The §6 parallelizing transformations — memory-operation elimination for
// unaliased scalars (§6.1), read parallelization (§6.2), and array store
// parallelization across loop iterations (§6.3, Figure 14) — are options
// layered on the same builder.
//
// All schemas share one generic builder: they differ only in the token
// universe, the variable→tokens mapping, and the switch placement. Schema
// 1 is the single-token instance; Schema 2 places a switch at every fork
// for every token (which makes the Figure 11 computation degenerate to
// "tokens follow control-flow edges"); the optimized construction uses
// computed placement; Schema 3 maps variables to access sets.
//
// Map to the paper:
//
//   - translate.go, build.go — the generic schema builder (§2.3, §3, §4.2,
//     §5) and the Options surface selecting schema and transformations.
//     The loops, the switch placement with its loop-need fixpoint and the
//     source vectors it builds from are derived in internal/cfg and
//     internal/analysis.
//   - arraypar.go — array store parallelization (§6.3, Figure 14).
//   - istruct.go — I-structure translation for write-once arrays (§6.3).
//   - synchtree.go — synch-tree legalization to two-operand ETS matching
//     (Figure 2).
//   - linked.go — separate compilation: every unit through the same stage,
//     linked with Apply/Param/ProcReturn nodes and per-activation tag
//     frames (§2.2).
//   - snapshot.go — loadable textual graph format and assembly listing.
//
// The effect of each choice here is measurable: run the result under
// ctdf profile (or obs.Compare two runs) to see firing counts, matching
// waits, and the critical path a schema produces — see OBSERVABILITY.md.
package translate

import (
	"fmt"
	"slices"
	"sort"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
)

// Schema selects a translation schema.
type Schema int

// Translation schema variants.
const (
	// Schema1 circulates a single access token (sequential semantics).
	Schema1 Schema = iota
	// Schema2 circulates one access token per variable, switched at every
	// fork along control-flow edges.
	Schema2
	// Schema2Opt is the §4.2 direct optimized construction: Schema 2
	// tokens, switches only where needed.
	Schema2Opt
	// Schema3 circulates one access token per cover element (aliasing).
	Schema3
	// Schema3Opt is Schema 3 with optimized switch placement.
	Schema3Opt
)

var schemaNames = map[Schema]string{
	Schema1: "schema1", Schema2: "schema2", Schema2Opt: "schema2-opt",
	Schema3: "schema3", Schema3Opt: "schema3-opt",
}

func (s Schema) String() string { return schemaNames[s] }

// ParseSchema parses a schema name as printed by String.
func ParseSchema(name string) (Schema, error) {
	for s, n := range schemaNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("translate: unknown schema %q", name)
}

// Options configures a translation.
type Options struct {
	Schema Schema

	// Cover parameterizes Schema 3 (ignored otherwise). Nil selects the
	// singleton cover.
	Cover *analysis.Cover

	// EliminateMemory applies §6.1: unaliased scalars lose their loads and
	// stores; their access tokens carry the values. Valid for Schema2,
	// Schema2Opt.
	EliminateMemory bool

	// ParallelReads applies §6.2 within statements: the loads of a maximal
	// load sequence on a token line receive replicas of the incoming token
	// and their completions are collected by a synch tree.
	ParallelReads bool

	// ParallelArrayStores applies §6.3 (Figure 14) to every loop/array
	// pair that the independence check of FindParallelStores accepts.
	ParallelArrayStores bool

	// UseIStructures applies §6.3's final enhancement to every array the
	// write-once analysis of FindIStructures accepts: its reads and writes
	// drop their access tokens entirely and the memory defers premature
	// reads (I-structure semantics). Valid for Schema2, Schema2Opt.
	UseIStructures bool

	// Optimize selects the post-translation graph-optimizer level
	// (internal/opt): 0 runs no optimizer; 1 runs the full pipeline
	// (switch sinking, merge collapsing, operator fusion, dead-token
	// elimination). Translate only records the level: the optimizer edits
	// the graph as it is emitted (TranslateEdited with opt.Edit) or one
	// already built (opt.Run), and sets Result.Opt, which tells the
	// verifier that switches and merges may have been removed.
	Optimize int
}

// PassCount is one optimizer pass's rewrite tally.
type PassCount struct {
	Name     string `json:"name"`
	Rewrites int    `json:"rewrites"`
}

// OptCertificate reports what the last run of the optimizer
// (internal/opt) did: the full pipeline, or the iterative switch
// elimination, which runs two of its passes. It claims nothing the
// verifier relies on — vet judges a switch or merge absent from the graph
// by the graph and the CFG alone — but its presence on a Result says an
// edit pass ran, so a switch missing where the minimal placement does not
// require one is a removal, not a contract breach.
type OptCertificate struct {
	// Passes records per-pass rewrite counts in pipeline order (for
	// `ctdf opt -explain` and the experiments).
	Passes []PassCount `json:"passes"`
}

// Rewrites sums the per-pass rewrite counts.
func (c *OptCertificate) Rewrites() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, p := range c.Passes {
		n += p.Rewrites
	}
	return n
}

// SingleTokenName is the access token name used by Schema 1.
const SingleTokenName = "π"

// doneSuffix marks the store-completion token lines introduced by the
// §6.3 transformation.
const doneSuffix = "#done"

// Result bundles the dataflow graph with the intermediate artifacts of
// the translation, for inspection and experiments.
type Result struct {
	Graph *dfg.Graph
	// Options records the translation request that produced the graph, so
	// downstream verifiers (internal/vet) know which schema contract the
	// graph must satisfy. Zero for graphs not built by Translate (loaded
	// from text, linked separate compilation).
	Options Options
	// CFG is the loop-control-transformed control-flow graph the
	// translation ran on.
	CFG   *cfg.Graph
	Loops []cfg.Loop
	// Plan is the token plan the graph was built on: its need, its switch
	// placement (for Schema 1/2/3 "every token at every fork") and loop
	// needs, from which vet and explain recompute Figure 11.
	Plan *analysis.Plan
	// Universe is the access-token name universe.
	Universe []string
	// TokensOf maps each variable to the tokens its memory operations
	// collect (Schema 3 access sets; identity for Schema 2).
	TokensOf map[string][]string
	// ValueTokens names tokens that carry variable values instead of
	// dummy synchronization payloads (§6.1); maps token name → variable.
	ValueTokens map[string]string
	// ParallelStores lists the (loop entry, array) pairs transformed by
	// §6.3.
	ParallelStores []ParallelStore
	// IStructures lists the arrays given I-structure semantics.
	IStructures []string
	// DispatchRegions is the number of irreducible regions given a
	// dispatch header (cfg.MakeReducible, paper footnote 5).
	DispatchRegions int
	// Opt is set by every internal/opt run that edits the graph after
	// translation, the iterative switch elimination among them, and is
	// nil on a graph as translated. Vet then accepts a switch absent where the
	// minimal placement does not require one.
	Opt *OptCertificate
}

// Translate builds the dataflow graph for prog's CFG under the given
// options.
func Translate(g0 *cfg.Graph, opt Options) (*Result, error) { return TranslateEdited(g0, opt, nil) }

// TranslateEdited is Translate with a rewrite between emission and the
// graph: edit, unless nil, gets the editor the builder emitted into and
// the result, whose Graph is set once edit has returned. One graph is then
// materialised from the editor and validated, once — the optimizer's
// hand-over (opt.Edit).
func TranslateEdited(g0 *cfg.Graph, opt Options, edit func(*dfg.Editor, *Result) error) (*Result, error) {
	// Footnote 5: irreducible control flow is made reducible before the
	// interval decomposition, here by a dispatch header per region.
	g0, regions, err := cfg.MakeReducible(g0)
	if err != nil {
		return nil, err
	}
	g, loops, err := cfg.InsertLoopControl(g0)
	if err != nil {
		return nil, err
	}

	// Token universe, variable→token mapping, and the tokens that carry a
	// variable's value (token → variable; §6.1).
	prog := g.Prog
	tokensOf := map[string][]string{}
	var universe []string
	valueTokens := map[string]string{}
	switch opt.Schema {
	case Schema1:
		universe = []string{SingleTokenName}
		for _, v := range prog.AllNames() {
			tokensOf[v] = []string{SingleTokenName}
		}
		if opt.EliminateMemory {
			return nil, fmt.Errorf("translate: memory elimination requires per-variable tokens (Schema 2)")
		}
	case Schema2, Schema2Opt:
		universe = append(universe, prog.AllNames()...)
		sort.Strings(universe)
		for _, v := range prog.AllNames() {
			tokensOf[v] = []string{v}
		}
		if opt.EliminateMemory {
			as := analysis.NewAliasStructure(prog)
			for _, v := range prog.VarNames() {
				if len(as.Class(v)) == 1 {
					valueTokens[v] = v // v's token is v
				}
			}
		}
	case Schema3, Schema3Opt:
		as := analysis.NewAliasStructure(prog)
		cover := opt.Cover
		if cover == nil {
			cover = analysis.SingletonCover(as)
		}
		if regions > 0 && !slices.ContainsFunc(cover.Elements, func(e analysis.CoverElement) bool { return e.Vars[cfg.Selector] }) {
			// A cover drawn for the source program leaves out the
			// dispatch selector; it gets a token of its own.
			cover = &analysis.Cover{Elements: append(slices.Clip(cover.Elements),
				analysis.CoverElement{Name: cfg.Selector, Vars: map[string]bool{cfg.Selector: true}})}
		}
		if err := cover.Validate(as); err != nil {
			return nil, err
		}
		universe = cover.TokenNames()
		for _, v := range prog.AllNames() {
			tokensOf[v] = cover.AccessSet(as, v)
		}
		if opt.EliminateMemory {
			return nil, fmt.Errorf("translate: memory elimination is not defined for Schema 3 covers")
		}
	default:
		return nil, fmt.Errorf("translate: unknown schema %v", opt.Schema)
	}

	// §6.3: arrays with provably write-once stores and post-loop reads get
	// I-structure semantics — no access token at all.
	istructs := map[string]bool{}
	var istructList []string
	if opt.UseIStructures {
		if opt.Schema != Schema2 && opt.Schema != Schema2Opt {
			return nil, fmt.Errorf("translate: I-structures require per-variable tokens (Schema 2)")
		}
		istructList = FindIStructures(g, loops)
		for _, a := range istructList {
			istructs[a] = true
		}
		universe = slices.DeleteFunc(universe, func(tok string) bool { return istructs[tok] })
	}

	// §6.3: find loop/array pairs with provably independent stores, give
	// each a completion token line.
	var pstores []ParallelStore
	if opt.ParallelArrayStores {
		if opt.Schema == Schema1 {
			return nil, fmt.Errorf("translate: array store parallelization requires per-variable tokens")
		}
		for _, ps := range FindParallelStores(g, loops) {
			if istructs[ps.Array] {
				// Already tokenless; Figure 14's token duplication is moot.
				continue
			}
			pstores = append(pstores, ps)
			universe = append(universe, ps.DoneToken())
		}
		// Loops that parallelize stores to one array share its completion
		// line.
		sort.Strings(universe)
		universe = slices.Compact(universe)
	}

	nb, err := makeNeed(g, universe, tokensOf, pstores, istructs, nil)
	if err != nil {
		return nil, err
	}
	b := &builder{
		g:         g,
		loops:     loops,
		numbering: nb,
		value:     make([]bool, len(universe)),
		toks:      tableIDs(universe, universe),
		parReads:  opt.ParallelReads,
		pstores:   pstores,
		istructs:  istructs,
		out:       dfg.NewEditorFor(prog, universe),
	}
	for _, v := range valueTokens { // v's one token carries its value
		b.value[b.vars[v][0]] = true
	}
	if err := b.emit(opt.Schema == Schema2Opt || opt.Schema == Schema3Opt, edit != nil); err != nil {
		return nil, err
	}
	res := &Result{
		Options:         opt,
		CFG:             g,
		Loops:           loops,
		Plan:            b.plan,
		Universe:        universe,
		TokensOf:        tokensOf,
		ValueTokens:     valueTokens,
		ParallelStores:  pstores,
		IStructures:     istructList,
		DispatchRegions: regions,
	}
	if edit != nil {
		if err := edit(b.out, res); err != nil {
			return nil, err
		}
	}
	if res.Graph, err = b.out.Graph(); err == nil {
		err = res.Graph.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("translate: built an invalid graph: %w", err)
	}
	return res, nil
}

// numbering is a unit's tokens on ids: a token's id is its position in
// the unit's sorted universe.
type numbering struct {
	universe []string
	// need holds per CFG node the ids of the tokens a statement or fork
	// block consumes, ascending: the tokens of every variable it
	// references plus any §6.3 completion token attached to it.
	need analysis.Rows
	vars map[string][]int32 // per variable, the ids of its tokens
	done []int32            // per §6.3 parallelized store, the id of its completion token
}

// makeNeed numbers the tokens of a unit once: tokensOf becomes per
// variable id slices (I-structure arrays have none), and every node's need
// a row of ids. A node needs the union of the token sets of the variables
// it references, and a call statement those of the caller-side names
// bound gives it (separate compilation; nil elsewhere); statements
// carrying a §6.3-parallelized store additionally need the loop's
// completion token. The analyses and the builder all read the same rows.
func makeNeed(g *cfg.Graph, universe []string, tokensOf map[string][]string, pstores []ParallelStore, istructs map[string]bool, bound func(*cfg.Node) []string) (nb numbering, err error) {
	nb = numbering{universe: universe, vars: make(map[string][]int32, len(tokensOf))}
	var ids []int32 // the variables' ids, appended to one array
	for v, toks := range tokensOf {
		if !istructs[v] {
			from := len(ids)
			if ids, err = number(ids, universe, toks...); err != nil {
				return nb, err
			}
			nb.vars[v] = ids[from:len(ids):len(ids)]
		}
	}
	for _, ps := range pstores {
		if nb.done, err = number(nb.done, universe, ps.DoneToken()); err != nil {
			return nb, err
		}
	}
	nb.need = analysis.NewRows(g.Len(), 4*g.Len())
	var names []string
	for n, nd := range g.Nodes {
		for i, ps := range pstores {
			if ps.StoreStmt == n {
				nb.need.Add(nb.done[i])
			}
		}
		names = g.AppendRefs(names[:0], n)
		if nd.Kind == cfg.KindCall && bound != nil {
			names = append(names, bound(nd)...)
		}
		for _, v := range names {
			ids, ok := nb.vars[v]
			if !ok && !istructs[v] {
				return nb, fmt.Errorf("translate: %s at %s has no tokens", v, nd)
			}
			nb.need.Add(ids...)
		}
		nb.need.EndRow(n)
	}
	return nb, nil
}

// number appends to ids the ids of toks, their positions in the sorted
// universe.
func number(ids []int32, universe []string, toks ...string) ([]int32, error) {
	for _, tok := range toks {
		t, ok := slices.BinarySearch(universe, tok)
		if !ok {
			return nil, fmt.Errorf("translate: token %s is outside the universe", tok)
		}
		ids = append(ids, int32(t))
	}
	return ids, nil
}

// tableIDs returns the node Tok of each token of a unit's universe: its
// position in table, the sorted universes the graph's name table begins
// with, counted from 1.
func tableIDs(universe, table []string) []int32 {
	ids, _ := number(make([]int32, 0, len(universe)), table, universe...)
	for i := range ids {
		ids[i]++
	}
	return ids
}

// emit is the unit stage every translation unit runs, a program's or one
// procedure body of a separate compilation: it places switches (minimally
// for the optimized schemas, every token at every fork otherwise), routes
// the tokens under that placement, reserves the arc table for what the
// builder emits (and half as much again for the arcs a following edit
// appends: the optimizer's moves and fused operators add up to 0.43 times
// the arcs emitted over the workloads and generators) and builds, wiring
// the source vectors of Figure 11 as its walk computes them.
func (b *builder) emit(minimal, edited bool) error {
	var err error
	if minimal {
		if b.plan, err = analysis.PlaceWithLoopControl(b.g, b.loops, b.universe, b.need, analysis.Figure10); err != nil {
			return err
		}
	} else {
		b.plan = analysis.PlaceEverywhere(b.g, b.loops, b.universe, b.need)
	}
	if b.route, err = b.plan.Route(); err != nil {
		return err
	}
	arcs := b.arcEstimate()
	if edited {
		arcs += arcs / 2
	}
	b.out.ReserveArcs(len(b.out.Arcs) + arcs)
	return b.build()
}
