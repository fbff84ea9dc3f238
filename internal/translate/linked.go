package translate

import (
	"fmt"
	"sort"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/lang"
)

// LinkedResult is the outcome of separate compilation: one dataflow graph
// in which every procedure body appears once, call sites are Apply nodes,
// and each dynamic call executes the shared body under a fresh activation
// frame (paper §2.2: "each invocation of a procedure ... gets an
// activation context").
type LinkedResult struct {
	Graph *dfg.Graph
	// MainUniverse is the main unit's access-token universe; the graph's
	// end node collects it.
	MainUniverse []string
	// ProcUniverse maps each procedure to its token universe (formals plus
	// the globals it may touch, transitively).
	ProcUniverse map[string][]string
	// ValueTokens is always empty in linked mode (the §6 transformations
	// are not applied); present so FinalSnapshot-style helpers compose.
	ValueTokens map[string]string
}

// TranslateLinked compiles prog with separate procedure compilation: each
// procedure body is translated once — under the optimized construction
// with the alias structure its call sites induce (DeriveAliasStructures) —
// and linked to its call sites with Apply/Param/ProcReturn nodes. The §6
// transformations do not apply in this mode.
func TranslateLinked(prog *lang.Program) (*LinkedResult, error) {
	if len(prog.Procs()) == 0 {
		return nil, fmt.Errorf("translate: no procedures to compile separately")
	}
	derived, err := analysis.DeriveAliasStructures(prog)
	if err != nil {
		return nil, err
	}

	// Only procedures reachable from the main body are compiled (an
	// uncalled body would have no call sites to feed its Param nodes).
	called := map[string]bool{}
	var markCalled func(stmts []lang.Stmt)
	byName := map[string]*lang.ProcDecl{}
	procsList := prog.Procs()
	for i := range procsList {
		byName[procsList[i].Name] = &procsList[i]
	}
	markCalled = func(stmts []lang.Stmt) {
		for _, s := range stmts {
			switch x := s.(type) {
			case *lang.CallStmt:
				if !called[x.Proc] {
					called[x.Proc] = true
					markCalled(byName[x.Proc].Body)
				}
			case *lang.If:
				markCalled(x.Then)
				markCalled(x.Else)
			case *lang.While:
				markCalled(x.Body)
			}
		}
	}
	markCalled(prog.Body)
	if len(called) == 0 {
		return nil, fmt.Errorf("translate: no procedure is ever called")
	}

	// Per-unit CFGs ("" = main).
	units := map[string]*cfg.Graph{}
	order := []string{""}
	g, err := cfg.BuildSeparate(prog, prog.Body)
	if err != nil {
		return nil, err
	}
	units[""] = g
	for _, pr := range prog.Procs() {
		if !called[pr.Name] {
			continue
		}
		pg, err := cfg.BuildSeparate(prog, pr.Body)
		if err != nil {
			return nil, fmt.Errorf("translate: procedure %s: %w", pr.Name, err)
		}
		units[pr.Name] = pg
		order = append(order, pr.Name)
	}
	// Footnote 5, as in Translate. A dispatch header's selector is one
	// more global, declared on the program every unit then reads.
	for _, name := range order {
		ug, regions, err := cfg.MakeReducible(units[name])
		if err != nil {
			return nil, err
		}
		if regions > 0 {
			prog = ug.Prog
		}
		units[name] = ug
	}
	globals := map[string]bool{}
	for _, n := range prog.AllNames() {
		globals[n] = true
	}

	// Universes: formals plus transitively touched globals; the call graph
	// is acyclic, so iterate to a fixpoint.
	universe := map[string]map[string]bool{}
	for name, ug := range units {
		set := map[string]bool{}
		for _, f := range procParams(prog, name) {
			set[f] = true
		}
		for id := range ug.Nodes {
			n := ug.Nodes[id]
			for v := range ug.Refs(id) {
				set[v] = true
			}
			if n.Kind == cfg.KindCall {
				for _, a := range n.Args {
					set[a] = true
				}
			}
		}
		universe[name] = set
	}
	for changed := true; changed; {
		changed = false
		for name, ug := range units {
			for id := range ug.Nodes {
				n := ug.Nodes[id]
				if n.Kind != cfg.KindCall {
					continue
				}
				for v := range universe[n.Proc] {
					if globals[v] && !universe[name][v] {
						universe[name][v] = true
						changed = true
					}
				}
			}
		}
	}
	// Main's universe covers every declared name (unused tokens flow
	// straight to end, matching the inlined translations).
	for _, n := range prog.AllNames() {
		universe[""][n] = true
	}

	sortedUniverse := map[string][]string{}
	for name, set := range universe {
		sortedUniverse[name] = sortedTokens(set)
	}

	// Per-unit alias structure and singleton-cover token mapping.
	mainAlias := analysis.NewAliasStructure(prog)
	classOf := func(unit, name string) []string {
		var as *analysis.AliasStructure
		if unit == "" {
			as = mainAlias
		} else {
			as = derived[unit]
		}
		var out []string
		for _, m := range as.Class(name) {
			if universe[unit][m] {
				out = append(out, m)
			}
		}
		if len(out) == 0 {
			out = []string{name}
		}
		return out
	}

	out := dfg.NewEditorFor(prog)
	type unitExports struct {
		params  map[string]int
		ret     int
		pending []*pendingCall
	}
	exports := map[string]*unitExports{}

	for _, name := range order {
		ug, loops, err := cfg.InsertLoopControl(units[name])
		if err != nil {
			return nil, err
		}
		unit := name
		tokensOf := map[string][]string{}
		for v := range universe[unit] {
			tokensOf[v] = classOf(unit, v)
		}
		// A call consumes, for every token of its callee, the caller-side
		// tokens of the bound name.
		callNeed := func(id int) []string {
			n := ug.Nodes[id]
			bind := map[string]string{}
			for i, f := range procParams(prog, n.Proc) {
				bind[f] = n.Args[i]
			}
			set := map[string]bool{}
			for _, ct := range sortedUniverse[n.Proc] {
				caller := ct
				if b, ok := bind[ct]; ok {
					caller = b
				}
				for _, tok := range tokensOf[caller] {
					set[tok] = true
				}
			}
			return sortedTokens(set)
		}
		need := func(id int) []string {
			if ug.Nodes[id].Kind == cfg.KindCall {
				return callNeed(id)
			}
			set := map[string]bool{}
			for v := range ug.Refs(id) {
				for _, tok := range tokensOf[v] {
					set[tok] = true
				}
			}
			return sortedTokens(set)
		}

		cd := analysis.ComputeControlDeps(ug)
		extNeed, placement := placeWithLoopControl(ug, loops, cd, need)
		sv, err := analysis.ComputeSourceVectors(ug, loops, sortedUniverse[unit], extNeed, placement)
		if err != nil {
			return nil, fmt.Errorf("translate: unit %q: %w", unit, err)
		}
		b := &builder{
			g: ug, loops: loops, need: need, sv: sv, placement: placement,
			tokensOf: tokensOf, universe: sortedUniverse[unit],
			valueTokens: map[string]string{},
			istructs:    map[string]bool{},
			out:         out,
			procMode:    unit != "",
			procName:    unit,
			callNeed:    callNeed,
			calleeArity: func(proc string) int { return len(sortedUniverse[proc]) },
		}
		if err := b.build(); err != nil {
			return nil, fmt.Errorf("translate: unit %q: %w", unit, err)
		}
		exports[unit] = &unitExports{params: b.paramNodes, ret: b.returnNode, pending: b.pendingCalls}
	}

	// Link every call site to its callee.
	var calls []dfg.CallInfo
	for _, name := range order {
		for _, pc := range exports[name].pending {
			callee := exports[pc.proc]
			toks := sortedUniverse[pc.proc]
			info := dfg.CallInfo{
				Apply:    pc.apply,
				Proc:     pc.proc,
				InTokens: pc.inTokens,
				Return:   callee.ret,
				Bindings: pc.bindings,
			}
			for j, tok := range toks {
				pn, ok := callee.params[tok]
				if !ok {
					return nil, fmt.Errorf("translate: callee %s has no param node for token %s", pc.proc, tok)
				}
				info.Params = append(info.Params, pn)
				out.AddArc(dfg.Arc{From: pc.apply, FromPort: len(pc.inTokens) + j, To: pn, Dummy: true})
			}
			calls = append(calls, info)
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].Apply < calls[j].Apply })

	linked, err := out.Graph()
	if err == nil {
		linked.Calls = calls
		err = linked.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("translate: linked graph invalid: %w", err)
	}
	return &LinkedResult{
		Graph:        linked,
		MainUniverse: sortedUniverse[""],
		ProcUniverse: sortedUniverse,
		ValueTokens:  map[string]string{},
	}, nil
}
