package translate

import (
	"fmt"
	"slices"
	"sort"

	"ctdf/internal/analysis"
	"ctdf/internal/cfg"
	"ctdf/internal/dfg"
	"ctdf/internal/lang"
)

// TranslateLinked compiles prog with separate procedure compilation. The
// main body and every procedure body it reaches is one translation unit,
// run through the unit stage Translate runs (builder.emit) into one shared
// editor, under the optimized construction and, for a procedure, the alias
// structure its call sites induce (DeriveAliasStructures). Call sites
// become Apply nodes linked to the body's Param and ProcReturn nodes, and
// each dynamic call executes the shared body under a fresh activation
// frame (paper §2.2: "each invocation of a procedure ... gets an
// activation context"). The Result holds the graph, the main unit's token
// universe and no value tokens: the §6 transformations do not apply.
func TranslateLinked(prog *lang.Program) (*Result, error) {
	res, _, err := translateLinked(prog)
	return res, err
}

// translateLinked is TranslateLinked, also returning the units' builders
// in emission order.
func translateLinked(prog *lang.Program) (*Result, []*builder, error) {
	if len(prog.Procs()) == 0 {
		return nil, nil, fmt.Errorf("translate: no procedures to compile separately")
	}
	derived, err := analysis.DeriveAliasStructures(prog)
	if err != nil {
		return nil, nil, err
	}

	// Only procedures reachable from the main body are compiled (an
	// uncalled body would have no call sites to feed its Param nodes).
	order := append([]string{""}, prog.Reachable("")...)
	if len(order) == 1 {
		return nil, nil, fmt.Errorf("translate: no procedure is ever called")
	}
	reach := map[string][]string{}
	units := map[string]*cfg.Graph{}
	for _, name := range order {
		body := prog.Body
		if name != "" {
			body = prog.Proc(name).Body
			reach[name] = prog.Reachable(name)
		}
		g, err := cfg.BuildSeparate(prog, body)
		if err != nil {
			return nil, nil, fmt.Errorf("translate: unit %q: %w", name, err)
		}
		units[name] = g
	}
	reach[""] = order[1:]
	// Footnote 5, as in Translate. A dispatch header's selector is one
	// more global, declared on the program every unit then reads.
	for _, name := range order {
		ug, regions, err := cfg.MakeReducible(units[name])
		if err != nil {
			return nil, nil, err
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

	// A unit's own names are its formals and every name it references or
	// passes; its universe adds the globals of every procedure it reaches.
	// Main's covers every declared name (unused tokens flow straight to
	// end, matching the inlined translations).
	own := map[string][]string{} // sorted, each once
	for _, name := range order {
		var names []string
		if name != "" {
			names = append(names, prog.Proc(name).Params...)
		}
		ug := units[name]
		for id, n := range ug.Nodes {
			names = append(ug.RefSet(names, id), n.Args...)
		}
		slices.Sort(names)
		own[name] = slices.Compact(names)
	}
	universe := map[string][]string{}
	for _, name := range order {
		names := slices.Clone(own[name])
		for _, callee := range reach[name] {
			for _, v := range own[callee] {
				if globals[v] {
					names = append(names, v)
				}
			}
		}
		if name == "" {
			names = append(names, prog.AllNames()...)
		}
		slices.Sort(names)
		universe[name] = slices.Compact(names)
	}

	// A call consumes, for every token of its callee, the caller-side
	// tokens of the name bound to it.
	bound := func(n *cfg.Node) []string {
		params := prog.Proc(n.Proc).Params
		names := slices.Clone(universe[n.Proc])
		for i, v := range names {
			if k := slices.Index(params, v); k >= 0 {
				names[i] = n.Args[k]
			}
		}
		return names
	}
	// The graph's name table begins with the units' universes merged.
	var table []string
	for _, name := range order {
		table = append(table, universe[name]...)
	}
	slices.Sort(table)
	table = slices.Compact(table)
	mainAlias := analysis.NewAliasStructure(prog)
	out := dfg.NewEditorFor(prog, table)
	built, emitted := map[string]*builder{}, []*builder{}
	for _, name := range order {
		ug, loops, err := cfg.InsertLoopControl(units[name])
		if err != nil {
			return nil, nil, err
		}
		// A name's tokens are its alias class within the unit's universe
		// (the singleton cover).
		as := derived[name]
		if name == "" {
			as = mainAlias
		}
		tokensOf := map[string][]string{}
		for _, v := range universe[name] {
			for _, m := range as.Class(v) {
				if _, ok := slices.BinarySearch(universe[name], m); ok {
					tokensOf[v] = append(tokensOf[v], m)
				}
			}
			if len(tokensOf[v]) == 0 {
				tokensOf[v] = []string{v}
			}
		}
		nb, err := makeNeed(ug, universe[name], tokensOf, nil, nil, bound)
		if err != nil {
			return nil, nil, fmt.Errorf("translate: unit %q: %w", name, err)
		}
		b := &builder{
			g: ug, loops: loops, numbering: nb, value: make([]bool, len(nb.universe)), toks: tableIDs(nb.universe, table), out: out,
			procMode: name != "", procName: name,
			calleeArity: func(proc string) int { return len(universe[proc]) },
		}
		if err := b.emit(true, false); err != nil {
			return nil, nil, fmt.Errorf("translate: unit %q: %w", name, err)
		}
		built[name], emitted = b, append(emitted, b)
	}

	// Link every call site to its callee.
	var calls []dfg.CallInfo
	for _, name := range order {
		for _, pc := range built[name].pendingCalls {
			callee := built[pc.proc]
			info := dfg.CallInfo{
				Apply:    pc.apply,
				Proc:     pc.proc,
				InTokens: pc.inTokens,
				Return:   callee.returnNode,
				Bindings: pc.bindings,
			}
			for j, pn := range callee.paramNodes {
				info.Params = append(info.Params, pn)
				out.AddArc(dfg.Arc{From: pc.apply, FromPort: int32(len(pc.inTokens) + j), To: pn, Dummy: true})
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
		return nil, nil, fmt.Errorf("translate: linked graph invalid: %w", err)
	}
	return &Result{Graph: linked, Universe: universe[""], ValueTokens: map[string]string{}}, emitted, nil
}
