package analysis

import (
	"fmt"
	"sort"

	"ctdf/internal/interp"
	"ctdf/internal/lang"
)

// DeriveAliasStructures computes, for every procedure, the alias structure
// its formals inherit from the program's call sites — the paper's §5
// example:
//
//	SUBROUTINE F(X, Y, Z)
//	CALL F(A, B, A)   → X ~ Z
//	CALL F(C, D, D)   → Y ~ Z
//
// giving [X]={X,Z}, [Y]={Y,Z}, [Z]={X,Y,Z} with X and Y NOT aliased (the
// relation is not transitive). Two formals may alias when some call passes
// the same variable — or two variables that may themselves alias — in
// their positions; aliasing propagates through nested calls (a caller's
// formals carry their own derived relation into the callee). A formal also
// aliases every global variable that may be passed in its position, since
// the body can name that global directly.
//
// The returned structure for procedure F ranges over F's formals plus all
// global scalars; global-global pairs keep the program's declared
// relation.
func DeriveAliasStructures(prog *lang.Program) (map[string]*AliasStructure, error) {
	procs := map[string]*lang.ProcDecl{}
	for i := range prog.Procedures {
		procs[prog.Procedures[i].Name] = &prog.Procedures[i]
	}
	globals := map[string]bool{}
	for _, v := range prog.Vars {
		globals[v.Name] = true
	}

	// may[context][a][b]: names a, b may denote one location in that
	// context ("" = main). Seed the main context with declared aliases.
	may := map[string]map[[2]string]bool{}
	relate := func(ctx, a, b string) {
		if may[ctx] == nil {
			may[ctx] = map[[2]string]bool{}
		}
		may[ctx][[2]string{a, b}] = true
		may[ctx][[2]string{b, a}] = true
	}
	related := func(ctx, a, b string) bool {
		return a == b || may[ctx][[2]string{a, b}]
	}
	for _, al := range prog.Aliases {
		relate("", al.A, al.B)
	}

	// Propagate caller relations to callees in call-graph topological
	// order (callers first). The call graph is acyclic (checked by the
	// front end); iterate to a fixpoint for simplicity.
	sites := prog.Calls()
	for changed := true; changed; {
		changed = false
		for _, cs := range sites {
			pr, ok := procs[cs.Call.Proc]
			if !ok {
				return nil, fmt.Errorf("analysis: call of unknown procedure %s", cs.Call.Proc)
			}
			ctx := cs.Caller
			callee := pr.Name
			for i, fi := range pr.Params {
				ai := cs.Call.Args[i]
				// Formal/formal pairs.
				for j := i + 1; j < len(pr.Params); j++ {
					aj := cs.Call.Args[j]
					if related(ctx, ai, aj) && !related(callee, fi, pr.Params[j]) {
						relate(callee, fi, pr.Params[j])
						changed = true
					}
				}
				// Formal/global pairs: the argument is (or may alias) a
				// global the body could name directly.
				for g := range globals {
					if related(ctx, ai, g) && !related(callee, fi, g) {
						relate(callee, fi, g)
						changed = true
					}
				}
			}
		}
	}

	out := map[string]*AliasStructure{}
	for name, pr := range procs {
		vars := append([]string(nil), pr.Params...)
		for g := range globals {
			vars = append(vars, g)
		}
		sort.Strings(vars)
		a := &AliasStructure{rel: map[string]map[string]bool{}}
		a.vars = vars
		for _, v := range vars {
			a.rel[v] = map[string]bool{v: true}
		}
		for pair := range may[name] {
			if a.rel[pair[0]] != nil && a.rel[pair[1]] != nil {
				a.rel[pair[0]][pair[1]] = true
			}
		}
		// Globals keep their declared relation inside the body too.
		for _, al := range prog.Aliases {
			if a.rel[al.A] != nil && a.rel[al.B] != nil {
				a.rel[al.A][al.B] = true
				a.rel[al.B][al.A] = true
			}
		}
		out[name] = a
	}
	return out, nil
}

// StandaloneProc builds the "separate compilation" view of a procedure:
// a program whose variables are the formals plus the globals, whose alias
// declarations come from the derived alias structure, and whose body is
// the procedure body. Translating it under Schema 3 yields one dataflow
// graph that is correct under the binding induced by any call site.
func StandaloneProc(prog *lang.Program, name string, derived *AliasStructure) (*lang.Program, error) {
	pr := prog.Proc(name)
	if pr == nil {
		return nil, fmt.Errorf("analysis: no procedure %s", name)
	}
	out := &lang.Program{Body: pr.Body}
	// Nested calls inside the body still resolve: carry the declarations
	// of the procedures it reaches along (they inline when the standalone
	// view is compiled). The subject procedure is not among them — its
	// formals become the standalone program's variables.
	for _, callee := range prog.Reachable(name) {
		out.Procedures = append(out.Procedures, *prog.Proc(callee))
	}
	for _, f := range pr.Params {
		out.Vars = append(out.Vars, lang.VarDecl{Name: f})
	}
	for _, v := range prog.Vars {
		out.Vars = append(out.Vars, lang.VarDecl{Name: v.Name})
	}
	out.Arrays = append(out.Arrays, prog.Arrays...)
	seen := map[[2]string]bool{}
	for _, a := range derived.vars {
		for _, b := range derived.Class(a) {
			if a >= b || seen[[2]string{a, b}] {
				continue
			}
			seen[[2]string{a, b}] = true
			out.Aliases = append(out.Aliases, lang.AliasDecl{A: a, B: b})
		}
	}
	if err := lang.Check(out); err != nil {
		return nil, fmt.Errorf("analysis: standalone %s: %w", name, err)
	}
	return out, nil
}

// CallBinding returns the alias binding a particular call site induces on
// the standalone view of its callee: formals passed the same actual share
// a location (and share it with that actual's global name when the actual
// is a global).
func CallBinding(prog *lang.Program, call *lang.CallStmt) (interp.Binding, error) {
	pr := prog.Proc(call.Proc)
	if pr == nil {
		return nil, fmt.Errorf("analysis: no procedure %s", call.Proc)
	}
	globals := map[string]bool{}
	for _, v := range prog.Vars {
		globals[v.Name] = true
	}
	b := interp.Binding{}
	for i, f := range pr.Params {
		a := call.Args[i]
		if globals[a] {
			// Bind the formal to the global's own cell.
			b[f] = a
		} else {
			// Caller-formal actual: group callee formals by actual name.
			b[f] = "arg$" + a
		}
	}
	// Canonicalize groups whose representative is a synthetic arg$ name to
	// the first member.
	rep := map[string]string{}
	for _, f := range pr.Params {
		c := b[f]
		if globals[c] {
			continue
		}
		if r, ok := rep[c]; ok {
			b[f] = r
		} else {
			rep[c] = f
			b[f] = f
		}
	}
	return b, nil
}
