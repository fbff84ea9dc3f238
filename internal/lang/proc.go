package lang

import (
	"fmt"
	"strings"
)

// ProcDecl is a FORTRAN-style subroutine: scalar formal parameters passed
// by reference. Procedure bodies reference their formals and global
// variables; they declare nothing of their own (paper §5's SUBROUTINE
// F(X, Y, Z) setting).
type ProcDecl struct {
	Name   string
	Params []string
	Body   []Stmt
	Pos    Pos
}

// CallStmt invokes a procedure, passing declared scalar variables by
// reference. Passing the same variable (or aliased variables) in two
// argument positions aliases the corresponding formals.
type CallStmt struct {
	Proc string
	Args []string
	Pos  Pos
}

func (*CallStmt) stmtNode()       {}
func (s *CallStmt) Position() Pos { return s.Pos }
func (s *CallStmt) String() string {
	return fmt.Sprintf("call %s(%s)", s.Proc, strings.Join(s.Args, ", "))
}

// Procs returns the declared procedures of a program.
func (p *Program) Procs() []ProcDecl { return p.Procedures }

// Proc returns the procedure declared as name, or nil.
func (p *Program) Proc(name string) *ProcDecl {
	for i := range p.Procedures {
		if p.Procedures[i].Name == name {
			return &p.Procedures[i]
		}
	}
	return nil
}

// Reachable returns, in declaration order, the procedures some chain of
// calls from the body of from ("" for the main body) invokes.
func (p *Program) Reachable(from string) []string {
	callees := map[string][]string{}
	for _, cs := range p.Calls() {
		callees[cs.Caller] = append(callees[cs.Caller], cs.Call.Proc)
	}
	seen := map[string]bool{}
	var visit func(caller string)
	visit = func(caller string) {
		for _, c := range callees[caller] {
			if !seen[c] {
				seen[c] = true
				visit(c)
			}
		}
	}
	visit(from)
	var out []string
	for _, pr := range p.Procedures {
		if seen[pr.Name] {
			out = append(out, pr.Name)
		}
	}
	return out
}

// Calls collects every call statement in the program body (calls inside
// procedure bodies are also returned, annotated by the enclosing
// procedure's name; "" means the main body).
func (p *Program) Calls() []CallSite {
	var out []CallSite
	var walk func(in string, stmts []Stmt)
	walk = func(in string, stmts []Stmt) {
		for _, s := range stmts {
			switch x := s.(type) {
			case *CallStmt:
				out = append(out, CallSite{Caller: in, Call: x})
			case *If:
				walk(in, x.Then)
				walk(in, x.Else)
			case *While:
				walk(in, x.Body)
			}
		}
	}
	walk("", p.Body)
	for _, pr := range p.Procedures {
		walk(pr.Name, pr.Body)
	}
	return out
}

// CallSite is one call statement and its enclosing context.
type CallSite struct {
	Caller string // "" for the main body
	Call   *CallStmt
}

// Inline returns a procedure-free program equivalent to p: every call is
// expanded with formals substituted by the actual argument names
// (by-reference semantics) and labels made unique per expansion. The
// result is what the sequential oracle and all translation schemas
// consume; DeriveAliasStructures (package analysis) is how the paper's
// separate-compilation view recovers the aliasing this expansion resolves
// exactly.
func (p *Program) Inline() (*Program, error) {
	if len(p.Procedures) == 0 {
		return p, nil
	}
	procs := map[string]*ProcDecl{}
	for i := range p.Procedures {
		procs[p.Procedures[i].Name] = &p.Procedures[i]
	}
	if err := checkNoRecursion(p, procs); err != nil {
		return nil, err
	}
	inl := &inliner{procs: procs}
	body, err := inl.stmts(p.Body, nil)
	if err != nil {
		return nil, err
	}
	out := &Program{
		Vars:    append([]VarDecl(nil), p.Vars...),
		Arrays:  append([]ArrayDecl(nil), p.Arrays...),
		Aliases: append([]AliasDecl(nil), p.Aliases...),
		Body:    body,
	}
	if err := Check(out); err != nil {
		return nil, fmt.Errorf("lang: inlining produced an invalid program: %w", err)
	}
	return out, nil
}

// checkNoRecursion verifies the call graph is acyclic.
func checkNoRecursion(p *Program, procs map[string]*ProcDecl) error {
	adj := map[string][]string{}
	for _, cs := range p.Calls() {
		if cs.Caller != "" {
			adj[cs.Caller] = append(adj[cs.Caller], cs.Call.Proc)
		}
	}
	state := map[string]int{} // 0 unvisited, 1 in progress, 2 done
	var visit func(string) error
	visit = func(n string) error {
		switch state[n] {
		case 1:
			return fmt.Errorf("lang: recursive procedure %s (call graph cycle)", n)
		case 2:
			return nil
		}
		state[n] = 1
		for _, m := range adj[n] {
			if err := visit(m); err != nil {
				return err
			}
		}
		state[n] = 2
		return nil
	}
	for name := range procs {
		if err := visit(name); err != nil {
			return err
		}
	}
	return nil
}

type inliner struct {
	procs  map[string]*ProcDecl
	expand int // per-expansion label suffix counter
}

// stmts clones statements, applying the rename map (formal → actual).
func (il *inliner) stmts(in []Stmt, rename map[string]string) ([]Stmt, error) {
	var out []Stmt
	for _, s := range in {
		cloned, err := il.stmt(s, rename)
		if err != nil {
			return nil, err
		}
		out = append(out, cloned...)
	}
	return out, nil
}

func (il *inliner) stmt(s Stmt, rename map[string]string) ([]Stmt, error) {
	rn := func(name string) string {
		if to, ok := rename[name]; ok {
			return to
		}
		return name
	}
	rnLabel := func(name string) string {
		if to, ok := rename["label$"+name]; ok {
			return to
		}
		return name
	}
	switch x := s.(type) {
	case *Assign:
		return []Stmt{&Assign{Name: rn(x.Name), Expr: renameExpr(x.Expr, rename), Pos: x.Pos}}, nil
	case *ArrayAssign:
		return []Stmt{&ArrayAssign{Name: rn(x.Name), Index: renameExpr(x.Index, rename), Expr: renameExpr(x.Expr, rename), Pos: x.Pos}}, nil
	case *If:
		then, err := il.stmts(x.Then, rename)
		if err != nil {
			return nil, err
		}
		els, err := il.stmts(x.Else, rename)
		if err != nil {
			return nil, err
		}
		return []Stmt{&If{Cond: renameExpr(x.Cond, rename), Then: then, Else: els, Pos: x.Pos}}, nil
	case *While:
		body, err := il.stmts(x.Body, rename)
		if err != nil {
			return nil, err
		}
		return []Stmt{&While{Cond: renameExpr(x.Cond, rename), Body: body, Pos: x.Pos}}, nil
	case *Goto:
		return []Stmt{&Goto{Label: rnLabel(x.Label), Pos: x.Pos}}, nil
	case *CondGoto:
		return []Stmt{&CondGoto{Cond: renameExpr(x.Cond, rename), True: rnLabel(x.True), False: rnLabel(x.False), Pos: x.Pos}}, nil
	case *Label:
		return []Stmt{&Label{Name: rnLabel(x.Name), Pos: x.Pos}}, nil
	case *CallStmt:
		proc := il.procs[x.Proc]
		il.expand++
		sub := map[string]string{}
		for i, f := range proc.Params {
			actual := x.Args[i]
			if to, ok := rename[actual]; ok {
				actual = to
			}
			sub[f] = actual
		}
		// Labels inside the body get a unique suffix per expansion.
		suffix := fmt.Sprintf("%s$%d", x.Proc, il.expand)
		collectBodyLabels(proc.Body, suffix, sub)
		return il.stmts(proc.Body, sub)
	}
	return nil, fmt.Errorf("lang: cannot inline statement %T", s)
}

// collectBodyLabels adds label renames ("label$<name>" → "<name>$<suffix>")
// for every label declared in the body.
func collectBodyLabels(stmts []Stmt, suffix string, sub map[string]string) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *Label:
			sub["label$"+x.Name] = x.Name + "_" + suffix
		case *If:
			collectBodyLabels(x.Then, suffix, sub)
			collectBodyLabels(x.Else, suffix, sub)
		case *While:
			collectBodyLabels(x.Body, suffix, sub)
		}
	}
}

// renameExpr clones an expression applying the rename map.
func renameExpr(e Expr, rename map[string]string) Expr {
	rn := func(name string) string {
		if to, ok := rename[name]; ok {
			return to
		}
		return name
	}
	switch x := e.(type) {
	case *IntLit:
		return &IntLit{Value: x.Value, Pos: x.Pos}
	case *VarRef:
		return &VarRef{Name: rn(x.Name), Pos: x.Pos}
	case *IndexRef:
		return &IndexRef{Name: rn(x.Name), Index: renameExpr(x.Index, rename), Pos: x.Pos}
	case *BinExpr:
		return &BinExpr{Op: x.Op, L: renameExpr(x.L, rename), R: renameExpr(x.R, rename), Pos: x.Pos}
	case *UnExpr:
		return &UnExpr{Op: x.Op, X: renameExpr(x.X, rename), Pos: x.Pos}
	}
	return e
}
