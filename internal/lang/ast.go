// Package lang implements the small imperative source language that the
// translation schemas start from: scalar and array variables, assignments,
// structured if/while, unstructured goto/label control flow, and declared
// alias classes standing in for FORTRAN-style reference-parameter aliasing
// (paper §2.1, §5).
package lang

import (
	"fmt"
	"strings"
)

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Program is a parsed source program: declarations (variables, arrays,
// aliases, procedures) followed by the main statement list.
type Program struct {
	Vars       []VarDecl
	Arrays     []ArrayDecl
	Aliases    []AliasDecl
	Procedures []ProcDecl
	Body       []Stmt
}

// VarDecl declares a scalar integer variable.
type VarDecl struct {
	Name string
	Pos  Pos
}

// ArrayDecl declares a fixed-size integer array.
type ArrayDecl struct {
	Name string
	Size int
	Pos  Pos
}

// AliasDecl declares that two variables may refer to the same storage
// location (paper Definition 6: the alias relation is reflexive and
// symmetric; it is NOT transitively closed — X~Z and Y~Z do not imply X~Y).
type AliasDecl struct {
	A, B string
	Pos  Pos
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	Position() Pos
	String() string
}

// Assign is "x := e".
type Assign struct {
	Name string
	Expr Expr
	Pos  Pos
}

// ArrayAssign is "a[i] := e".
type ArrayAssign struct {
	Name  string
	Index Expr
	Expr  Expr
	Pos   Pos
}

// If is a structured conditional with optional else branch.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// While is a structured loop.
type While struct {
	Cond Expr
	Body []Stmt
	Pos  Pos
}

// Goto is an unconditional jump to a label.
type Goto struct {
	Label string
	Pos   Pos
}

// CondGoto is the paper's fork statement: "if p then goto lt else goto lf".
type CondGoto struct {
	Cond        Expr
	True, False string
	Pos         Pos
}

// Label marks a join point that gotos may target.
type Label struct {
	Name string
	Pos  Pos
}

func (*Assign) stmtNode()      {}
func (*ArrayAssign) stmtNode() {}
func (*If) stmtNode()          {}
func (*While) stmtNode()       {}
func (*Goto) stmtNode()        {}
func (*CondGoto) stmtNode()    {}
func (*Label) stmtNode()       {}

func (s *Assign) Position() Pos      { return s.Pos }
func (s *ArrayAssign) Position() Pos { return s.Pos }
func (s *If) Position() Pos          { return s.Pos }
func (s *While) Position() Pos       { return s.Pos }
func (s *Goto) Position() Pos        { return s.Pos }
func (s *CondGoto) Position() Pos    { return s.Pos }
func (s *Label) Position() Pos       { return s.Pos }

func (s *Assign) String() string { return fmt.Sprintf("%s := %s", s.Name, s.Expr) }
func (s *ArrayAssign) String() string {
	return fmt.Sprintf("%s[%s] := %s", s.Name, s.Index, s.Expr)
}
func (s *If) String() string    { return fmt.Sprintf("if %s { ... }", s.Cond) }
func (s *While) String() string { return fmt.Sprintf("while %s { ... }", s.Cond) }
func (s *Goto) String() string  { return "goto " + s.Label }
func (s *CondGoto) String() string {
	return fmt.Sprintf("if %s then goto %s else goto %s", s.Cond, s.True, s.False)
}
func (s *Label) String() string { return s.Name + ":" }

// Op identifies a binary or unary operator.
type Op uint8

// Binary and unary operators of the expression language.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpAnd
	OpOr
	OpNeg // unary minus
	OpNot // unary logical not
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=", OpEq: "==", OpNe: "!=",
	OpAnd: "&&", OpOr: "||", OpNeg: "-", OpNot: "!",
}

func (o Op) String() string { return opNames[o] }

// IsComparison reports whether the operator yields a boolean (0/1) result.
func (o Op) IsComparison() bool {
	switch o {
	case OpLt, OpLe, OpGt, OpGe, OpEq, OpNe:
		return true
	}
	return false
}

// Expr is an expression node.
type Expr interface {
	exprNode()
	Position() Pos
	String() string
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   Pos
}

// VarRef reads a scalar variable.
type VarRef struct {
	Name string
	Pos  Pos
}

// IndexRef reads an array element, "a[i]".
type IndexRef struct {
	Name  string
	Index Expr
	Pos   Pos
}

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   Op
	L, R Expr
	Pos  Pos
}

// UnExpr applies a unary operator.
type UnExpr struct {
	Op  Op
	X   Expr
	Pos Pos
}

func (*IntLit) exprNode()   {}
func (*VarRef) exprNode()   {}
func (*IndexRef) exprNode() {}
func (*BinExpr) exprNode()  {}
func (*UnExpr) exprNode()   {}

func (e *IntLit) Position() Pos   { return e.Pos }
func (e *VarRef) Position() Pos   { return e.Pos }
func (e *IndexRef) Position() Pos { return e.Pos }
func (e *BinExpr) Position() Pos  { return e.Pos }
func (e *UnExpr) Position() Pos   { return e.Pos }

func (e *IntLit) String() string   { return fmt.Sprintf("%d", e.Value) }
func (e *VarRef) String() string   { return e.Name }
func (e *IndexRef) String() string { return fmt.Sprintf("%s[%s]", e.Name, e.Index) }
func (e *BinExpr) String() string  { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (e *UnExpr) String() string   { return fmt.Sprintf("%s%s", e.Op, e.X) }

// AppendReads appends to dst the names of the variables (scalar and
// array) that expression e reads, in the order met and as often as met.
func AppendReads(dst []string, e Expr) []string {
	switch x := e.(type) {
	case *IntLit:
	case *VarRef:
		dst = append(dst, x.Name)
	case *IndexRef:
		dst = AppendReads(append(dst, x.Name), x.Index)
	case *BinExpr:
		dst = AppendReads(AppendReads(dst, x.L), x.R)
	case *UnExpr:
		dst = AppendReads(dst, x.X)
	}
	return dst
}

// Format renders the program in parseable source form.
func (p *Program) Format() string {
	var b strings.Builder
	for _, v := range p.Vars {
		fmt.Fprintf(&b, "var %s\n", v.Name)
	}
	for _, a := range p.Arrays {
		fmt.Fprintf(&b, "array %s[%d]\n", a.Name, a.Size)
	}
	for _, al := range p.Aliases {
		fmt.Fprintf(&b, "alias %s ~ %s\n", al.A, al.B)
	}
	for _, pr := range p.Procedures {
		fmt.Fprintf(&b, "proc %s(%s) {\n", pr.Name, strings.Join(pr.Params, ", "))
		formatStmts(&b, pr.Body, 1)
		fmt.Fprintf(&b, "}\n")
	}
	formatStmts(&b, p.Body, 0)
	return b.String()
}

func formatStmts(b *strings.Builder, stmts []Stmt, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, s := range stmts {
		switch x := s.(type) {
		case *If:
			fmt.Fprintf(b, "%sif %s {\n", indent, x.Cond)
			formatStmts(b, x.Then, depth+1)
			if len(x.Else) > 0 {
				fmt.Fprintf(b, "%s} else {\n", indent)
				formatStmts(b, x.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", indent)
		case *While:
			fmt.Fprintf(b, "%swhile %s {\n", indent, x.Cond)
			formatStmts(b, x.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", indent)
		case *Label:
			fmt.Fprintf(b, "%s%s:\n", indent, x.Name)
		default:
			fmt.Fprintf(b, "%s%s\n", indent, s)
		}
	}
}
