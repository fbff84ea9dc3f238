package lang

import (
	"fmt"
)

// Parse parses source text into a Program and checks it (undeclared
// variables, unknown labels, duplicate declarations).
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	p.lex.next(&p.tok)
	p.lex.next(&p.nxt)
	prog, err := p.parseProgram()
	if err != nil {
		// A lexical error anywhere in the text wins over a parse error:
		// scan the rest for one.
		for p.lex.err == nil && p.nxt.kind != tokEOF {
			p.lex.next(&p.nxt)
		}
	}
	if p.lex.err != nil {
		return nil, p.lex.err
	}
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse, panicking on error; for tests and fixed fixtures.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// parser reads the lexer through a two-token window: tok, the current
// token, and nxt, the one after it (the parser's only lookahead). The
// AST's most frequent nodes and its statement lists are carved from
// chunks, so a program costs an allocation per chunk, not per node.
type parser struct {
	lex      lexer
	tok, nxt token

	stack  []Stmt // the statement lists being parsed, innermost last
	lists  chunk[Stmt]
	vars   chunk[VarRef]
	ints   chunk[IntLit]
	bins   chunk[BinExpr]
	assign chunk[Assign]
}

// chunk hands out the elements of a backing array it replaces when used
// up; each next chunk is twice the last, up to maxChunk elements.
type chunk[T any] struct {
	free []T
	size int
}

const maxChunk = 256

func (c *chunk[T]) grow(n int) {
	c.size = min(max(2*c.size, 8), maxChunk)
	c.free = make([]T, max(c.size, n))
}

func (c *chunk[T]) new() *T {
	if len(c.free) == 0 {
		c.grow(1)
	}
	x := &c.free[0]
	c.free = c.free[1:]
	return x
}

// slice returns n elements, capped at n so that an append to the result
// cannot reach into the next.
func (c *chunk[T]) slice(n int) []T {
	if len(c.free) < n {
		c.grow(n)
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

func (p *parser) advance() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok = p.nxt
		p.lex.next(&p.nxt)
	}
	return t
}

// text is t's text, a substring of the source.
func (p *parser) text(t token) string { return p.lex.src[t.start:t.end] }

// show names t in an error message.
func (p *parser) show(t token) string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", p.text(t))
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("lang: %s: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errorf("expected %s, found %s", what, p.show(p.tok))
	}
	return p.advance(), nil
}

func (p *parser) isKeyword(kw string) bool { return p.tok.kind == tokKeyword && p.text(p.tok) == kw }

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errorf("expected %q, found %s", kw, p.show(p.tok))
	}
	p.advance()
	return nil
}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	// Declarations come first.
	for p.tok.kind == tokKeyword {
		switch p.text(p.tok) {
		case "var":
			pos := p.advance().pos
			for {
				id, err := p.expect(tokIdent, "variable name")
				if err != nil {
					return nil, err
				}
				prog.Vars = append(prog.Vars, VarDecl{Name: p.text(id), Pos: pos})
				if p.tok.kind != tokComma {
					break
				}
				p.advance()
			}
		case "array":
			pos := p.advance().pos
			for {
				id, err := p.expect(tokIdent, "array name")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokLBracket, "'['"); err != nil {
					return nil, err
				}
				sz, err := p.expect(tokInt, "array size")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokRBracket, "']'"); err != nil {
					return nil, err
				}
				if sz.val <= 0 {
					return nil, fmt.Errorf("lang: %s: array %s has non-positive size %d", sz.pos, p.text(id), sz.val)
				}
				prog.Arrays = append(prog.Arrays, ArrayDecl{Name: p.text(id), Size: int(sz.val), Pos: pos})
				if p.tok.kind != tokComma {
					break
				}
				p.advance()
			}
		case "alias":
			pos := p.advance().pos
			a, err := p.expect(tokIdent, "variable name")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokTilde, "'~'"); err != nil {
				return nil, err
			}
			b, err := p.expect(tokIdent, "variable name")
			if err != nil {
				return nil, err
			}
			prog.Aliases = append(prog.Aliases, AliasDecl{A: p.text(a), B: p.text(b), Pos: pos})
		case "proc":
			pos := p.advance().pos
			name, err := p.expect(tokIdent, "procedure name")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLParen, "'('"); err != nil {
				return nil, err
			}
			var params []string
			if p.tok.kind != tokRParen {
				for {
					id, err := p.expect(tokIdent, "parameter name")
					if err != nil {
						return nil, err
					}
					params = append(params, p.text(id))
					if p.tok.kind != tokComma {
						break
					}
					p.advance()
				}
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLBrace, "'{'"); err != nil {
				return nil, err
			}
			body, err := p.parseStmts(tokRBrace)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBrace, "'}'"); err != nil {
				return nil, err
			}
			prog.Procedures = append(prog.Procedures, ProcDecl{Name: p.text(name), Params: params, Body: body, Pos: pos})
		default:
			// Start of the statement list.
			goto body
		}
	}
body:
	body, err := p.parseStmts(tokEOF)
	if err != nil {
		return nil, err
	}
	prog.Body = body
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %s", p.show(p.tok))
	}
	return prog, nil
}

// parseStmts parses statements until the terminator kind (tokEOF or tokRBrace).
// The list is gathered on the parser's stack and copied out at its end.
func (p *parser) parseStmts(end tokenKind) ([]Stmt, error) {
	base := len(p.stack)
	for p.tok.kind != end && p.tok.kind != tokEOF {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, s)
	}
	n := len(p.stack) - base
	if n == 0 {
		return nil, nil
	}
	out := p.lists.slice(n)
	copy(out, p.stack[base:])
	clear(p.stack[base:])
	p.stack = p.stack[:base]
	return out, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.tok
	switch {
	case t.kind == tokIdent && p.nxt.kind == tokColon:
		p.advance()
		p.advance()
		return &Label{Name: p.text(t), Pos: t.pos}, nil
	case t.kind == tokIdent && p.nxt.kind == tokAssign:
		p.advance()
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		a := p.assign.new()
		*a = Assign{Name: p.text(t), Expr: e, Pos: t.pos}
		return a, nil
	case t.kind == tokIdent && p.nxt.kind == tokLBracket:
		p.advance()
		p.advance()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokAssign, "':='"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ArrayAssign{Name: p.text(t), Index: idx, Expr: e, Pos: t.pos}, nil
	case p.isKeyword("goto"):
		p.advance()
		id, err := p.expect(tokIdent, "label")
		if err != nil {
			return nil, err
		}
		return &Goto{Label: p.text(id), Pos: t.pos}, nil
	case p.isKeyword("call"):
		p.advance()
		name, err := p.expect(tokIdent, "procedure name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		var args []string
		if p.tok.kind != tokRParen {
			for {
				id, err := p.expect(tokIdent, "argument variable")
				if err != nil {
					return nil, err
				}
				args = append(args, p.text(id))
				if p.tok.kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return &CallStmt{Proc: p.text(name), Args: args, Pos: t.pos}, nil
	case p.isKeyword("if"):
		p.advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.isKeyword("then") {
			// Paper-style fork: if p then goto lt else goto lf.
			p.advance()
			if err := p.expectKeyword("goto"); err != nil {
				return nil, err
			}
			lt, err := p.expect(tokIdent, "label")
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("else"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("goto"); err != nil {
				return nil, err
			}
			lf, err := p.expect(tokIdent, "label")
			if err != nil {
				return nil, err
			}
			return &CondGoto{Cond: cond, True: p.text(lt), False: p.text(lf), Pos: t.pos}, nil
		}
		// Structured if.
		if _, err := p.expect(tokLBrace, "'{'"); err != nil {
			return nil, err
		}
		then, err := p.parseStmts(tokRBrace)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrace, "'}'"); err != nil {
			return nil, err
		}
		var els []Stmt
		if p.isKeyword("else") {
			p.advance()
			if _, err := p.expect(tokLBrace, "'{'"); err != nil {
				return nil, err
			}
			els, err = p.parseStmts(tokRBrace)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBrace, "'}'"); err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els, Pos: t.pos}, nil
	case p.isKeyword("while"):
		p.advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLBrace, "'{'"); err != nil {
			return nil, err
		}
		body, err := p.parseStmts(tokRBrace)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrace, "'}'"); err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body, Pos: t.pos}, nil
	}
	return nil, p.errorf("expected statement, found %s", p.show(t))
}

// precedence is a binary operator's binding power (higher binds
// tighter); 0 for an operator that is not binary.
func precedence(op Op) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 3
	case OpAdd, OpSub:
		return 4
	case OpMul, OpDiv, OpMod:
		return 5
	}
	return 0
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp {
		prec := precedence(p.tok.op)
		if prec < minPrec {
			break
		}
		opTok := p.advance()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		b := p.bins.new()
		*b = BinExpr{Op: opTok.op, L: lhs, R: rhs, Pos: opTok.pos}
		lhs = b
	}
	return lhs, nil
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.tok
	if t.kind == tokOp && (t.op == OpSub || t.op == OpNot) {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := OpNeg
		if t.op == OpNot {
			op = OpNot
		}
		return &UnExpr{Op: op, X: x, Pos: t.pos}, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Expr, error) {
	t := p.tok
	switch t.kind {
	case tokInt:
		p.advance()
		x := p.ints.new()
		*x = IntLit{Value: t.val, Pos: t.pos}
		return x, nil
	case tokIdent:
		p.advance()
		if p.tok.kind == tokLBracket {
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBracket, "']'"); err != nil {
				return nil, err
			}
			return &IndexRef{Name: p.text(t), Index: idx, Pos: t.pos}, nil
		}
		x := p.vars.new()
		*x = VarRef{Name: p.text(t), Pos: t.pos}
		return x, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errorf("expected expression, found %s", p.show(t))
}
