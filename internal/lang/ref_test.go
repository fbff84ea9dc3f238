package lang

import (
	"fmt"
	"strconv"
	"unicode"
)

// This file keeps the front end as it was before the lexer scanned the
// source in place and the parser read it through a two-token window: the
// lexer over a []rune, the whole token slice materialised before parsing,
// keywords, precedence and operators looked up in maps. refParse is the
// oracle the differential tests (frontend_test.go, FuzzParse) hold Parse
// to: the same program, positions included, or the same error string.

// refParse is Parse as that front end ran it.
func refParse(src string) (*Program, error) {
	toks, err := refLexAll(src)
	if err != nil {
		return nil, err
	}
	p := &refParser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// refTokenKind classifies lexical tokens.
type refTokenKind int

const (
	refTokEOF refTokenKind = iota
	refTokIdent
	refTokInt
	refTokAssign // :=
	refTokColon
	refTokLBrace
	refTokRBrace
	refTokLBracket
	refTokRBracket
	refTokLParen
	refTokRParen
	refTokComma
	refTokTilde
	refTokOp      // arithmetic/comparison/logical operator
	refTokKeyword // var array alias if else while goto then
)

type refToken struct {
	kind refTokenKind
	text string
	val  int64 // for refTokInt
	pos  Pos
}

func (t refToken) String() string {
	if t.kind == refTokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

var refKeywords = map[string]bool{
	"var": true, "array": true, "alias": true,
	"if": true, "else": true, "while": true,
	"goto": true, "then": true,
	"proc": true, "call": true,
}

// refLexer converts source text into tokens.
type refLexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

func refNewLexer(src string) *refLexer {
	return &refLexer{src: []rune(src), line: 1, col: 1}
}

func (l *refLexer) errorf(p Pos, format string, args ...any) error {
	return fmt.Errorf("lang: %s: %s", p, fmt.Sprintf(format, args...))
}

func (l *refLexer) peekRune() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *refLexer) nextRune() rune {
	r := l.src[l.pos]
	l.pos++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *refLexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		r := l.peekRune()
		switch {
		case unicode.IsSpace(r):
			l.nextRune()
		case r == '#':
			for l.pos < len(l.src) && l.peekRune() != '\n' {
				l.nextRune()
			}
		case r == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekRune() != '\n' {
				l.nextRune()
			}
		default:
			return
		}
	}
}

// next scans one token.
func (l *refLexer) next() (refToken, error) {
	l.skipSpaceAndComments()
	p := Pos{l.line, l.col}
	if l.pos >= len(l.src) {
		return refToken{kind: refTokEOF, pos: p}, nil
	}
	r := l.peekRune()
	switch {
	case unicode.IsLetter(r) || r == '_':
		start := l.pos
		for l.pos < len(l.src) && (unicode.IsLetter(l.peekRune()) || unicode.IsDigit(l.peekRune()) || l.peekRune() == '_') {
			l.nextRune()
		}
		text := string(l.src[start:l.pos])
		if refKeywords[text] {
			return refToken{kind: refTokKeyword, text: text, pos: p}, nil
		}
		return refToken{kind: refTokIdent, text: text, pos: p}, nil
	case unicode.IsDigit(r):
		start := l.pos
		for l.pos < len(l.src) && unicode.IsDigit(l.peekRune()) {
			l.nextRune()
		}
		text := string(l.src[start:l.pos])
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return refToken{}, l.errorf(p, "bad integer literal %q", text)
		}
		return refToken{kind: refTokInt, text: text, val: v, pos: p}, nil
	}
	l.nextRune()
	two := func(second rune, yes, no string) refToken {
		if l.peekRune() == second {
			l.nextRune()
			return refToken{kind: refTokOp, text: yes, pos: p}
		}
		if no == "" {
			return refToken{kind: refTokOp, text: string(r), pos: p}
		}
		return refToken{kind: refTokOp, text: no, pos: p}
	}
	switch r {
	case ':':
		if l.peekRune() == '=' {
			l.nextRune()
			return refToken{kind: refTokAssign, text: ":=", pos: p}, nil
		}
		return refToken{kind: refTokColon, text: ":", pos: p}, nil
	case '{':
		return refToken{kind: refTokLBrace, text: "{", pos: p}, nil
	case '}':
		return refToken{kind: refTokRBrace, text: "}", pos: p}, nil
	case '[':
		return refToken{kind: refTokLBracket, text: "[", pos: p}, nil
	case ']':
		return refToken{kind: refTokRBracket, text: "]", pos: p}, nil
	case '(':
		return refToken{kind: refTokLParen, text: "(", pos: p}, nil
	case ')':
		return refToken{kind: refTokRParen, text: ")", pos: p}, nil
	case ',':
		return refToken{kind: refTokComma, text: ",", pos: p}, nil
	case '~':
		return refToken{kind: refTokTilde, text: "~", pos: p}, nil
	case '+', '-', '*', '/', '%':
		return refToken{kind: refTokOp, text: string(r), pos: p}, nil
	case '<':
		return two('=', "<=", "<"), nil
	case '>':
		return two('=', ">=", ">"), nil
	case '=':
		if l.peekRune() == '=' {
			l.nextRune()
			return refToken{kind: refTokOp, text: "==", pos: p}, nil
		}
		return refToken{}, l.errorf(p, "unexpected '=' (use ':=' for assignment, '==' for equality)")
	case '!':
		return two('=', "!=", "!"), nil
	case '&':
		if l.peekRune() == '&' {
			l.nextRune()
			return refToken{kind: refTokOp, text: "&&", pos: p}, nil
		}
		return refToken{}, l.errorf(p, "unexpected '&'")
	case '|':
		if l.peekRune() == '|' {
			l.nextRune()
			return refToken{kind: refTokOp, text: "||", pos: p}, nil
		}
		return refToken{}, l.errorf(p, "unexpected '|'")
	}
	return refToken{}, l.errorf(p, "unexpected character %q", string(r))
}

// refLexAll scans the whole input.
func refLexAll(src string) ([]refToken, error) {
	l := refNewLexer(src)
	out := make([]refToken, 0, len(src)/2) // a token and its spacing rarely take under two bytes
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == refTokEOF {
			return out, nil
		}
	}
}

type refParser struct {
	toks []refToken
	i    int
}

func (p *refParser) cur() refToken { return p.toks[p.i] }
func (p *refParser) peek() refToken {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *refParser) advance() refToken {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *refParser) errorf(format string, args ...any) error {
	return fmt.Errorf("lang: %s: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *refParser) expect(kind refTokenKind, what string) (refToken, error) {
	if p.cur().kind != kind {
		return refToken{}, p.errorf("expected %s, found %s", what, p.cur())
	}
	return p.advance(), nil
}

func (p *refParser) expectKeyword(kw string) error {
	if p.cur().kind != refTokKeyword || p.cur().text != kw {
		return p.errorf("expected %q, found %s", kw, p.cur())
	}
	p.advance()
	return nil
}

func (p *refParser) parseProgram() (*Program, error) {
	prog := &Program{}
	// Declarations come first.
	for p.cur().kind == refTokKeyword {
		switch p.cur().text {
		case "var":
			pos := p.advance().pos
			for {
				id, err := p.expect(refTokIdent, "variable name")
				if err != nil {
					return nil, err
				}
				prog.Vars = append(prog.Vars, VarDecl{Name: id.text, Pos: pos})
				if p.cur().kind != refTokComma {
					break
				}
				p.advance()
			}
		case "array":
			pos := p.advance().pos
			for {
				id, err := p.expect(refTokIdent, "array name")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(refTokLBracket, "'['"); err != nil {
					return nil, err
				}
				sz, err := p.expect(refTokInt, "array size")
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(refTokRBracket, "']'"); err != nil {
					return nil, err
				}
				if sz.val <= 0 {
					return nil, fmt.Errorf("lang: %s: array %s has non-positive size %d", sz.pos, id.text, sz.val)
				}
				prog.Arrays = append(prog.Arrays, ArrayDecl{Name: id.text, Size: int(sz.val), Pos: pos})
				if p.cur().kind != refTokComma {
					break
				}
				p.advance()
			}
		case "alias":
			pos := p.advance().pos
			a, err := p.expect(refTokIdent, "variable name")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(refTokTilde, "'~'"); err != nil {
				return nil, err
			}
			b, err := p.expect(refTokIdent, "variable name")
			if err != nil {
				return nil, err
			}
			prog.Aliases = append(prog.Aliases, AliasDecl{A: a.text, B: b.text, Pos: pos})
		case "proc":
			pos := p.advance().pos
			name, err := p.expect(refTokIdent, "procedure name")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(refTokLParen, "'('"); err != nil {
				return nil, err
			}
			var params []string
			if p.cur().kind != refTokRParen {
				for {
					id, err := p.expect(refTokIdent, "parameter name")
					if err != nil {
						return nil, err
					}
					params = append(params, id.text)
					if p.cur().kind != refTokComma {
						break
					}
					p.advance()
				}
			}
			if _, err := p.expect(refTokRParen, "')'"); err != nil {
				return nil, err
			}
			if _, err := p.expect(refTokLBrace, "'{'"); err != nil {
				return nil, err
			}
			body, err := p.parseStmts(refTokRBrace)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(refTokRBrace, "'}'"); err != nil {
				return nil, err
			}
			prog.Procedures = append(prog.Procedures, ProcDecl{Name: name.text, Params: params, Body: body, Pos: pos})
		default:
			// Start of the statement list.
			goto body
		}
	}
body:
	body, err := p.parseStmts(refTokEOF)
	if err != nil {
		return nil, err
	}
	prog.Body = body
	if p.cur().kind != refTokEOF {
		return nil, p.errorf("unexpected %s", p.cur())
	}
	return prog, nil
}

// parseStmts parses statements until the terminator kind (refTokEOF or refTokRBrace).
func (p *refParser) parseStmts(end refTokenKind) ([]Stmt, error) {
	var out []Stmt
	for p.cur().kind != end && p.cur().kind != refTokEOF {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *refParser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case t.kind == refTokIdent && p.peek().kind == refTokColon:
		p.advance()
		p.advance()
		return &Label{Name: t.text, Pos: t.pos}, nil
	case t.kind == refTokIdent && p.peek().kind == refTokAssign:
		p.advance()
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Assign{Name: t.text, Expr: e, Pos: t.pos}, nil
	case t.kind == refTokIdent && p.peek().kind == refTokLBracket:
		p.advance()
		p.advance()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refTokRBracket, "']'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(refTokAssign, "':='"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ArrayAssign{Name: t.text, Index: idx, Expr: e, Pos: t.pos}, nil
	case t.kind == refTokKeyword && t.text == "goto":
		p.advance()
		id, err := p.expect(refTokIdent, "label")
		if err != nil {
			return nil, err
		}
		return &Goto{Label: id.text, Pos: t.pos}, nil
	case t.kind == refTokKeyword && t.text == "call":
		p.advance()
		name, err := p.expect(refTokIdent, "procedure name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refTokLParen, "'('"); err != nil {
			return nil, err
		}
		var args []string
		if p.cur().kind != refTokRParen {
			for {
				id, err := p.expect(refTokIdent, "argument variable")
				if err != nil {
					return nil, err
				}
				args = append(args, id.text)
				if p.cur().kind != refTokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(refTokRParen, "')'"); err != nil {
			return nil, err
		}
		return &CallStmt{Proc: name.text, Args: args, Pos: t.pos}, nil
	case t.kind == refTokKeyword && t.text == "if":
		p.advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.cur().kind == refTokKeyword && p.cur().text == "then" {
			// Paper-style fork: if p then goto lt else goto lf.
			p.advance()
			if err := p.expectKeyword("goto"); err != nil {
				return nil, err
			}
			lt, err := p.expect(refTokIdent, "label")
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("else"); err != nil {
				return nil, err
			}
			if err := p.expectKeyword("goto"); err != nil {
				return nil, err
			}
			lf, err := p.expect(refTokIdent, "label")
			if err != nil {
				return nil, err
			}
			return &CondGoto{Cond: cond, True: lt.text, False: lf.text, Pos: t.pos}, nil
		}
		// Structured if.
		if _, err := p.expect(refTokLBrace, "'{'"); err != nil {
			return nil, err
		}
		then, err := p.parseStmts(refTokRBrace)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refTokRBrace, "'}'"); err != nil {
			return nil, err
		}
		var els []Stmt
		if p.cur().kind == refTokKeyword && p.cur().text == "else" {
			p.advance()
			if _, err := p.expect(refTokLBrace, "'{'"); err != nil {
				return nil, err
			}
			els, err = p.parseStmts(refTokRBrace)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(refTokRBrace, "'}'"); err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els, Pos: t.pos}, nil
	case t.kind == refTokKeyword && t.text == "while":
		p.advance()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refTokLBrace, "'{'"); err != nil {
			return nil, err
		}
		body, err := p.parseStmts(refTokRBrace)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refTokRBrace, "'}'"); err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body, Pos: t.pos}, nil
	}
	return nil, p.errorf("expected statement, found %s", t)
}

// Operator precedence (higher binds tighter).
var refPrecedence = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
	"+": 4, "-": 4,
	"*": 5, "/": 5, "%": 5,
}

var refBinOps = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
	"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe, "==": OpEq, "!=": OpNe,
	"&&": OpAnd, "||": OpOr,
}

func (p *refParser) parseExpr() (Expr, error) { return p.parseBinary(1) }

func (p *refParser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == refTokOp {
		prec, ok := refPrecedence[p.cur().text]
		if !ok || prec < minPrec {
			break
		}
		opTok := p.advance()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{Op: refBinOps[opTok.text], L: lhs, R: rhs, Pos: opTok.pos}
	}
	return lhs, nil
}

func (p *refParser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.kind == refTokOp && (t.text == "-" || t.text == "!") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := OpNeg
		if t.text == "!" {
			op = OpNot
		}
		return &UnExpr{Op: op, X: x, Pos: t.pos}, nil
	}
	return p.parseAtom()
}

func (p *refParser) parseAtom() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case refTokInt:
		p.advance()
		return &IntLit{Value: t.val, Pos: t.pos}, nil
	case refTokIdent:
		p.advance()
		if p.cur().kind == refTokLBracket {
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(refTokRBracket, "']'"); err != nil {
				return nil, err
			}
			return &IndexRef{Name: t.text, Index: idx, Pos: t.pos}, nil
		}
		return &VarRef{Name: t.text, Pos: t.pos}, nil
	case refTokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(refTokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errorf("expected expression, found %s", t)
}
