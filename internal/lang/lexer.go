package lang

import (
	"fmt"
	"strconv"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokAssign // :=
	tokColon
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokComma
	tokTilde
	tokOp      // arithmetic/comparison/logical operator
	tokKeyword // var array alias if else while goto then
)

type token struct {
	kind tokenKind
	text string
	val  int64 // for tokInt
	pos  Pos
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

var keywords = map[string]bool{
	"var": true, "array": true, "alias": true,
	"if": true, "else": true, "while": true,
	"goto": true, "then": true,
	"proc": true, "call": true,
}

// lexer converts source text into tokens.
type lexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: []rune(src), line: 1, col: 1}
}

func (l *lexer) errorf(p Pos, format string, args ...any) error {
	return fmt.Errorf("lang: %s: %s", p, fmt.Sprintf(format, args...))
}

func (l *lexer) peekRune() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) nextRune() rune {
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

func (l *lexer) skipSpaceAndComments() {
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
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	p := Pos{l.line, l.col}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: p}, nil
	}
	r := l.peekRune()
	switch {
	case unicode.IsLetter(r) || r == '_':
		start := l.pos
		for l.pos < len(l.src) && (unicode.IsLetter(l.peekRune()) || unicode.IsDigit(l.peekRune()) || l.peekRune() == '_') {
			l.nextRune()
		}
		text := string(l.src[start:l.pos])
		if keywords[text] {
			return token{kind: tokKeyword, text: text, pos: p}, nil
		}
		return token{kind: tokIdent, text: text, pos: p}, nil
	case unicode.IsDigit(r):
		start := l.pos
		for l.pos < len(l.src) && unicode.IsDigit(l.peekRune()) {
			l.nextRune()
		}
		text := string(l.src[start:l.pos])
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return token{}, l.errorf(p, "bad integer literal %q", text)
		}
		return token{kind: tokInt, text: text, val: v, pos: p}, nil
	}
	l.nextRune()
	two := func(second rune, yes, no string) token {
		if l.peekRune() == second {
			l.nextRune()
			return token{kind: tokOp, text: yes, pos: p}
		}
		if no == "" {
			return token{kind: tokOp, text: string(r), pos: p}
		}
		return token{kind: tokOp, text: no, pos: p}
	}
	switch r {
	case ':':
		if l.peekRune() == '=' {
			l.nextRune()
			return token{kind: tokAssign, text: ":=", pos: p}, nil
		}
		return token{kind: tokColon, text: ":", pos: p}, nil
	case '{':
		return token{kind: tokLBrace, text: "{", pos: p}, nil
	case '}':
		return token{kind: tokRBrace, text: "}", pos: p}, nil
	case '[':
		return token{kind: tokLBracket, text: "[", pos: p}, nil
	case ']':
		return token{kind: tokRBracket, text: "]", pos: p}, nil
	case '(':
		return token{kind: tokLParen, text: "(", pos: p}, nil
	case ')':
		return token{kind: tokRParen, text: ")", pos: p}, nil
	case ',':
		return token{kind: tokComma, text: ",", pos: p}, nil
	case '~':
		return token{kind: tokTilde, text: "~", pos: p}, nil
	case '+', '-', '*', '/', '%':
		return token{kind: tokOp, text: string(r), pos: p}, nil
	case '<':
		return two('=', "<=", "<"), nil
	case '>':
		return two('=', ">=", ">"), nil
	case '=':
		if l.peekRune() == '=' {
			l.nextRune()
			return token{kind: tokOp, text: "==", pos: p}, nil
		}
		return token{}, l.errorf(p, "unexpected '=' (use ':=' for assignment, '==' for equality)")
	case '!':
		return two('=', "!=", "!"), nil
	case '&':
		if l.peekRune() == '&' {
			l.nextRune()
			return token{kind: tokOp, text: "&&", pos: p}, nil
		}
		return token{}, l.errorf(p, "unexpected '&'")
	case '|':
		if l.peekRune() == '|' {
			l.nextRune()
			return token{kind: tokOp, text: "||", pos: p}, nil
		}
		return token{}, l.errorf(p, "unexpected '|'")
	}
	return token{}, l.errorf(p, "unexpected character %q", string(r))
}

// lexAll scans the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	out := make([]token, 0, len(src)/2) // a token and its spacing rarely take under two bytes
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
