package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

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
	tokKeyword // var array alias if else while goto then proc call
)

// token is a lexical token. It holds no pointer, so filling one costs no
// write barrier: its text is the source's bytes [start, end).
type token struct {
	kind       tokenKind
	op         Op // for tokOp: the binary operator, OpNot for "!"
	start, end int
	val        int64 // for tokInt
	pos        Pos
}

// set fills t field by field: a composite literal stored through the
// pointer is built in a temporary first, and reading it back stalls on
// the byte just written.
func (t *token) set(kind tokenKind, op Op, start, end int, val int64, p Pos) {
	t.kind, t.op, t.start, t.end, t.val, t.pos = kind, op, start, end, val, p
}

// lexer scans source text into tokens in place: a byte at a time on
// ASCII, decoding a rune only at a byte ≥ 0x80, where letters, digits and
// spaces are Unicode's. Columns count runes, an invalid byte as one.
type lexer struct {
	src  string
	pos  int // byte offset into src
	line int
	col  int
	err  error // the first lexical error; from it on the lexer returns end of input
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

// fail records a lexical error at p and returns end of input.
func (l *lexer) fail(p Pos, format string, args ...any) token {
	l.err = fmt.Errorf("lang: %s: %s", p, fmt.Sprintf(format, args...))
	return token{kind: tokEOF, pos: p}
}

// isLetterByte reports an ASCII letter or underscore: the ASCII bytes that
// start an identifier.
func isLetterByte(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }
func isDigitByte(c byte) bool  { return '0' <= c && c <= '9' }

func (l *lexer) skipSpaceAndComments() {
	// The scans work on locals, written back once, so that the loops keep
	// them in registers.
	src, pos, col := l.src, l.pos, l.col
scan:
	for pos < len(src) {
		switch c := src[pos]; {
		case c == '\n':
			pos++
			l.line++
			col = 1
		case c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
			pos++
			col++
		case c == '#' || c == '/' && strings.HasPrefix(src[pos+1:], "/"):
			n := strings.IndexByte(src[pos:], '\n')
			if n < 0 {
				n = len(src) - pos
			}
			col += utf8.RuneCountInString(src[pos : pos+n])
			pos += n
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(src[pos:])
			if !unicode.IsSpace(r) {
				break scan
			}
			pos += size
			col++
		default:
			break scan
		}
	}
	l.pos, l.col = pos, col
}

// scanIdent advances over the rest of an identifier: letters, digits
// and underscores.
func (l *lexer) scanIdent() {
	src, pos, col := l.src, l.pos, l.col
	for pos < len(src) {
		if c := src[pos]; c < utf8.RuneSelf {
			if !isLetterByte(c) && !isDigitByte(c) {
				break
			}
			pos++
		} else {
			r, size := utf8.DecodeRuneInString(src[pos:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				break
			}
			pos += size
		}
		col++
	}
	l.pos, l.col = pos, col
}

// scanDigits advances over the rest of an integer literal.
func (l *lexer) scanDigits() {
	src, pos, col := l.src, l.pos, l.col
	for pos < len(src) {
		if c := src[pos]; c < utf8.RuneSelf {
			if !isDigitByte(c) {
				break
			}
			pos++
		} else {
			r, size := utf8.DecodeRuneInString(src[pos:])
			if !unicode.IsDigit(r) {
				break
			}
			pos += size
		}
		col++
	}
	l.pos, l.col = pos, col
}

// follows consumes the next byte if it is b.
func (l *lexer) follows(b byte) bool {
	if l.pos < len(l.src) && l.src[l.pos] == b {
		l.pos++
		l.col++
		return true
	}
	return false
}

// next scans one token into t. After a lexical error it gives end of
// input.
func (l *lexer) next(t *token) {
	if l.err != nil {
		t.set(tokEOF, 0, l.pos, l.pos, 0, Pos{l.line, l.col})
		return
	}
	l.skipSpaceAndComments()
	p := Pos{l.line, l.col}
	if l.pos >= len(l.src) {
		t.set(tokEOF, 0, l.pos, l.pos, 0, p)
		return
	}
	start := l.pos
	c := l.src[l.pos]
	letter, digit := isLetterByte(c), isDigitByte(c)
	if c >= utf8.RuneSelf {
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		letter, digit = unicode.IsLetter(r), unicode.IsDigit(r)
	}
	switch {
	case letter:
		l.scanIdent()
		t.set(identKind(l.src[start:l.pos]), 0, start, l.pos, 0, p)
		return
	case digit:
		l.scanDigits()
		text := l.src[start:l.pos]
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			*t = l.fail(p, "bad integer literal %q", text)
			return
		}
		t.set(tokInt, 0, start, l.pos, v, p)
		return
	case c >= utf8.RuneSelf:
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		*t = l.fail(p, "unexpected character %q", string(r))
		return
	}
	l.pos++
	l.col++
	kind, op := tokOp, Op(0)
	switch c {
	case ':':
		kind = tokColon
		if l.follows('=') {
			kind = tokAssign
		}
	case '{':
		kind = tokLBrace
	case '}':
		kind = tokRBrace
	case '[':
		kind = tokLBracket
	case ']':
		kind = tokRBracket
	case '(':
		kind = tokLParen
	case ')':
		kind = tokRParen
	case ',':
		kind = tokComma
	case '~':
		kind = tokTilde
	case '+':
		op = OpAdd
	case '-':
		op = OpSub
	case '*':
		op = OpMul
	case '/':
		op = OpDiv
	case '%':
		op = OpMod
	case '<':
		op = OpLt
		if l.follows('=') {
			op = OpLe
		}
	case '>':
		op = OpGt
		if l.follows('=') {
			op = OpGe
		}
	case '!':
		op = OpNot
		if l.follows('=') {
			op = OpNe
		}
	case '=':
		if !l.follows('=') {
			*t = l.fail(p, "unexpected '=' (use ':=' for assignment, '==' for equality)")
			return
		}
		op = OpEq
	case '&':
		if !l.follows('&') {
			*t = l.fail(p, "unexpected '&'")
			return
		}
		op = OpAnd
	case '|':
		if !l.follows('|') {
			*t = l.fail(p, "unexpected '|'")
			return
		}
		op = OpOr
	default:
		*t = l.fail(p, "unexpected character %q", string(rune(c)))
		return
	}
	t.set(kind, op, start, l.pos, 0, p)
}

// identKind tells a keyword from an identifier.
func identKind(text string) tokenKind {
	switch text {
	case "var", "array", "alias", "if", "else", "while", "goto", "then", "proc", "call":
		return tokKeyword
	}
	return tokIdent
}
