// Package eqsql parses the entangled-SQL surface syntax of Section 2.1:
//
//	SELECT select_expr
//	INTO ANSWER tbl_name [, ANSWER tbl_name] ...
//	[WHERE where_answer_condition]
//	CHOOSE 1
//
// and translates parsed statements into the intermediate representation of
// internal/ir. The WHERE clause supports the constructs used throughout the
// paper: conjunctions of `expr IN (SELECT col FROM tables WHERE …)`
// subqueries over database relations, `(expr, …) IN ANSWER tbl` coordination
// constraints, plain equalities, and — for the Section 6 extension — scalar
// COUNT subqueries over ANSWER relations compared against a threshold.
package eqsql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"entangle/internal/ir"
)

// tokenKind enumerates lexical token categories.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString // single-quoted literal
	tokNumber
	tokPunct // ( ) , . = > < *
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset in the input, for error messages
}

// lexer produces tokens from entangled-SQL input.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenises the whole input up front; entangled queries are short, so
// one pass keeps the parser simple. ASCII input — every statement the
// benchmark and the examples send — takes a byte-at-a-time path: token
// texts are sub-slices of src, and so are string literals without a
// doubled-quote escape, so a statement costs one allocation for its token
// slice.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, toks: make([]token, 0, len(src)/4+2)}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		r, size := rune(l.src[l.pos]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(l.src[l.pos:])
		}
		switch {
		case r == '\'':
			s, err := l.lexString()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, pos: start})
		case unicode.IsDigit(r):
			l.toks = append(l.toks, token{kind: tokNumber, text: l.lexWhile(isNumberRune), pos: start})
		case unicode.IsLetter(r) || r == '_':
			l.toks = append(l.toks, token{kind: tokIdent, text: l.lexWhile(isWordRune), pos: start})
		case r < utf8.RuneSelf && strings.IndexByte("(),.=><*", byte(r)) >= 0:
			l.pos += size
			l.toks = append(l.toks, token{kind: tokPunct, text: l.src[start:l.pos], pos: start})
		default:
			return nil, &ir.ParseError{Offset: l.pos, Msg: fmt.Sprintf("eqsql: unexpected character %q", r)}
		}
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f':
			l.pos++
			continue
		case c == '-' && strings.HasPrefix(l.src[l.pos:], "--"):
			// SQL line comment.
			if nl := strings.IndexByte(l.src[l.pos:], '\n'); nl >= 0 {
				l.pos += nl + 1
				continue
			}
			l.pos = len(l.src)
			continue
		case c >= utf8.RuneSelf:
			if r, size := utf8.DecodeRuneInString(l.src[l.pos:]); unicode.IsSpace(r) {
				l.pos += size
				continue
			}
		}
		return
	}
}

func (l *lexer) lexWhile(pred func(rune) bool) string {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := rune(l.src[l.pos]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(l.src[l.pos:])
		}
		if !pred(r) {
			break
		}
		l.pos += size
	}
	return l.src[start:l.pos]
}

// lexString scans a single-quoted literal. A literal without a
// doubled-quote escape whose bytes are valid UTF-8 is returned as a
// sub-slice of the input; otherwise it is rebuilt rune by rune, which
// unescapes each doubled quote and turns each invalid byte into U+FFFD.
func (l *lexer) lexString() (string, error) {
	l.pos++ // opening quote
	if n := strings.IndexByte(l.src[l.pos:], '\''); n >= 0 {
		lit, end := l.src[l.pos:l.pos+n], l.pos+n+1
		if (end >= len(l.src) || l.src[end] != '\'') && utf8.ValidString(lit) {
			l.pos = end
			return lit, nil
		}
	}
	var b strings.Builder
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		l.pos += size
		if r == '\'' {
			if l.pos < len(l.src) && l.src[l.pos] == '\'' {
				l.pos++
				b.WriteByte('\'')
				continue
			}
			return b.String(), nil
		}
		b.WriteRune(r)
	}
	return "", &ir.ParseError{Offset: l.pos, Msg: "eqsql: unterminated string literal"}
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func isNumberRune(r rune) bool {
	return unicode.IsDigit(r) || r == '.'
}
