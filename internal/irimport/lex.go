package irimport

import (
	"fmt"
	"strconv"
	"strings"
)

// Pos is a position in the input, 1-based.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// ParseError is a parse or lowering failure with a precise position.
type ParseError struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%s: %s", e.File, e.Pos, e.Msg)
}

type tokKind int

const (
	tEOF    tokKind = iota
	tWord           // bare identifier or keyword: define, add, i64, label, ...
	tLocal          // %name
	tGlobal         // @name
	tInt            // integer literal, possibly negative
	tPunct          // one of = , ( ) { } [ ] * :
)

func (k tokKind) String() string {
	switch k {
	case tEOF:
		return "end of input"
	case tWord:
		return "word"
	case tLocal:
		return "local name"
	case tGlobal:
		return "global name"
	case tInt:
		return "integer"
	case tPunct:
		return "punctuation"
	}
	return "token"
}

type token struct {
	kind tokKind
	text string // without the %/@ sigil for tLocal/tGlobal
	ival int64  // tInt only
	pos  Pos
}

func (t token) describe() string {
	switch t.kind {
	case tEOF:
		return "end of input"
	case tLocal:
		return "%" + t.text
	case tGlobal:
		return "@" + t.text
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lex tokenizes the whole input up front. Comments (;), metadata (!...
// to end of line), attribute references (#N), and string literals are
// skipped entirely; the parser never sees them.
func lex(file, src string) ([]token, error) {
	var toks []token
	line, col := 1, 1
	i := 0
	n := len(src)
	adv := func(k int) {
		for j := 0; j < k; j++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}
	errAt := func(p Pos, format string, args ...any) error {
		return &ParseError{File: file, Pos: p, Msg: fmt.Sprintf(format, args...)}
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			adv(1)
		case c == ';':
			for i < n && src[i] != '\n' {
				adv(1)
			}
		case c == '!':
			// Metadata: a `!dbg !7` suffix or a top-level `!0 = !{...}`
			// definition. Both are line-structured in the inputs this
			// dialect accepts, so skip to end of line.
			for i < n && src[i] != '\n' {
				adv(1)
			}
		case c == '#':
			// Attribute reference (#0). The attribute group definitions
			// themselves start with the word `attributes`, which the
			// parser skips line-wise.
			adv(1)
			for i < n && isIdentChar(src[i]) {
				adv(1)
			}
		case c == '"':
			pos := Pos{line, col}
			adv(1)
			for i < n && src[i] != '"' {
				if src[i] == '\\' && i+1 < n {
					adv(1)
				}
				adv(1)
			}
			if i >= n {
				return nil, errAt(pos, "unterminated string literal")
			}
			adv(1)
		case c == '%' || c == '@':
			pos := Pos{line, col}
			adv(1)
			start := i
			for i < n && isIdentChar(src[i]) {
				adv(1)
			}
			if i == start {
				return nil, errAt(pos, "empty name after %q", string(c))
			}
			kind := tLocal
			if c == '@' {
				kind = tGlobal
			}
			toks = append(toks, token{kind: kind, text: src[start:i], pos: pos})
		case c == '-' || (c >= '0' && c <= '9'):
			pos := Pos{line, col}
			start := i
			adv(1)
			for i < n && src[i] >= '0' && src[i] <= '9' {
				adv(1)
			}
			text := src[start:i]
			if text == "-" {
				return nil, errAt(pos, "stray '-'")
			}
			// A digits-only token followed by ident chars (e.g. 0x...)
			// is out of the dialect.
			if i < n && isIdentChar(src[i]) {
				return nil, errAt(pos, "malformed number %q", text+string(src[i]))
			}
			v, err := strconv.ParseInt(text, 10, 64)
			if err != nil {
				return nil, errAt(pos, "integer %s out of range", text)
			}
			toks = append(toks, token{kind: tInt, text: text, ival: v, pos: pos})
		case isIdentStart(c):
			pos := Pos{line, col}
			start := i
			for i < n && isIdentChar(src[i]) {
				adv(1)
			}
			toks = append(toks, token{kind: tWord, text: src[start:i], pos: pos})
		case strings.IndexByte("=,(){}[]*:", c) >= 0:
			toks = append(toks, token{kind: tPunct, text: string(c), pos: Pos{line, col}})
			adv(1)
		default:
			return nil, errAt(Pos{line, col}, "unexpected character %q", string(c))
		}
	}
	toks = append(toks, token{kind: tEOF, pos: Pos{line, col}})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '.' || c == '$'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
