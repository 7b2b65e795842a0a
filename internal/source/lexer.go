package source

import "fmt"

// Lexer turns mini-C source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := Pos{lx.line, lx.col}
			lx.advance()
			lx.advance()
			for {
				if lx.pos >= len(lx.src) {
					return fmt.Errorf("%v: unterminated block comment", start)
				}
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := Pos{lx.line, lx.col}
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := lx.peek()

	switch {
	case isAlpha(c):
		start := lx.pos
		for lx.pos < len(lx.src) && (isAlpha(lx.peek()) || isDigit(lx.peek())) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		return Token{Kind: keyword(text), Text: text, Pos: pos}, nil

	case isDigit(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		var n int64
		for _, d := range text {
			n = n*10 + int64(d-'0')
		}
		return Token{Kind: TokNum, Num: n, Text: text, Pos: pos}, nil
	}

	two := func(k TokKind) (Token, error) {
		lx.advance()
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	one := func(k TokKind) (Token, error) {
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}

	d := lx.peek2()
	switch c {
	case '(':
		return one(TokLParen)
	case ')':
		return one(TokRParen)
	case '{':
		return one(TokLBrace)
	case '}':
		return one(TokRBrace)
	case '[':
		return one(TokLBracket)
	case ']':
		return one(TokRBracket)
	case ';':
		return one(TokSemi)
	case ',':
		return one(TokComma)
	case '.':
		return one(TokDot)
	case '~':
		return one(TokTilde)
	case '^':
		return one(TokCaret)
	case '+':
		if d == '+' {
			return two(TokInc)
		}
		if d == '=' {
			return two(TokPlusEq)
		}
		return one(TokPlus)
	case '-':
		if d == '-' {
			return two(TokDec)
		}
		if d == '=' {
			return two(TokMinusEq)
		}
		return one(TokMinus)
	case '*':
		if d == '=' {
			return two(TokStarEq)
		}
		return one(TokStar)
	case '/':
		if d == '=' {
			return two(TokSlashEq)
		}
		return one(TokSlash)
	case '%':
		if d == '=' {
			return two(TokPctEq)
		}
		return one(TokPercent)
	case '&':
		if d == '&' {
			return two(TokAndAnd)
		}
		return one(TokAmp)
	case '|':
		if d == '|' {
			return two(TokOrOr)
		}
		return one(TokPipe)
	case '!':
		if d == '=' {
			return two(TokNe)
		}
		return one(TokBang)
	case '=':
		if d == '=' {
			return two(TokEq)
		}
		return one(TokAssign)
	case '<':
		if d == '=' {
			return two(TokLe)
		}
		if d == '<' {
			return two(TokShl)
		}
		return one(TokLt)
	case '>':
		if d == '=' {
			return two(TokGe)
		}
		if d == '>' {
			return two(TokShr)
		}
		return one(TokGt)
	}
	return Token{}, fmt.Errorf("%v: unexpected character %q", pos, string(c))
}

// LexAll tokenizes the whole input (for tests and tooling).
func LexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}
