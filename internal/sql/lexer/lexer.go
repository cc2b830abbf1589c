// Package lexer tokenizes the SQL subset accepted by the engine.
package lexer

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind uint8

// Token kinds.
const (
	EOF TokKind = iota
	Ident
	Keyword
	Number
	String
	Symbol
)

// Token is one lexical token. For Keyword tokens Text is lower-cased;
// Ident preserves the original spelling.
type Token struct {
	Kind TokKind
	Text string
	Pos  int // byte offset in the input, for error messages
}

// keywords recognized by the parser. Anything else alphabetic is an
// identifier.
var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"having": true, "order": true, "limit": true, "as": true, "on": true,
	"join": true, "inner": true, "left": true, "right": true, "outer": true,
	"cross": true, "and": true, "or": true, "not": true, "in": true,
	"exists": true, "between": true, "like": true, "is": true, "null": true,
	"case": true, "when": true, "then": true, "else": true, "end": true,
	"union": true, "all": true, "except": true, "with": true, "any": true, "some": true, "distinct": true,
	"asc": true, "desc": true, "date": true, "interval": true, "true": true, "false": true,
	"semi": true, "anti": true,
}

// Lexer scans an input string into tokens.
type Lexer struct {
	src string
	pos int
}

// New returns a lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error on malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isAlpha(c):
		for l.pos < len(l.src) && isAlnum(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		lower := strings.ToLower(word)
		if keywords[lower] {
			return Token{Kind: Keyword, Text: lower, Pos: start}, nil
		}
		return Token{Kind: Ident, Text: word, Pos: start}, nil
	case isDigit(c):
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			if !isDigit(ch) {
				break
			}
			l.pos++
		}
		return Token{Kind: Number, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'':
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("unterminated string literal at offset %d", start)
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				// '' escapes a quote
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					b.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				break
			}
			b.WriteByte(ch)
			l.pos++
		}
		return Token{Kind: String, Text: b.String(), Pos: start}, nil
	default:
		// multi-char symbols first
		for _, sym := range []string{"<=", ">=", "<>", "!=", "||"} {
			if strings.HasPrefix(l.src[l.pos:], sym) {
				l.pos += len(sym)
				if sym == "!=" {
					sym = "<>"
				}
				return Token{Kind: Symbol, Text: sym, Pos: start}, nil
			}
		}
		switch c {
		case '(', ')', ',', '.', '+', '-', '*', '/', '%', '<', '>', '=', ';':
			l.pos++
			return Token{Kind: Symbol, Text: string(c), Pos: start}, nil
		}
		return Token{}, fmt.Errorf("unexpected character %q at offset %d", c, l.pos)
	}
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
}

// Tokenize scans the whole input. The plan cache tokenizes every query
// it sees, so the token slice is sized from the input, at about five
// bytes a token, rather than grown by doubling from empty.
func Tokenize(src string) ([]Token, error) {
	l := New(src)
	out := make([]Token, 0, len(src)/5+1)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlnum(c byte) bool { return isAlpha(c) || isDigit(c) }
