package aql

import (
	"fmt"
	"strings"

	"asterixdb/internal/adm"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVariable // $name
	tokString   // "..." or '...', text holding the decoded string
	tokNumber   // val holds the number, nil when it is out of its type's range
	tokSymbol   // punctuation and operators
	tokHint     // /*+ ... */
)

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string
	val  adm.Value
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokString:
		return `"` + t.text + `"`
	case tokVariable:
		return "$" + t.text
	default:
		return t.text
	}
}

// lexer turns AQL source text into tokens, one per call to next, as the
// parser asks for them. Ordinary comments are skipped; optimizer hint
// comments (/*+ ... */) are preserved as hint tokens. String and number
// literals are ADM's, read by adm.ParseString and adm.ParseNumber, and
// identifiers are read by adm.IdentLen, so a value's text (Value.String, or
// a line of NDJSON output) means the same here as in a data file. The parser
// moves pos past a '{', '[' or "{{" literal that adm.ParsePrefix read whole.
type lexer struct {
	src string
	pos int
}

// multi-character symbols, longest first. A bag's closing "}}" is two '}'
// tokens (see parser.atBagClose), so that the "}}" ending JSON's
// {"a":{"b":1}} can close two records.
var multiSymbols = []string{":=", "<=", ">=", "!=", "~=", "{{"}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]

	// Optimizer hint comment.
	if strings.HasPrefix(l.src[l.pos:], "/*+") {
		end := strings.Index(l.src[l.pos:], "*/")
		if end < 0 {
			return token{}, fmt.Errorf("aql: unterminated hint comment at offset %d", start)
		}
		text := strings.TrimSpace(l.src[l.pos+3 : l.pos+end])
		l.pos += end + 2
		return token{kind: tokHint, text: text, pos: start}, nil
	}

	// Variables.
	if c == '$' {
		l.pos++
		name := l.readIdent()
		if name == "" {
			return token{}, fmt.Errorf("aql: expected variable name after '$' at offset %d", start)
		}
		return token{kind: tokVariable, text: name, pos: start}, nil
	}

	// Strings (double or single quoted).
	if c == '"' || c == '\'' {
		s, n, err := adm.ParseString(l.src[l.pos:])
		if err != nil {
			return token{}, fmt.Errorf("aql: %w at offset %d", err, start)
		}
		l.pos += n
		return token{kind: tokString, text: s, pos: start}, nil
	}

	// Numbers. One out of its type's range is an error only if no '-' just
	// before it brings it into range (-128i8), which the parser decides.
	if c >= '0' && c <= '9' {
		v, n, _ := adm.ParseNumber(l.src[l.pos:])
		l.pos += n
		return token{kind: tokNumber, text: l.src[start:l.pos], val: v, pos: start}, nil
	}

	// Identifiers and keywords.
	if adm.IsIdentStart(c) {
		id := l.readIdent()
		return token{kind: tokIdent, text: id, pos: start}, nil
	}

	// Multi-character symbols.
	for _, sym := range multiSymbols {
		if strings.HasPrefix(l.src[l.pos:], sym) {
			l.pos += len(sym)
			return token{kind: tokSymbol, text: sym, pos: start}, nil
		}
	}

	// Single-character symbols.
	switch c {
	case '(', ')', '{', '}', '[', ']', ',', ';', ':', '.', '=', '<', '>', '+', '-', '*', '/', '%', '?':
		l.pos++
		return token{kind: tokSymbol, text: string(c), pos: start}, nil
	}
	return token{}, fmt.Errorf("aql: unexpected character %q at offset %d", c, start)
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// Line comments.
		if strings.HasPrefix(l.src[l.pos:], "//") || strings.HasPrefix(l.src[l.pos:], "--") {
			nl := strings.IndexByte(l.src[l.pos:], '\n')
			if nl < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += nl + 1
			continue
		}
		// Block comments that are NOT hints.
		if strings.HasPrefix(l.src[l.pos:], "/*") && !strings.HasPrefix(l.src[l.pos:], "/*+") {
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += end + 4
			continue
		}
		return
	}
}

// readIdent consumes the identifier characters at pos (adm.IdentLen).
func (l *lexer) readIdent() string {
	start := l.pos
	l.pos += adm.IdentLen(l.src[l.pos:])
	return l.src[start:l.pos]
}
