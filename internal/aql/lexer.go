package aql

import (
	"fmt"
	"strings"
	"unicode"

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

// lexer turns AQL source text into tokens. Ordinary comments are skipped;
// optimizer hint comments (/*+ ... */) are preserved as hint tokens. String
// and number literals are ADM's, read by adm.ParseString and
// adm.ParseNumber, so a value's text (Value.String, or a line of NDJSON
// output) means the same here as in a data file.
type lexer struct {
	src string
	pos int
}

// lex tokenizes the whole input up front; AQL statements are short enough
// that a streaming lexer buys nothing. The slice is sized for a token per
// four bytes (record literals average five to eight), so that a long insert
// statement's tokens are not copied as the slice grows.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	tokens := make([]token, 0, len(src)/4+1)
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		tokens = append(tokens, tok)
		if tok.kind == tokEOF {
			return tokens, nil
		}
	}
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
	if unicode.IsLetter(rune(c)) || c == '_' {
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

// readIdent consumes an identifier; AQL identifiers may contain '-', matching
// ADM field names like "user-since", but a '-' followed by a space or digit
// boundary is left for the expression parser to treat as minus.
func (l *lexer) readIdent() string {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' {
			l.pos++
			continue
		}
		// Allow '-' inside identifiers only when followed by a letter, so
		// "user-since" lexes as one identifier but "a - 1" does not.
		if c == '-' && l.pos+1 < len(l.src) && unicode.IsLetter(rune(l.src[l.pos+1])) && l.pos > start {
			l.pos++
			continue
		}
		break
	}
	return l.src[start:l.pos]
}
