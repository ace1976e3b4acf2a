package aql_test

import (
	"strings"
	"testing"

	"asterixdb/internal/aql"
	"asterixdb/internal/workload"
)

// Text adm reads as a literal must mean what the parser's constructors make
// of it, or the fast path would change what a statement means. Each row is
// pinned to its outcome before adm read literal spans: the identifier rule
// (a '-' only before a letter, no digit first), no unary '+', single-quoted
// strings. A repeated field name is refused on both paths, and so, since
// items need their commas, is a list whose items lack one or end in one.
func TestLiteralSyntax(t *testing.T) {
	cases := []struct {
		src, err string // src's error, empty when src parses
		want     string // the value's text
	}{
		{src: `{a-1: 2}`, err: `aql: parse error near "-" (offset 2): expected ":"`},
		{src: `{1a: 2}`, err: `aql: parse error near "1" (offset 1): expected identifier`},
		{src: `{a-: 2}`, err: `aql: parse error near "-" (offset 2): expected ":"`},
		{src: `{-a: 2}`, err: `aql: parse error near "-" (offset 1): expected identifier`},
		{src: `[+5]`, err: `aql: parse error near "+" (offset 1): unexpected token`},
		{src: `{"a": +5}`, err: `aql: parse error near "+" (offset 6): unexpected token`},
		{src: `{"id": 1, "id": 2}`, err: `aql: parse error near ":" (offset 14): repeated field name "id"`},
		{src: `{"id": 3, "x": 1, x: 2}`, err: `aql: parse error near ":" (offset 19): repeated field name "x"`},
		{src: `{"x": $x, "x": 2}`, err: `aql: parse error near ":" (offset 13): repeated field name "x"`},
		{src: `['a']`, want: `[ "a" ]`},
		{src: `{'k': 'v', user-since: 1}`, want: `{ "k": "v", "user-since": 1 }`},
		{src: `[1, 2,]`, err: `aql: parse error near "]" (offset 6): unexpected token`},
		{src: `[1 2]`, err: `aql: parse error near "2" (offset 3): expected ',' or "]"`},
		{src: `[- 5]`, want: `[ -5 ]`},
	}
	for _, c := range cases {
		// The comment moves an error's offset, not its text.
		_, reason, _ := strings.Cut(c.err, "): ")
		for _, src := range []string{c.src, c.src[:1] + "/**/" + c.src[1:]} {
			got, err := evalText(src)
			switch {
			case c.err != "" && (err == nil || !strings.HasSuffix(err.Error(), "): "+reason)):
				t.Errorf("%s: %v, %v; want error %q", src, got, err, c.err)
			case c.err != "" && src == c.src && err.Error() != c.err:
				t.Errorf("%s: %v; want %q", src, err, c.err)
			case c.err == "" && (err != nil || got.String() != c.want):
				t.Errorf("%s = %v, %v; want %s", src, got, err, c.want)
			}
		}
	}
	// A literal adm reads whole is one value; with a comment in it, the
	// parser builds the same value from a constructor.
	if e, err := aql.ParseQuery(`['a']`); err != nil {
		t.Errorf(`['a']: %v`, err)
	} else if lit, ok := e.(*aql.Literal); !ok || lit.Value.String() != `[ "a" ]` {
		t.Errorf(`['a'] parses to %T %v, want the literal [ "a" ]`, e, e)
	}
	if e, err := aql.ParseQuery(`[/**/'a']`); err != nil {
		t.Errorf(`[/**/'a']: %v`, err)
	} else if _, ok := e.(*aql.ListConstructor); !ok {
		t.Errorf(`[/**/'a'] parses to %T, want a list constructor`, e)
	}
}

// BenchmarkParseInsert parses one 500-record insert statement per
// operation, written as the benchmark's set-up and ingest write theirs.
//
//	go test -run '^$' -bench ParseInsert -benchmem ./internal/aql
func BenchmarkParseInsert(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("insert into dataset Messages ([")
	for i, r := range workload.New(workload.Config{Messages: 500, Seed: 1}).Messages() {
		if i > 0 {
			sb.WriteString(",\n")
		}
		sb.WriteString(r.String())
	}
	sb.WriteString("]);")
	src := sb.String()
	b.SetBytes(int64(len(src)))
	for b.Loop() {
		if _, err := aql.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
