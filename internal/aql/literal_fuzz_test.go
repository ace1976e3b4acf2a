package aql_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
)

// FuzzADMText checks that adm is the one owner of literal syntax: a value of
// any kind, rendered by Value.String, reads back as itself through adm.Parse
// and through AQL, where adm reads the literal whole and where the parser
// builds it from constructors, and a JSON-shaped value's NDJSON line reads
// back as an AQL literal.
//
//   - adm.Parse(v.String()) is adm.Equal to v, with the same tag and text;
//   - aql.ParseQuery(v.String()) evaluated by expr.Eval gives the same;
//   - so does the text with "/**/" after every opening bracket
//     (commentedText), which AQL skips and adm refuses, so that the parser
//     builds every record, list and bag from its items;
//   - for records, lists, strings, finite doubles, integers, booleans and
//     null, expr.Eval of aql.ParseQuery(adm.AppendJSON(v)) is adm.Equal to
//     v. A float is left out of this one: its JSON digits are the shortest
//     that name it as a float, and read back as a different double.
//
// Run with
//
//	go test -run='^$' -fuzz=FuzzADMText -fuzztime=15s ./internal/aql
func FuzzADMText(f *testing.F) {
	for kind := byte(0); kind < textKinds; kind++ {
		f.Add([]byte{kind, 0xF0 + kind, 0x81, 0xFF, 0x00, 0x7F, 0x80, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	}
	rng := rand.New(rand.NewSource(50))
	for i := 0; i < 200; i++ {
		seed := make([]byte, 8+rng.Intn(120))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &textDraw{b: data}
		v := d.value(0)
		text := v.String()
		back, err := adm.Parse(text)
		if err != nil {
			t.Fatalf("adm.Parse(%s): %v", text, err)
		}
		if !sameValue(v, back) {
			t.Fatalf("adm.Parse(%s) = %s (%s), want %s", text, back, back.Tag(), v.Tag())
		}
		got, err := evalText(text)
		if err != nil {
			t.Fatalf("AQL %s: %v", text, err)
		}
		if !sameValue(v, got) {
			t.Fatalf("AQL %s = %s (%s), want %s", text, got, got.Tag(), v.Tag())
		}
		commented := commentedText(v)
		if got, err = evalText(commented); err != nil {
			t.Fatalf("AQL %s: %v", commented, err)
		}
		if !sameValue(v, got) {
			t.Fatalf("AQL %s = %s (%s), want %s", commented, got, got.Tag(), v.Tag())
		}
		if !jsonShaped(v) {
			return
		}
		line := string(adm.AppendJSON(nil, v))
		got, err = evalText(line)
		if err != nil {
			t.Fatalf("AQL of NDJSON %s: %v", line, err)
		}
		if !adm.Equal(v, got) {
			t.Fatalf("AQL of NDJSON %s = %s, want %s", line, got, text)
		}
	})
}

func evalText(src string) (adm.Value, error) {
	e, err := aql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return expr.Eval(expr.NewContext(), nil, e)
}

// FuzzLiteralSpan checks the parser's literal fast path against the
// constructor path on arbitrary text in a "[ … ]" or "{ … }" shell: the text
// as written, whose brackets adm.ParsePrefix may read as one value, and the
// text with "/**/" after the shell's opening bracket, a comment AQL skips
// and adm refuses, so that the parser builds the shell from its items. Both
// fail, or both evaluate to the same value or both to an error. Text that
// loops (a FLWOR or a quantifier) is only parsed, not evaluated.
//
// Run with
//
//	go test -run='^$' -fuzz=FuzzLiteralSpan -fuzztime=15s ./internal/aql
func FuzzLiteralSpan(f *testing.F) {
	for _, body := range []string{
		`1, 2`, `"a": 1`, `'a'`, `'k': 'v'`, `a-1: 2`, `1a: 2`, `a-: 2`, `-a: 2`, `+5`, `"a": +5`,
		`"id": 1, "id": 2`, `x: 1, "x": 2`, `{{1, {"b": [2]}}}`, `[1, [2, {"b": null}]]`,
		`x: datetime("2014-01-01T00:00:00"), y: interval(date("2014-01-01"), date("2014-02-01"))`,
		`- 5`, `-5i8`, `128i8`, `-128i8`, `1,`, `1 2`, `"a": {"b": 1}}`, `{"a": 1}}`, `TRUE, Null`,
		`boolean("yes")`, `boolean('true')`, `date("bad")`, `1 /* c */`, `"a": $x`, `[1, 2][0]`,
		`{"a": 1}.a`, `user-since: 1`, `a--b: 1`, `"é": 1`, `é: 1`, `missing`,
		`[[1, 2], $x], [3]`, strings.Repeat("[", 3000), `[1 2]`, `{{1,}}`, `f(1 2)`,
		`{"a": 1,}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		for _, shell := range [][2]string{{"[", "]"}, {"{", "}"}} {
			// The space keeps a shell's '{' from joining a body's into "{{".
			fast := shell[0] + " " + body + shell[1]
			slow := shell[0] + "/**/ " + body + shell[1]
			fe, ferr := aql.ParseQuery(fast)
			se, serr := aql.ParseQuery(slow)
			if (ferr == nil) != (serr == nil) {
				t.Fatalf("%s: %v, but %s: %v", fast, ferr, slow, serr)
			}
			if ferr != nil || loops(fe) || loops(se) {
				continue
			}
			fv, ferr := expr.Eval(expr.NewContext(), nil, fe)
			sv, serr := expr.Eval(expr.NewContext(), nil, se)
			if (ferr == nil) != (serr == nil) || ferr == nil && !sameValue(sv, fv) {
				t.Fatalf("%s = %v, %v; %s = %v, %v", fast, fv, ferr, slow, sv, serr)
			}
		}
	})
}

// loops reports whether e holds a FLWOR or a quantifier, whose evaluation
// arbitrary text can make as long as it likes.
func loops(e aql.Expr) bool {
	found := false
	aql.Rewrite(e, func(x aql.Expr, _ *aql.Scope) aql.Expr {
		switch x.(type) {
		case *aql.FLWORExpr, *aql.QuantifiedExpr:
			found = true
		}
		return x
	})
	return found
}

// commentedText is v.String() with "/**/" after every opening bracket.
func commentedText(v adm.Value) string {
	items := func(open string, vs []adm.Value, close string) string {
		parts := make([]string, len(vs))
		for i, it := range vs {
			parts[i] = commentedText(it)
		}
		return open + "/**/ " + strings.Join(parts, ", ") + close
	}
	switch x := v.(type) {
	case *adm.Record:
		parts := make([]string, len(x.Fields))
		for i, f := range x.Fields {
			parts[i] = adm.String(f.Name).String() + ": " + commentedText(f.Value)
		}
		return "{/**/ " + strings.Join(parts, ", ") + " }"
	case *adm.OrderedList:
		return items("[", x.Items, " ]")
	case *adm.UnorderedList:
		return items("{{", x.Items, " }}")
	}
	return v.String()
}

// sameValue compares values with adm.Equal, where they are comparable
// (lines, rectangles, circles and polygons are not), and by their text,
// which pins the tags of nested values and the order of record fields.
func sameValue(want, got adm.Value) bool {
	_, incomparable := adm.Compare(want, want)
	return want.Tag() == got.Tag() && want.String() == got.String() &&
		(incomparable != nil || adm.Equal(want, got))
}

// jsonShaped reports whether v is one of the kinds JSON carries as itself.
func jsonShaped(v adm.Value) bool {
	switch x := v.(type) {
	case adm.Null, adm.Boolean, adm.Int8, adm.Int16, adm.Int32, adm.Int64, adm.String:
		return true
	case adm.Double:
		return !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0)
	case *adm.Record:
		for _, f := range x.Fields {
			if !jsonShaped(f.Value) {
				return false
			}
		}
		return true
	case *adm.OrderedList:
		for _, it := range x.Items {
			if !jsonShaped(it) {
				return false
			}
		}
		return true
	}
	return false
}

// textDraw turns fuzz bytes into ADM values; reads past the end yield zeros.
type textDraw struct{ b []byte }

func (d *textDraw) byte() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *textDraw) uint64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(d.byte())
	}
	return x
}

// int64 draws a number whose magnitude spreads over every width.
func (d *textDraw) int64() int64 { return int64(d.uint64()) >> (d.byte() % 64) }

// in draws a number in [lo, hi].
func (d *textDraw) in(lo, hi int64) int64 { return lo + int64(d.uint64()%uint64(hi-lo+1)) }

func (d *textDraw) float64() float64 {
	switch d.byte() % 8 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return float64(d.int64()) / 1000
	}
	return math.Float64frombits(d.uint64())
}

// textStrings are the strings whose escaping is easiest to get wrong: quotes
// of both kinds, backslashes, every control byte JSON has a short escape
// for and some it has not, DEL, the HTML characters, the two JavaScript line
// terminators and astral runes, which JSON escapes as surrogate pairs.
var textStrings = []string{
	"", `it's "quoted" \ back\slash /`, "\x00\x01\b\f\n\r\t\x1f\x7f", "<b>&amp;</b>",
	"\U00002028 and \U00002029", "\U0001F600 \U0001D11E", "h\xc3\xa9llo w\xc3\xb6rld",
}

// string draws valid UTF-8: a value's text renders invalid bytes as U+FFFD,
// so only valid strings can read back byte for byte.
func (d *textDraw) string() string {
	n := int(d.byte())
	if n >= 0xF0 {
		return textStrings[(n-0xF0)%len(textStrings)]
	}
	n = min(n%24, len(d.b))
	s := string(d.b[:n])
	d.b = d.b[n:]
	return strings.ToValidUTF8(s, "\U0000FFFD")
}

func (d *textDraw) point() adm.Point { return adm.Point{X: d.float64(), Y: d.float64()} }

// The temporal kinds read back through time.Parse, whose layouts have four
// digit years: the range below is years 1 to 9999.
const (
	minDay, maxDay           = -719162, 2932896
	minDatetime, maxDatetime = minDay * 86400000, (maxDay+1)*86400000 - 1
)

// duration draws a duration's two parts with one sign, as its ISO-8601 text
// has one, and each small enough that the text's decimal parts are exact.
func (d *textDraw) duration() adm.Duration {
	months, millis := int32(d.in(0, 1<<30)), d.in(0, 1e15)
	if d.byte()&1 == 1 {
		months, millis = -months, -millis
	}
	return adm.Duration{Months: months, Millis: millis}
}

// textKinds is the number of value kinds value draws from.
const textKinds = 27

func (d *textDraw) value(depth int) adm.Value {
	kind := d.byte() % textKinds
	if depth >= 3 && kind >= 23 {
		kind = 8
	}
	switch kind {
	case 0:
		return adm.Null{}
	case 1:
		return adm.Boolean(d.byte()&1 == 1)
	case 2:
		return adm.Int8(d.byte())
	case 3:
		return adm.Int16(d.int64())
	case 4:
		return adm.Int32(d.int64())
	case 5:
		return adm.Int64(d.int64())
	case 6:
		return adm.Float(d.float64())
	case 7:
		return adm.Double(d.float64())
	case 8:
		return adm.String(d.string())
	case 9:
		return adm.Binary(d.string())
	case 10:
		var u adm.UUID
		for i := range u {
			u[i] = d.byte()
		}
		return u
	case 11:
		return adm.Date(d.in(minDay, maxDay))
	case 12:
		return adm.Time(d.in(0, 86400000-1))
	case 13:
		return adm.Datetime(d.in(minDatetime, maxDatetime))
	case 14:
		return d.duration()
	case 15:
		return adm.YearMonthDuration(d.duration().Months)
	case 16:
		return adm.DayTimeDuration(d.duration().Millis)
	case 17:
		var start, end adm.Value
		switch d.byte() % 3 {
		case 0:
			start, end = adm.Date(d.in(minDay, maxDay)), adm.Date(d.in(minDay, maxDay))
		case 1:
			start, end = adm.Time(d.in(0, 86400000-1)), adm.Time(d.in(0, 86400000-1))
		default:
			start, end = adm.Datetime(d.in(minDatetime, maxDatetime)), adm.Datetime(d.in(minDatetime, maxDatetime))
		}
		if adm.MustCompare(start, end) > 0 {
			start, end = end, start
		}
		iv, err := adm.NewInterval(start, end)
		if err != nil {
			panic(err)
		}
		return iv
	case 18:
		return d.point()
	case 19:
		return adm.Line{A: d.point(), B: d.point()}
	case 20:
		return adm.Rectangle{LowerLeft: d.point(), UpperRight: d.point()}
	case 21:
		return adm.Circle{Center: d.point(), Radius: d.float64()}
	case 22:
		pts := make([]adm.Point, 3+d.byte()%3)
		for i := range pts {
			pts[i] = d.point()
		}
		return adm.Polygon{Points: pts}
	case 23:
		// A record holds no MISSING field, and its names are distinct.
		rec := &adm.Record{}
		for n := d.byte() % 4; n > 0; n-- {
			name := d.string()
			if rec.Has(name) {
				continue
			}
			v := d.value(depth + 1)
			if v.Tag() == adm.TagMissing {
				v = adm.Null{}
			}
			rec.Fields = append(rec.Fields, adm.Field{Name: name, Value: v})
		}
		return rec
	case 24:
		return &adm.OrderedList{Items: d.items(depth)}
	case 25:
		return &adm.UnorderedList{Items: d.items(depth)}
	}
	if depth > 0 {
		return adm.Null{}
	}
	return adm.Missing{}
}

func (d *textDraw) items(depth int) []adm.Value {
	items := make([]adm.Value, d.byte()%4)
	for i := range items {
		if items[i] = d.value(depth + 1); items[i].Tag() == adm.TagMissing {
			items[i] = adm.Null{}
		}
	}
	return items
}
