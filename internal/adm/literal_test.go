package adm

import (
	"math"
	"testing"
)

func TestParseStringEscapes(t *testing.T) {
	cases := []struct{ lit, want string }{
		{`"plain"`, "plain"},
		{`'single'`, "single"},
		{`"\" \\ \/ \b \f \n \r \t"`, "\" \\ / \b \f \n \r \t"},
		{`'it\'s'`, "it's"},
		{`"\u003cb\u003e\u0026"`, "<b>&"},
		{`"\u2028\u2029"`, "\U00002028\U00002029"},
		{`"\ud83d\ude00"`, "\U0001F600"},
		{`"\ud83dx"`, "\U0000FFFDx"},
		{`"\ude00"`, "\U0000FFFD"},
		{`"\ud83d\u0041"`, "\U0000FFFDA"},
		{`"raw 😀 bytes"`, "raw \U0001F600 bytes"},
	}
	for _, c := range cases {
		got, n, err := ParseString(c.lit + " tail")
		if err != nil || got != c.want || n != len(c.lit) {
			t.Errorf("ParseString(%s) = %q, %d, %v; want %q, %d", c.lit, got, n, err, c.want, len(c.lit))
		}
	}
	for _, bad := range []string{`"unterminated`, `"\x01"`, `"\a"`, `"\u12"`, `"\u12g4"`, `x"`, ``, `"\`} {
		if got, _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%s) = %q, want an error", bad, got)
		}
	}
}

func TestParseNumberTyping(t *testing.T) {
	cases := []struct {
		lit  string
		want Value
		n    int
	}{
		{"5", Int32(5), 1},
		{"-5", Int32(-5), 2},
		{"2147483647", Int32(2147483647), 10},
		{"2147483648", Int64(2147483648), 10},
		{"-2147483648", Int32(-2147483648), 11},
		{"-9223372036854775808", Int64(math.MinInt64), 20},
		{"1i8", Int8(1), 3},
		{"-128i8", Int8(-128), 6},
		{"300i16", Int16(300), 6},
		{"7i32", Int32(7), 4},
		{"5i64", Int64(5), 4},
		{"1.5f", Float(1.5), 4},
		{"2d", Double(2), 2},
		{"1.5", Double(1.5), 3},
		{"1e3", Double(1000), 3},
		{"-2.5E-3", Double(-0.0025), 7},
		{"1e+06f", Float(1e6), 6},
		// A suffix followed by an identifier character is no suffix, and a
		// '.' or exponent with no digit after it ends the number.
		{"5i8x", Int32(5), 1},
		{"5fx", Int32(5), 1},
		{"1.x", Int32(1), 1},
		{"1e", Int32(1), 1},
		{"1e+", Int32(1), 1},
		{"3 ", Int32(3), 1},
	}
	for _, c := range cases {
		got, n, err := ParseNumber(c.lit)
		if err != nil || n != c.n || got.Tag() != c.want.Tag() || !Equal(got, c.want) {
			t.Errorf("ParseNumber(%q) = %v (%v), %d, %v; want %v (%s), %d", c.lit, got, got, n, err, c.want, c.want.Tag(), c.n)
		}
	}
	for _, bad := range []string{"", "-", "+5", "x1", ".5", "-.5", "128i8", "-129i8", "9223372036854775808", "1.5i32", "1e999d"} {
		if got, _, err := ParseNumber(bad); err == nil {
			t.Errorf("ParseNumber(%q) = %v, want an error", bad, got)
		}
	}
}

// Every value's ADM text parses back to an equal value of the same type.
func TestValueStringParsesBack(t *testing.T) {
	iv, _ := NewInterval(Date(10), Date(20))
	values := []Value{
		Int8(-128), Int16(32767), Int32(-2147483648), Int64(math.MinInt64), Int64(5),
		Float(1.5), Float(float32(math.Inf(-1))), Float(float32(math.NaN())), Float(1e6),
		Double(math.NaN()), Double(math.Inf(1)), Double(math.Inf(-1)), Double(math.Copysign(0, -1)), Double(1e21),
		String("\x01ctl <b>&\U00002028\U0001F600\x7f"),
		iv, DayTimeDuration(275336695412251), Duration{Months: -14, Millis: -1001},
		&Record{Fields: []Field{{Name: "a\tb", Value: String("\"q\"")}, {Name: "n", Value: &OrderedList{Items: []Value{Int8(-1), Double(2)}}}}},
	}
	for _, v := range values {
		got, err := Parse(v.String())
		if err != nil {
			t.Errorf("Parse(%s): %v", v, err)
			continue
		}
		if got.Tag() != v.Tag() || !Equal(got, v) {
			t.Errorf("Parse(%s) = %s (%s), want %s (%s)", v, got, got.Tag(), v, v.Tag())
		}
	}
}
