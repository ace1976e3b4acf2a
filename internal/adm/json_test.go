package adm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestAppendJSONIsValidJSON renders one value of every kind and asserts the
// output parses as JSON.
func TestAppendJSONIsValidJSON(t *testing.T) {
	values := []Value{
		Missing{}, Null{}, Boolean(true),
		Int8(-1), Int16(2), Int32(-3), Int64(4),
		Float(1.5), Double(math.Pi), Double(math.NaN()), Double(math.Inf(1)),
		String("hello \"world\"\nnon-ascii: é"),
		Binary{0xde, 0xad}, UUID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Date(16121), Time(30600000),
		Datetime(time.Date(2014, 2, 20, 8, 0, 0, 0, time.UTC).UnixMilli()),
		Duration{Months: 14, Millis: 90061007},
		YearMonthDuration(25), DayTimeDuration(86400000),
		Interval{PointTag: TagDatetime, Start: 0, End: 1000},
		Point{X: 41.66, Y: 80.87},
		Line{A: Point{0, 0}, B: Point{1, 1}},
		Rectangle{LowerLeft: Point{0, 0}, UpperRight: Point{2, 2}},
		Circle{Center: Point{1, 1}, Radius: 0.5},
		Polygon{Points: []Point{{0, 0}, {1, 0}, {0, 1}}},
		NewRecord(
			Field{Name: "id", Value: Int32(7)},
			Field{Name: "loc", Value: Point{1, 2}},
			Field{Name: "tags", Value: &UnorderedList{Items: []Value{String("a"), String("b")}}},
		),
		&OrderedList{Items: []Value{Int32(1), Null{}, String("x")}},
	}
	for _, v := range values {
		b := AppendJSON(nil, v)
		var out any
		if err := json.Unmarshal(b, &out); err != nil {
			t.Errorf("%s: invalid JSON %q: %v", v.Tag(), b, err)
		}
	}
}

func TestAppendJSONShapes(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Missing{}, `null`},
		{Int32(42), `42`},
		{String("hi"), `"hi"`},
		{Datetime(time.Date(2014, 2, 20, 8, 0, 0, 0, time.UTC).UnixMilli()), `"2014-02-20T08:00:00.000"`},
		{Date(0), `"1970-01-01"`},
		{Point{X: 1.5, Y: -2}, `[1.5,-2]`},
		{Double(math.NaN()), `null`},
		{NewRecord(Field{Name: "a", Value: Int32(1)}, Field{Name: "b", Value: Null{}}), `{"a":1,"b":null}`},
		{&UnorderedList{Items: []Value{Int32(1), Int32(2)}}, `[1,2]`},
		{DayTimeDuration(86400000), `"P1D"`},
		// Dates before 1970 and before year 0, a negative time of day, and
		// a negative duration whose parts are all out of range.
		{Date(-1), `"1969-12-31"`},
		{Date(-719528), `"0000-01-01"`},
		{Date(-719529), `"-001-12-31"`},
		{Datetime(-1), `"1969-12-31T23:59:59.999"`},
		{Datetime(-62167219200001), `"-001-12-31T23:59:59.999"`},
		{Time(-1), `"00:00:00.-01"`},
		{YearMonthDuration(math.MinInt32), `"-PT0S"`},
	}
	for _, c := range cases {
		if got := string(AppendJSON(nil, c.v)); got != c.want {
			t.Errorf("AppendJSON(%s) = %s, want %s", c.v, got, c.want)
		}
	}
}

// FuzzAppendJSON: for a value of any kind DecodeValue knows, and for a record
// holding it stored in the schema and in the self-describing layout,
// AppendJSON writes what the reference renderer below writes, byte for byte:
// of the value itself, of the record's lazy view (which must stay
// unmaterialized), of its eager decode, and of the view once materialized.
// The ADM text of the kinds that share AppendJSON's formatters is pinned the
// same way. Run with
//
//	go test -run='^$' -fuzz=FuzzAppendJSON -fuzztime=15s ./internal/adm
func FuzzAppendJSON(f *testing.F) {
	for tag := byte(0); tag < drawKinds; tag++ {
		f.Add([]byte{tag, 0xF0 + tag, 0x81, 0xFF, 0x00, 0x7F, 0x80, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 300; i++ {
		seed := make([]byte, 8+rng.Intn(120))
		rng.Read(seed)
		f.Add(seed)
	}
	typ := &RecordType{Name: "J", Open: true, Fields: []FieldType{
		{Name: "a", Type: Prim(TagInt32), Optional: true},
		{Name: "b", Type: Prim(TagString), Optional: true},
		{Name: "c", Type: Prim(TagDouble), Optional: true},
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &valueDraw{b: data}
		v := d.value(0)
		rec := NewRecord(Field{Name: "a", Value: v})
		for n := d.byte() % 4; n > 0; n-- {
			name := []string{"a", "b", "c", d.string()}[d.byte()%4]
			rec.Fields = append(rec.Fields, Field{Name: name, Value: d.value(1)})
		}
		if got, want := AppendJSON(nil, v), referenceJSON(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("%s %v:\n got %q\nwant %q", v.Tag(), v, got, want)
		}
		if want, ok := referenceText(v); ok && v.String() != want {
			t.Fatalf("%s text:\n got %s\nwant %s", v.Tag(), v.String(), want)
		}
		for _, enc := range []Encoding{SchemaEncoding, SelfDescribingEncoding} {
			ser := NewSerializer(typ, enc)
			raw, err := ser.Encode(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			lv, _, err := ser.DecodeLazy(raw, nil)
			if err != nil {
				t.Fatal(err)
			}
			lr := lv.(*LazyRecord)
			ev, _, err := ser.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceJSON(nil, ev)
			if got := AppendJSON(nil, lr); !bytes.Equal(got, want) {
				t.Fatalf("%s view of %v:\n got %q\nwant %q", enc, rec, got, want)
			}
			if full, _ := lr.Resident(); full != nil {
				t.Fatalf("%s view: AppendJSON materialized the record", enc)
			}
			if got := AppendJSON(nil, ev); !bytes.Equal(got, want) {
				t.Fatalf("%s decode of %v:\n got %q\nwant %q", enc, rec, got, want)
			}
			lr.Materialize()
			if got := AppendJSON(nil, lr); !bytes.Equal(got, want) {
				t.Fatalf("%s materialized view of %v:\n got %q\nwant %q", enc, rec, got, want)
			}
		}
	})
}

// valueDraw turns fuzz bytes into ADM values; reads past the end yield zeros.
type valueDraw struct{ b []byte }

func (d *valueDraw) byte() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *valueDraw) uint64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(d.byte())
	}
	return x
}

// int64 draws a number whose magnitude spreads over every width: the raw
// bits shifted right by a drawn amount, so small and negative values (dates
// just before 1970, times of day) come up as often as huge ones.
func (d *valueDraw) int64() int64 {
	return int64(d.uint64()) >> (d.byte() % 64)
}

func (d *valueDraw) float64() float64 {
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

// jsonFuzzStrings are the strings whose escaping differs most between
// renderers: HTML characters, every short and long control escape, DEL, the
// two JavaScript line terminators, invalid and truncated UTF-8, a surrogate
// half, and multi-byte text.
var jsonFuzzStrings = []string{
	"", `<a href="x">&amp;</a>`, "\x00\x01\b\f\n\r\t\x1f\x7f\\/",
	"\xe2\x80\xa8 and \xe2\x80\xa9", "\xff\xfe", "h\xc3llo", "h\xc3\xa9llo w\xc3\xb6rld \xe2\x9c\x93",
	"\xf0\x9f\x98\x80", "\xed\xa0\x80", "\xe2\x80", "tail \xe2\x80\xa8",
}

func (d *valueDraw) string() string {
	n := int(d.byte())
	if n >= 0xF0 {
		return jsonFuzzStrings[(n-0xF0)%len(jsonFuzzStrings)]
	}
	n = min(n%24, len(d.b))
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *valueDraw) point() Point { return Point{X: d.float64(), Y: d.float64()} }

// drawKinds is the number of value kinds value draws from.
const drawKinds = 28

func (d *valueDraw) value(depth int) Value {
	switch d.byte() % drawKinds {
	case 0:
		return Missing{}
	case 1:
		return Null{}
	case 2:
		return Boolean(d.byte()&1 == 1)
	case 3:
		return Int8(d.byte())
	case 4:
		return Int16(d.int64())
	case 5:
		return Int32(d.int64())
	case 6:
		return Int64(d.int64())
	case 7:
		return Float(d.float64())
	case 8:
		return Double(d.float64())
	case 9:
		return String(d.string())
	case 10:
		return Binary(d.string())
	case 11:
		var u UUID
		for i := range u {
			u[i] = d.byte()
		}
		return u
	case 12:
		return Date(d.int64())
	case 13:
		return Time(d.int64())
	case 14:
		return Datetime(d.int64())
	case 15:
		return Duration{Months: int32(d.int64()), Millis: d.int64()}
	case 16:
		return YearMonthDuration(d.int64())
	case 17:
		return DayTimeDuration(d.int64())
	case 18:
		tag := []TypeTag{TagDate, TagTime, TagDatetime, TagInt32}[d.byte()%4]
		return Interval{PointTag: tag, Start: d.int64(), End: d.int64()}
	case 19:
		return d.point()
	case 20:
		return Line{A: d.point(), B: d.point()}
	case 21:
		return Rectangle{LowerLeft: d.point(), UpperRight: d.point()}
	case 22:
		return Circle{Center: d.point(), Radius: d.float64()}
	case 23:
		pts := make([]Point, d.byte()%4)
		for i := range pts {
			pts[i] = d.point()
		}
		return Polygon{Points: pts}
	}
	if depth >= 3 {
		return Int32(d.int64())
	}
	items := make([]Value, d.byte()%4)
	for i := range items {
		items[i] = d.value(depth + 1)
	}
	switch d.byte() % 3 {
	case 0:
		return &OrderedList{Items: items}
	case 1:
		return &UnorderedList{Items: items}
	}
	rec := &Record{}
	for _, it := range items {
		rec.Fields = append(rec.Fields, Field{Name: d.string(), Value: it})
	}
	return rec
}

// referenceJSON is the renderer AppendJSON replaced, kept as the reference
// it must match byte for byte: it materializes lazy records, escapes strings
// with json.Marshal and formats temporal values with time and fmt.
func referenceJSON(dst []byte, v Value) []byte {
	if lr, ok := v.(*LazyRecord); ok {
		v = lr.Materialize()
	}
	switch x := v.(type) {
	case Missing, Null:
		return append(dst, "null"...)
	case Boolean:
		if x {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case Int8:
		return strconv.AppendInt(dst, int64(x), 10)
	case Int16:
		return strconv.AppendInt(dst, int64(x), 10)
	case Int32:
		return strconv.AppendInt(dst, int64(x), 10)
	case Int64:
		return strconv.AppendInt(dst, int64(x), 10)
	case Float:
		return referenceFloat(dst, float64(x), 32)
	case Double:
		return referenceFloat(dst, float64(x), 64)
	case String:
		return referenceString(dst, string(x))
	case Binary:
		return referenceString(dst, fmt.Sprintf("%x", []byte(x)))
	case UUID:
		return referenceString(dst, fmt.Sprintf("%x-%x-%x-%x-%x", x[0:4], x[4:6], x[6:8], x[8:10], x[10:16]))
	case Date:
		t := time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, int(x))
		return referenceString(dst, fmt.Sprintf("%04d-%02d-%02d", t.Year(), t.Month(), t.Day()))
	case Time:
		ms := int64(x)
		h, ms := ms/3600000, ms%3600000
		m, ms := ms/60000, ms%60000
		s, ms := ms/1000, ms%1000
		return referenceString(dst, fmt.Sprintf("%02d:%02d:%02d.%03d", h, m, s, ms))
	case Datetime:
		t := time.UnixMilli(int64(x)).UTC()
		return referenceString(dst, fmt.Sprintf("%04d-%02d-%02dT%02d:%02d:%02d.%03d",
			t.Year(), t.Month(), t.Day(), t.Hour(), t.Minute(), t.Second(), t.Nanosecond()/1e6))
	case Duration:
		return referenceString(dst, referenceDuration(x.Months, x.Millis))
	case YearMonthDuration:
		return referenceString(dst, referenceDuration(int32(x), 0))
	case DayTimeDuration:
		return referenceString(dst, referenceDuration(0, int64(x)))
	case Interval:
		bound := func(c int64) Value {
			switch x.PointTag {
			case TagDate:
				return Date(c)
			case TagTime:
				return Time(c)
			}
			return Datetime(c)
		}
		dst = referenceJSON(append(dst, `{"start":`...), bound(x.Start))
		dst = referenceJSON(append(dst, `,"end":`...), bound(x.End))
		return append(dst, '}')
	case Point:
		return referencePoint(dst, x)
	case Line:
		dst = referencePoint(append(dst, `{"a":`...), x.A)
		dst = referencePoint(append(dst, `,"b":`...), x.B)
		return append(dst, '}')
	case Rectangle:
		dst = referencePoint(append(dst, `{"lower-left":`...), x.LowerLeft)
		dst = referencePoint(append(dst, `,"upper-right":`...), x.UpperRight)
		return append(dst, '}')
	case Circle:
		dst = referencePoint(append(dst, `{"center":`...), x.Center)
		dst = referenceFloat(append(dst, `,"radius":`...), x.Radius, 64)
		return append(dst, '}')
	case Polygon:
		dst = append(dst, '[')
		for i, p := range x.Points {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = referencePoint(dst, p)
		}
		return append(dst, ']')
	case *Record:
		dst = append(dst, '{')
		for i, f := range x.Fields {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = referenceJSON(append(referenceString(dst, f.Name), ':'), f.Value)
		}
		return append(dst, '}')
	case *OrderedList:
		return referenceList(dst, x.Items)
	case *UnorderedList:
		return referenceList(dst, x.Items)
	}
	return referenceString(dst, v.String())
}

func referenceList(dst []byte, items []Value) []byte {
	dst = append(dst, '[')
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = referenceJSON(dst, it)
	}
	return append(dst, ']')
}

func referencePoint(dst []byte, p Point) []byte {
	dst = referenceFloat(append(dst, '['), p.X, 64)
	dst = referenceFloat(append(dst, ','), p.Y, 64)
	return append(dst, ']')
}

func referenceFloat(dst []byte, f float64, bits int) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, bits)
}

func referenceString(dst []byte, s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return append(dst, b...)
}

// referenceDuration is the duration formatter appendDuration replaced.
func referenceDuration(months int32, millis int64) string {
	var sb strings.Builder
	neg := false
	if months < 0 || millis < 0 {
		neg = true
		if months < 0 {
			months = -months
		}
		if millis < 0 {
			millis = -millis
		}
	}
	if neg {
		sb.WriteByte('-')
	}
	sb.WriteByte('P')
	years := months / 12
	months %= 12
	if years > 0 {
		fmt.Fprintf(&sb, "%dY", years)
	}
	if months > 0 {
		fmt.Fprintf(&sb, "%dM", months)
	}
	days := millis / 86400000
	millis %= 86400000
	if days > 0 {
		fmt.Fprintf(&sb, "%dD", days)
	}
	if millis > 0 {
		sb.WriteByte('T')
		h := millis / 3600000
		millis %= 3600000
		m := millis / 60000
		millis %= 60000
		s := millis / 1000
		ms := millis % 1000
		if h > 0 {
			fmt.Fprintf(&sb, "%dH", h)
		}
		if m > 0 {
			fmt.Fprintf(&sb, "%dM", m)
		}
		if s > 0 || ms > 0 {
			if ms > 0 {
				fmt.Fprintf(&sb, "%d.%03dS", s, ms)
			} else {
				fmt.Fprintf(&sb, "%dS", s)
			}
		}
	}
	if sb.Len() == 1 || (neg && sb.Len() == 2) {
		sb.WriteString("T0S")
	}
	return sb.String()
}

// referenceText is the ADM text the String methods of the kinds that now
// share AppendJSON's formatters wrote with time and fmt; ok is false for the
// other kinds.
func referenceText(v Value) (string, bool) {
	switch x := v.(type) {
	case Binary:
		return fmt.Sprintf(`hex("%x")`, []byte(x)), true
	case UUID:
		return fmt.Sprintf(`uuid("%x-%x-%x-%x-%x")`, x[0:4], x[4:6], x[6:8], x[8:10], x[10:16]), true
	case Date:
		t := time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, int(x))
		return fmt.Sprintf(`date("%04d-%02d-%02d")`, t.Year(), t.Month(), t.Day()), true
	case Time:
		ms := int64(x)
		h := ms / 3600000
		ms -= h * 3600000
		m := ms / 60000
		ms -= m * 60000
		s := ms / 1000
		ms -= s * 1000
		return fmt.Sprintf(`time("%02d:%02d:%02d.%03d")`, h, m, s, ms), true
	case Datetime:
		t := time.UnixMilli(int64(x)).UTC()
		return fmt.Sprintf(`datetime("%04d-%02d-%02dT%02d:%02d:%02d.%03d")`,
			t.Year(), t.Month(), t.Day(), t.Hour(), t.Minute(), t.Second(), t.Nanosecond()/1e6), true
	case Duration:
		return fmt.Sprintf(`duration("%s")`, referenceDuration(x.Months, x.Millis)), true
	case YearMonthDuration:
		return fmt.Sprintf(`year-month-duration("%s")`, referenceDuration(int32(x), 0)), true
	case DayTimeDuration:
		return fmt.Sprintf(`day-time-duration("%s")`, referenceDuration(0, int64(x))), true
	}
	return "", false
}
