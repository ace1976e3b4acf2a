package adm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Value is an ADM data instance. Implementations are immutable after
// construction; the engine shares them freely across operators and
// partitions without copying.
type Value interface {
	// Tag returns the dynamic type of the value.
	Tag() TypeTag
	// String renders the value in ADM textual syntax (a superset of JSON),
	// which Parse and the AQL parser both read back as an equal value of
	// the same type.
	String() string
}

// ----------------------------------------------------------------------------
// Scalar values
// ----------------------------------------------------------------------------

// Missing is the ADM MISSING value: a field that is not present at all.
type Missing struct{}

// Null is the ADM NULL value: a field that is present but unknown.
type Null struct{}

// Boolean is an ADM boolean.
type Boolean bool

// Int8 is an ADM 8-bit signed integer.
type Int8 int8

// Int16 is an ADM 16-bit signed integer.
type Int16 int16

// Int32 is an ADM 32-bit signed integer.
type Int32 int32

// Int64 is an ADM 64-bit signed integer.
type Int64 int64

// Float is an ADM single-precision float.
type Float float32

// Double is an ADM double-precision float.
type Double float64

// String is an ADM UTF-8 string.
type String string

// Binary is an ADM byte string.
type Binary []byte

// UUID is an ADM universally unique identifier.
type UUID [16]byte

// Date is an ADM date: days since the Unix epoch.
type Date int32

// Time is an ADM time of day: milliseconds since midnight.
type Time int32

// Datetime is an ADM datetime: milliseconds since the Unix epoch (UTC).
type Datetime int64

// Duration is an ADM duration with a year-month part and a day-time
// (millisecond) part, mirroring the paper's duration / year-month-duration /
// day-time-duration family.
type Duration struct {
	Months int32
	Millis int64
}

// YearMonthDuration is a duration restricted to whole months.
type YearMonthDuration int32

// DayTimeDuration is a duration restricted to milliseconds.
type DayTimeDuration int64

// Interval is an ADM interval over one of the temporal point types.
// PointTag is TagDate, TagTime or TagDatetime; Start and End are the
// underlying chronon values (days or milliseconds) with Start <= End.
type Interval struct {
	PointTag TypeTag
	Start    int64
	End      int64
}

// Point is an ADM 2-d point.
type Point struct {
	X, Y float64
}

// Line is an ADM line segment between two points.
type Line struct {
	A, B Point
}

// Rectangle is an ADM axis-aligned rectangle given by its lower-left and
// upper-right corners.
type Rectangle struct {
	LowerLeft, UpperRight Point
}

// Circle is an ADM circle.
type Circle struct {
	Center Point
	Radius float64
}

// Polygon is an ADM simple polygon given by its vertices in order.
type Polygon struct {
	Points []Point
}

// ----------------------------------------------------------------------------
// Structured values
// ----------------------------------------------------------------------------

// Field is a single named field of a Record.
type Field struct {
	Name  string
	Value Value
}

// Record is an ADM record (object). Field order is preserved as constructed;
// lookup by name is linear, which is fine for the small fan-outs typical of
// ADM records.
type Record struct {
	Fields []Field
}

// OrderedList is an ADM ordered list ([ ... ]).
type OrderedList struct {
	Items []Value
}

// UnorderedList is an ADM bag ({{ ... }}).
type UnorderedList struct {
	Items []Value
}

// ----------------------------------------------------------------------------
// Tag methods
// ----------------------------------------------------------------------------

func (Missing) Tag() TypeTag           { return TagMissing }
func (Null) Tag() TypeTag              { return TagNull }
func (Boolean) Tag() TypeTag           { return TagBoolean }
func (Int8) Tag() TypeTag              { return TagInt8 }
func (Int16) Tag() TypeTag             { return TagInt16 }
func (Int32) Tag() TypeTag             { return TagInt32 }
func (Int64) Tag() TypeTag             { return TagInt64 }
func (Float) Tag() TypeTag             { return TagFloat }
func (Double) Tag() TypeTag            { return TagDouble }
func (String) Tag() TypeTag            { return TagString }
func (Binary) Tag() TypeTag            { return TagBinary }
func (UUID) Tag() TypeTag              { return TagUUID }
func (Date) Tag() TypeTag              { return TagDate }
func (Time) Tag() TypeTag              { return TagTime }
func (Datetime) Tag() TypeTag          { return TagDatetime }
func (Duration) Tag() TypeTag          { return TagDuration }
func (YearMonthDuration) Tag() TypeTag { return TagYearMonthDuration }
func (DayTimeDuration) Tag() TypeTag   { return TagDayTimeDuration }
func (Interval) Tag() TypeTag          { return TagInterval }
func (Point) Tag() TypeTag             { return TagPoint }
func (Line) Tag() TypeTag              { return TagLine }
func (Rectangle) Tag() TypeTag         { return TagRectangle }
func (Circle) Tag() TypeTag            { return TagCircle }
func (Polygon) Tag() TypeTag           { return TagPolygon }
func (*Record) Tag() TypeTag           { return TagRecord }
func (*OrderedList) Tag() TypeTag      { return TagOrderedList }
func (*UnorderedList) Tag() TypeTag    { return TagUnorderedList }

// ----------------------------------------------------------------------------
// String methods (ADM textual syntax)
// ----------------------------------------------------------------------------

func (Missing) String() string { return "missing" }
func (Null) String() string    { return "null" }

func (b Boolean) String() string {
	if b {
		return "true"
	}
	return "false"
}

func (v Int8) String() string  { return strconv.FormatInt(int64(v), 10) + "i8" }
func (v Int16) String() string { return strconv.FormatInt(int64(v), 10) + "i16" }
func (v Int32) String() string { return strconv.FormatInt(int64(v), 10) }
func (v Int64) String() string { return strconv.FormatInt(int64(v), 10) + "i64" }

func (v Float) String() string {
	if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
		return `float("` + strconv.FormatFloat(f, 'g', -1, 32) + `")`
	}
	return strconv.FormatFloat(float64(v), 'g', -1, 32) + "f"
}

// A Double's text has a '.' or an exponent, so it reads back as a double;
// NaN and the infinities, which have no literal, are constructor calls.
func (v Double) String() string {
	f := float64(v)
	s := strconv.FormatFloat(f, 'g', -1, 64)
	switch {
	case math.IsNaN(f) || math.IsInf(f, 0):
		return `double("` + s + `")`
	case !strings.ContainsAny(s, ".e"):
		return s + ".0"
	}
	return s
}

// A string's text is its NDJSON rendering, which ParseString reads back.
func (v String) String() string { return string(appendJSONString(nil, string(v))) }

// A binary, UUID, temporal or duration value's ADM text is its constructor
// applied to the string literal AppendJSON writes for it.

func (v Binary) String() string { return "hex(" + string(appendJSONHex(nil, v)) + ")" }

func (v UUID) String() string { return "uuid(" + string(appendJSONUUID(nil, v[:])) + ")" }

func (v Date) String() string { return "date(" + string(appendJSONDate(nil, int64(v))) + ")" }

func (v Time) String() string { return "time(" + string(appendJSONTime(nil, int64(v))) + ")" }

func (v Datetime) String() string {
	return "datetime(" + string(appendJSONDatetime(nil, int64(v))) + ")"
}

func (v Duration) String() string {
	return "duration(" + string(appendJSONDuration(nil, v.Months, v.Millis)) + ")"
}

func (v YearMonthDuration) String() string {
	return "year-month-duration(" + string(appendJSONDuration(nil, int32(v), 0)) + ")"
}

func (v DayTimeDuration) String() string {
	return "day-time-duration(" + string(appendJSONDuration(nil, 0, int64(v))) + ")"
}

// appendDuration appends an ISO-8601 style duration literal such as
// "P1Y2M3DT4H5M6.007S".
func appendDuration(dst []byte, months int32, millis int64) []byte {
	start := len(dst)
	neg := months < 0 || millis < 0
	if neg {
		dst = append(dst, '-')
	}
	if months < 0 {
		months = -months
	}
	if millis < 0 {
		millis = -millis
	}
	dst = append(dst, 'P')
	unit := func(dst []byte, n int64, u byte) []byte {
		if n > 0 {
			dst = append(strconv.AppendInt(dst, n, 10), u)
		}
		return dst
	}
	dst = unit(dst, int64(months/12), 'Y')
	dst = unit(dst, int64(months%12), 'M')
	dst = unit(dst, millis/86400000, 'D')
	if millis %= 86400000; millis > 0 {
		dst = append(dst, 'T')
		dst = unit(dst, millis/3600000, 'H')
		dst = unit(dst, millis%3600000/60000, 'M')
		if s, ms := millis%60000/1000, millis%1000; ms > 0 {
			dst = appendPadded(append(strconv.AppendInt(dst, s, 10), '.'), ms, 3)
			dst = append(dst, 'S')
		} else {
			dst = unit(dst, s, 'S')
		}
	}
	if n := len(dst) - start; n == 1 || (neg && n == 2) {
		dst = append(dst, "T0S"...)
	}
	return dst
}

func (v Interval) String() string {
	bound := func(chronon int64) Value {
		switch v.PointTag {
		case TagDate:
			return Date(chronon)
		case TagTime:
			return Time(chronon)
		}
		return Datetime(chronon)
	}
	return "interval(" + bound(v.Start).String() + ", " + bound(v.End).String() + ")"
}

func fmtCoord(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func (v Point) String() string {
	return fmt.Sprintf(`point("%s,%s")`, fmtCoord(v.X), fmtCoord(v.Y))
}

func (v Line) String() string {
	return fmt.Sprintf(`line("%s,%s %s,%s")`, fmtCoord(v.A.X), fmtCoord(v.A.Y), fmtCoord(v.B.X), fmtCoord(v.B.Y))
}

func (v Rectangle) String() string {
	return fmt.Sprintf(`rectangle("%s,%s %s,%s")`,
		fmtCoord(v.LowerLeft.X), fmtCoord(v.LowerLeft.Y), fmtCoord(v.UpperRight.X), fmtCoord(v.UpperRight.Y))
}

func (v Circle) String() string {
	return fmt.Sprintf(`circle("%s,%s %s")`, fmtCoord(v.Center.X), fmtCoord(v.Center.Y), fmtCoord(v.Radius))
}

func (v Polygon) String() string {
	parts := make([]string, len(v.Points))
	for i, p := range v.Points {
		parts[i] = fmtCoord(p.X) + "," + fmtCoord(p.Y)
	}
	return fmt.Sprintf(`polygon("%s")`, strings.Join(parts, " "))
}

func (r *Record) String() string {
	var sb strings.Builder
	sb.WriteString("{ ")
	for i, f := range r.Fields {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.Write(appendJSONString(nil, f.Name))
		sb.WriteString(": ")
		sb.WriteString(f.Value.String())
	}
	sb.WriteString(" }")
	return sb.String()
}

func (l *OrderedList) String() string { return itemsString("[ ", l.Items, " ]") }

func (l *UnorderedList) String() string { return itemsString("{{ ", l.Items, " }}") }

func itemsString(open string, items []Value, close string) string {
	var sb strings.Builder
	sb.WriteString(open)
	for i, it := range items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	sb.WriteString(close)
	return sb.String()
}

// ----------------------------------------------------------------------------
// Record helpers
// ----------------------------------------------------------------------------

// NewRecord builds a record from alternating name/value pairs in order.
func NewRecord(fields ...Field) *Record {
	return &Record{Fields: fields}
}

// Get returns the value of the named field, or MISSING if the record has no
// such field.
func (r *Record) Get(name string) Value {
	for _, f := range r.Fields {
		if f.Name == name {
			return f.Value
		}
	}
	return Missing{}
}

// Has reports whether the record has a field with the given name.
func (r *Record) Has(name string) bool {
	for _, f := range r.Fields {
		if f.Name == name {
			return true
		}
	}
	return false
}

// Set returns a copy of the record with the named field set to v, replacing
// an existing field of the same name or appending a new one.
func (r *Record) Set(name string, v Value) *Record {
	out := &Record{Fields: make([]Field, len(r.Fields), len(r.Fields)+1)}
	copy(out.Fields, r.Fields)
	for i, f := range out.Fields {
		if f.Name == name {
			out.Fields[i].Value = v
			return out
		}
	}
	out.Fields = append(out.Fields, Field{Name: name, Value: v})
	return out
}

// FieldNames returns the record's field names in declaration order.
func (r *Record) FieldNames() []string {
	names := make([]string, len(r.Fields))
	for i, f := range r.Fields {
		names[i] = f.Name
	}
	return names
}

// SortedFields returns the record's fields sorted by name; used by record
// comparison.
func (r *Record) SortedFields() []Field {
	out := make([]Field, len(r.Fields))
	copy(out, r.Fields)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ----------------------------------------------------------------------------
// Numeric helpers
// ----------------------------------------------------------------------------

// IsNumeric reports whether v carries a numeric value.
func IsNumeric(v Value) bool { return v.Tag().IsNumeric() }

// NumericAsDouble converts any numeric value to float64. The boolean result
// is false for non-numeric values.
func NumericAsDouble(v Value) (float64, bool) {
	switch n := v.(type) {
	case Int8:
		return float64(n), true
	case Int16:
		return float64(n), true
	case Int32:
		return float64(n), true
	case Int64:
		return float64(n), true
	case Float:
		return float64(n), true
	case Double:
		return float64(n), true
	}
	return 0, false
}

// NumericAsInt64 converts any integer value to int64; floats are truncated.
// The boolean result is false for non-numeric values.
func NumericAsInt64(v Value) (int64, bool) {
	switch n := v.(type) {
	case Int8:
		return int64(n), true
	case Int16:
		return int64(n), true
	case Int32:
		return int64(n), true
	case Int64:
		return int64(n), true
	case Float:
		return int64(n), true
	case Double:
		return int64(n), true
	}
	return 0, false
}

// IsUnknown reports whether the value is NULL or MISSING.
func IsUnknown(v Value) bool {
	t := v.Tag()
	return t == TagNull || t == TagMissing
}

// Truthy evaluates the value as a boolean predicate result: only TRUE is
// truthy; NULL, MISSING, FALSE and every non-boolean are not.
func Truthy(v Value) bool {
	b, ok := v.(Boolean)
	return ok && bool(b)
}
