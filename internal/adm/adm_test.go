package adm

import (
	"bytes"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTagNames(t *testing.T) {
	if TagInt32.String() != "int32" {
		t.Errorf("TagInt32.String() = %q", TagInt32.String())
	}
	if TagDatetime.String() != "datetime" {
		t.Errorf("TagDatetime.String() = %q", TagDatetime.String())
	}
	if !TagInt64.IsNumeric() || TagString.IsNumeric() {
		t.Error("IsNumeric misclassifies")
	}
	if !TagDate.IsTemporal() || TagPoint.IsTemporal() {
		t.Error("IsTemporal misclassifies")
	}
	if !TagPolygon.IsSpatial() || TagString.IsSpatial() {
		t.Error("IsSpatial misclassifies")
	}
	if !TagOrderedList.IsCollection() || TagRecord.IsCollection() {
		t.Error("IsCollection misclassifies")
	}
}

func TestTagFromTypeName(t *testing.T) {
	cases := map[string]TypeTag{
		"int32": TagInt32, "int": TagInt32, "bigint": TagInt64,
		"string": TagString, "datetime": TagDatetime, "point": TagPoint,
	}
	for name, want := range cases {
		got, ok := TagFromTypeName(name)
		if !ok || got != want {
			t.Errorf("TagFromTypeName(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	if _, ok := TagFromTypeName("no-such-type"); ok {
		t.Error("TagFromTypeName accepted unknown name")
	}
}

func TestRecordAccessors(t *testing.T) {
	r := NewRecord(
		Field{Name: "id", Value: Int32(7)},
		Field{Name: "name", Value: String("alice")},
	)
	if got := r.Get("id"); MustCompare(got, Int32(7)) != 0 {
		t.Errorf("Get(id) = %v", got)
	}
	if r.Get("nope").Tag() != TagMissing {
		t.Error("Get of absent field should be MISSING")
	}
	if !r.Has("name") || r.Has("nope") {
		t.Error("Has misreports")
	}
	r2 := r.Set("name", String("bob"))
	if r.Get("name").(String) != "alice" {
		t.Error("Set mutated the original record")
	}
	if r2.Get("name").(String) != "bob" {
		t.Error("Set did not apply")
	}
	r3 := r.Set("extra", Boolean(true))
	if len(r3.Fields) != 3 {
		t.Error("Set should append new field")
	}
	names := r.FieldNames()
	if len(names) != 2 || names[0] != "id" || names[1] != "name" {
		t.Errorf("FieldNames = %v", names)
	}
}

func TestValueStrings(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int32(42), "42"},
		{Int64(42), "42i64"},
		{Boolean(true), "true"},
		{String("hi"), `"hi"`},
		{Null{}, "null"},
		{Missing{}, "missing"},
		{Double(1.5), "1.5"},
		{Double(2), "2.0"},
		{Point{X: 1, Y: 2}, `point("1,2")`},
		{Date(0), `date("1970-01-01")`},
		{Datetime(0), `datetime("1970-01-01T00:00:00.000")`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%T.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	lt := [][2]Value{
		{Int32(1), Int32(2)},
		{Int32(1), Int64(2)},
		{Int32(1), Double(1.5)},
		{String("a"), String("b")},
		{Boolean(false), Boolean(true)},
		{Date(1), Date(2)},
		{Datetime(10), Datetime(20)},
	}
	for _, pair := range lt {
		c, err := Compare(pair[0], pair[1])
		if err != nil {
			t.Fatalf("Compare(%v, %v): %v", pair[0], pair[1], err)
		}
		if c >= 0 {
			t.Errorf("Compare(%v, %v) = %d, want < 0", pair[0], pair[1], c)
		}
		c2, _ := Compare(pair[1], pair[0])
		if c2 <= 0 {
			t.Errorf("Compare(%v, %v) = %d, want > 0", pair[1], pair[0], c2)
		}
	}
	if !Equal(Int32(5), Int64(5)) {
		t.Error("numeric equality across widths should hold")
	}
}

func TestValidateOpenAndClosed(t *testing.T) {
	openType := &RecordType{
		Name: "OpenT",
		Open: true,
		Fields: []FieldType{
			{Name: "id", Type: Prim(TagInt32)},
			{Name: "note", Type: Prim(TagString), Optional: true},
		},
	}
	closedType := &RecordType{
		Name: "ClosedT",
		Open: false,
		Fields: []FieldType{
			{Name: "id", Type: Prim(TagInt32)},
		},
	}
	okOpen := NewRecord(
		Field{Name: "id", Value: Int32(1)},
		Field{Name: "extra", Value: String("x")},
	)
	if err := Validate(okOpen, openType); err != nil {
		t.Errorf("open type should allow extra fields: %v", err)
	}
	if err := Validate(okOpen, closedType); err == nil {
		t.Error("closed type must reject extra fields")
	}
	missingReq := NewRecord(Field{Name: "note", Value: String("x")})
	if err := Validate(missingReq, openType); err == nil {
		t.Error("missing required field must be rejected")
	}
	wrongType := NewRecord(Field{Name: "id", Value: String("1")})
	if err := Validate(wrongType, closedType); err == nil {
		t.Error("wrong field type must be rejected")
	}
}

func TestParseRoundTripBasic(t *testing.T) {
	inputs := []string{
		`42`,
		`-7`,
		`3.5`,
		`"hello world"`,
		`true`,
		`null`,
		`[1, 2, 3]`,
		`{{ "a", "b" }}`,
		`{ "id": 1, "tags": {{ "x" }}, "addr": { "city": "Irvine" } }`,
		`datetime("2014-01-01T00:00:00")`,
		`date("2012-06-05")`,
		`point("30.5,70.1")`,
		`duration("P30D")`,
	}
	for _, in := range inputs {
		v, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		// Re-parse the printed form and compare.
		v2, err := Parse(v.String())
		if err != nil {
			t.Fatalf("re-Parse(%q) from %q: %v", v.String(), in, err)
		}
		if MustCompare(v, v2) != 0 {
			t.Errorf("round trip mismatch for %q: %v vs %v", in, v, v2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``, `{`, `[1,`, `"unterminated`, `{{1}`, `bogus`, `{"a" 1}`,
		`datetime("not-a-date")`, `point("1")`, `1 2`,
		// AQL's identifier rule and no unary '+'.
		`{a-1: 2}`, `{1a: 2}`, `{a-: 2}`, `{-a: 2}`, `[+5]`, `{"a": +5}`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

// A repeated field name is refused by name, also in a nested record.
func TestParseRepeatedFieldName(t *testing.T) {
	for src, name := range map[string]string{
		`{"id": 3, "x": 1, "x": 2}`:        "x",
		`{"a": {"b": 1, 'b': 2}}`:          "b",
		`[{"k": 1}, {k: 1, "n": 2, k: 3}]`: "k",
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), `repeated field name "`+name+`"`) {
			t.Errorf("Parse(%s): %v, want the repeated name %q", src, err, name)
		}
	}
}

// ParsePrefix reads one value and leaves what follows it; Parse is that
// plus the check that nothing follows.
func TestParsePrefix(t *testing.T) {
	cases := []struct {
		src, want string
		n         int
	}{
		{` [1, 'two', {user-since: 3}] + 1`, `[ 1, "two", { "user-since": 3 } ]`, 28},
		{`{{ {"a": 1}}}}`, `{{ { "a": 1 } }}`, 13},
		{`{'k': "v"}.k`, `{ "k": "v" }`, 10},
	}
	for _, c := range cases {
		v, n, err := ParsePrefix(c.src)
		if err != nil || v.String() != c.want || n != c.n {
			t.Errorf("ParsePrefix(%s) = %v, %d, %v; want %s, %d", c.src, v, n, err, c.want, c.n)
		}
		if _, err := Parse(c.src); err == nil {
			t.Errorf("Parse(%s) took trailing input", c.src)
		}
	}
	// A refused text reports the offset adm stopped at.
	if _, n, err := ParsePrefix(`[1, 2, $x]`); err == nil || n != 7 {
		t.Errorf("ParsePrefix([1, 2, $x]) = %d, %v; want an error at offset 7", n, err)
	}
}

func TestParseTinySocialRecord(t *testing.T) {
	src := `{
	  "id": 11, "alias": "John", "name": "JohnDoe",
	  "address": { "street": "789 Jane St", "city": "San Harry", "zip": "98767", "state": "CA", "country": "USA" },
	  "user-since": datetime("2010-08-15T08:10:00"),
	  "friend-ids": {{ 5, 9, 11 }},
	  "employment": [ { "organization-name": "Kongreen", "start-date": date("2012-06-05") } ]
	}`
	v, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rec := v.(*Record)
	if rec.Get("alias").(String) != "John" {
		t.Error("alias mismatch")
	}
	friends := rec.Get("friend-ids").(*UnorderedList)
	if len(friends.Items) != 3 {
		t.Errorf("friend-ids has %d items", len(friends.Items))
	}
	emp := rec.Get("employment").(*OrderedList)
	if len(emp.Items) != 1 {
		t.Fatal("employment list wrong")
	}
	if emp.Items[0].(*Record).Get("organization-name").(String) != "Kongreen" {
		t.Error("nested record field mismatch")
	}
}

func TestEncodeDecodeSelfDescribing(t *testing.T) {
	values := []Value{
		Missing{}, Null{}, Boolean(true), Int8(-5), Int16(300), Int32(70000),
		Int64(1 << 40), Float(1.5), Double(math.Pi), String("héllo"),
		Binary{1, 2, 3}, UUID{1, 2, 3, 4}, Date(16000), Time(3600000),
		Datetime(1400000000000), Duration{Months: 14, Millis: 90061007},
		YearMonthDuration(25), DayTimeDuration(123456),
		Interval{PointTag: TagDatetime, Start: 100, End: 200},
		Point{X: 1.5, Y: -2.5}, Line{A: Point{0, 0}, B: Point{1, 1}},
		Rectangle{LowerLeft: Point{0, 0}, UpperRight: Point{2, 3}},
		Circle{Center: Point{1, 1}, Radius: 4},
		Polygon{Points: []Point{{0, 0}, {1, 0}, {0, 1}}},
		&OrderedList{Items: []Value{Int32(1), String("x")}},
		&UnorderedList{Items: []Value{Int32(1), Int32(2)}},
		NewRecord(Field{Name: "a", Value: Int32(1)}, Field{Name: "b", Value: Null{}}),
	}
	for _, v := range values {
		buf, err := EncodeValue(nil, v)
		if err != nil {
			t.Fatalf("EncodeValue(%v): %v", v, err)
		}
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("DecodeValue(%v) consumed %d of %d bytes", v, n, len(buf))
		}
		// Not every type participates in the total comparison order (e.g.
		// line, polygon), so compare by textual form instead.
		if v.String() != got.String() {
			t.Errorf("round trip mismatch: %v vs %v", v, got)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	full, err := EncodeValue(nil, NewRecord(Field{Name: "a", Value: String("hello")}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(full); i++ {
		if _, _, err := DecodeValue(full[:i]); err == nil {
			// Some prefixes may decode a shorter valid value but must not
			// consume more bytes than available.
			v, n, _ := DecodeValue(full[:i])
			if n > i {
				t.Errorf("decode of %d-byte prefix consumed %d bytes (%v)", i, n, v)
			}
		}
	}
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("decoding empty input should fail")
	}
}

func mugshotUserType() *RecordType {
	return &RecordType{
		Name: "MugshotUserType",
		Open: true,
		Fields: []FieldType{
			{Name: "id", Type: Prim(TagInt32)},
			{Name: "alias", Type: Prim(TagString)},
			{Name: "name", Type: Prim(TagString)},
			{Name: "user-since", Type: Prim(TagDatetime)},
			{Name: "friend-ids", Type: &UnorderedListType{Item: Prim(TagInt32)}},
			{Name: "end-date", Type: Prim(TagDate), Optional: true},
		},
	}
}

func sampleUser() *Record {
	return NewRecord(
		Field{Name: "id", Value: Int32(1)},
		Field{Name: "alias", Value: String("Margarita")},
		Field{Name: "name", Value: String("MargaritaStoddard")},
		Field{Name: "user-since", Value: Datetime(1344068000000)},
		Field{Name: "friend-ids", Value: &UnorderedList{Items: []Value{Int32(2), Int32(3)}}},
		Field{Name: "hobby", Value: String("sailing")}, // open field
	)
}

func TestSchemaEncodingRoundTrip(t *testing.T) {
	rt := mugshotUserType()
	for _, enc := range []Encoding{SchemaEncoding, SelfDescribingEncoding} {
		s := NewSerializer(rt, enc)
		rec := sampleUser()
		buf, err := s.Encode(nil, rec)
		if err != nil {
			t.Fatalf("%v Encode: %v", enc, err)
		}
		got, n, err := s.Decode(buf)
		if err != nil {
			t.Fatalf("%v Decode: %v", enc, err)
		}
		if n != len(buf) {
			t.Errorf("%v: decoded %d of %d bytes", enc, n, len(buf))
		}
		gotRec := got.(*Record)
		for _, f := range []string{"id", "alias", "name", "user-since", "friend-ids", "hobby"} {
			if MustCompare(rec.Get(f), gotRec.Get(f)) != 0 {
				t.Errorf("%v: field %q mismatch: %v vs %v", enc, f, rec.Get(f), gotRec.Get(f))
			}
		}
	}
}

func TestSchemaEncodingSmallerThanKeyOnly(t *testing.T) {
	rt := mugshotUserType()
	rec := sampleUser()
	schema, err := NewSerializer(rt, SchemaEncoding).Encode(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	selfDescribing, err := NewSerializer(rt, SelfDescribingEncoding).Encode(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) >= len(selfDescribing) {
		t.Errorf("schema encoding (%d bytes) should be smaller than self-describing (%d bytes)", len(schema), len(selfDescribing))
	}
}

func TestSchemaEncodingRequiredFieldMissing(t *testing.T) {
	rt := mugshotUserType()
	s := NewSerializer(rt, SchemaEncoding)
	rec := NewRecord(Field{Name: "id", Value: Int32(1)}) // missing required fields
	if _, err := s.Encode(nil, rec); err == nil {
		t.Error("encoding a record missing required fields must fail")
	}
}

// TestKeyPartitionIsFNV1a pins KeyPartition to hash/fnv's 32-bit FNV-1a mod n:
// partition numbers are on disk (partition-N directories) and in WAL records,
// so the placement of a key must never move.
func TestKeyPartitionIsFNV1a(t *testing.T) {
	keys := [][]byte{nil, {0}, {0xff, 0xff, 0xff, 0xff}}
	for _, vals := range [][]Value{
		{Int32(0)}, {Int32(1)}, {Int64(-7)}, {Double(2.5)}, {Int64(1 << 40)},
		{String("")}, {String("MugshotMessages")}, {Datetime(1393286400000)},
		{Int32(3), String("a")}, {String("a"), Int32(3)}, {Null{}, Missing{}},
	} {
		var key []byte
		for _, v := range vals {
			key = EncodeKey(key, v)
		}
		keys = append(keys, key)
	}
	for _, key := range keys {
		h := fnv.New32a()
		h.Write(key)
		for _, n := range []int{1, 2, 3, 4, 7, 8, 30, 1 << 20} {
			if got, want := KeyPartition(key, n), int(h.Sum32()%uint32(n)); got != want {
				t.Errorf("KeyPartition(%x, %d) = %d, want FNV-1a's %d", key, n, got, want)
			}
		}
	}
}

// TestEncodeKeyOrderMatchesCompare: each pair's first value orders first, by
// Compare and by its key. Compare orders composites by their keys, so those
// rows pin the key's order: records by field name, then value; lists item by
// item, a shorter one first; inside either, values of different kinds by kind.
func TestEncodeKeyOrderMatchesCompare(t *testing.T) {
	pairs := [][2]Value{
		{Int32(-5), Int32(3)},
		{Int64(100), Int64(200)},
		{Double(-1.5), Double(2.5)},
		{String("abc"), String("abd")},
		{String("ab"), String("abc")},
		{String("a"), String("a\x00")},
		{String("a\x00"), String("a\x01")},
		{String("a\x01"), String("a\x02")},
		{Datetime(1000), Datetime(2000)},
		{Date(-10), Date(10)},
		{DayTimeDuration(-5), DayTimeDuration(3)},
		{Duration{Millis: 29 * 86400000}, Duration{Months: 1}},
		{Interval{PointTag: TagDate, Start: 1, End: 5}, Interval{PointTag: TagDate, Start: 1, End: 6}},
		{Point{X: -1, Y: 5}, Point{X: math.Copysign(0, -1), Y: -1}},
		{&OrderedList{Items: []Value{Int32(1)}}, &OrderedList{Items: []Value{Int8(1), Int8(0)}}},
		{&OrderedList{Items: []Value{Int64(1), Int64(2)}}, &OrderedList{Items: []Value{Int64(2)}}},
		{&OrderedList{Items: []Value{Int64(1)}}, &OrderedList{Items: []Value{String("a")}}},
		{&OrderedList{Items: []Value{String(""), String("")}}, &OrderedList{Items: []Value{String("\x00\x01 ")}}},
		{&UnorderedList{Items: []Value{Int64(3), Int64(1)}}, &UnorderedList{Items: []Value{Int64(2)}}},
		{NewRecord(Field{"a", Int64(1)}), NewRecord(Field{"b", Int64(0)}, Field{"a", Int64(1)})},
		{NewRecord(Field{"a", Int64(2)}), NewRecord(Field{"b", Int64(0)})},
	}
	for _, p := range pairs {
		a := EncodeKey(nil, p[0])
		b := EncodeKey(nil, p[1])
		if strings.Compare(string(a), string(b)) >= 0 {
			t.Errorf("EncodeKey order violated for %v < %v", p[0], p[1])
		}
		if c, err := Compare(p[0], p[1]); err != nil || c >= 0 {
			t.Errorf("Compare(%v, %v) = %d, %v; want < 0", p[0], p[1], c, err)
		}
	}
}

// TestEncodeKeyEqualClasses: values `=` finds equal share one key whatever
// their widths, field order, item order or zero sign.
func TestEncodeKeyEqualClasses(t *testing.T) {
	for _, p := range [][2]Value{
		{Duration{Months: 1}, Duration{Millis: 30 * 86400000}},
		{Point{X: 0, Y: 1}, Point{X: math.Copysign(0, -1), Y: 1}},
		{Point{X: math.NaN(), Y: 1}, Point{X: -math.NaN(), Y: 1}},
		{Interval{PointTag: TagDate, Start: 1, End: 5}, Interval{PointTag: TagDatetime, Start: 1, End: 5}},
		{&OrderedList{Items: []Value{Int32(1), Double(2)}}, &OrderedList{Items: []Value{Int64(1), Int8(2)}}},
		{&UnorderedList{Items: []Value{Int64(1), Int64(2)}}, &UnorderedList{Items: []Value{Int16(2), Int64(1)}}},
		{NewRecord(Field{"a", Int64(1)}, Field{"b", Int64(2)}), NewRecord(Field{"b", Int8(2)}, Field{"a", Int64(1)})},
	} {
		ka, kb := EncodeKey(nil, p[0]), EncodeKey(nil, p[1])
		if !bytes.Equal(ka, kb) || !Equal(p[0], p[1]) {
			t.Errorf("%v and %v: keys %x and %x, Equal %v; want one key", p[0], p[1], ka, kb, Equal(p[0], p[1]))
		}
	}
}

func TestEncodeKeyOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(nil, Int64(a))
		kb := EncodeKey(nil, Int64(b))
		cmp := strings.Compare(string(ka), string(kb))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := EncodeKey(nil, Double(a))
		kb := EncodeKey(nil, Double(b))
		cmp := strings.Compare(string(ka), string(kb))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// keyMatrix is every number the key tests hold: each integer width, float
// and double of the values around the width edges, 2^24, 2^53 and MaxInt64
// and of their negations, MinInt64, both zeros, fractions, the smallest
// subnormals, ±2^63, magnitudes past 2^64, ±Inf and NaN.
func keyMatrix() []Value {
	var vals []Value
	add := func(x int64) {
		for _, v := range []Value{Int8(x), Int16(x), Int32(x), Int64(x)} {
			if n, _ := NumericAsInt64(v); n == x {
				vals = append(vals, v)
			}
		}
		vals = append(vals, Float(float32(x)), Double(float64(x)))
	}
	for _, base := range []int64{0, 5, 127, 128, 255, 256, 32767, 32768, 65536, 1<<24 - 1, 1 << 24, 1 << 31, 1 << 53, 1<<62 + 512, 1<<62 + 1536, math.MaxInt64 - 512, math.MaxInt64} {
		for off := int64(-2); off <= 2; off++ {
			if x := base + off; x >= base-2 { // MaxInt64+1 wraps
				add(x)
				add(-x)
			}
		}
	}
	add(math.MinInt64)
	for _, f := range []float64{math.Copysign(0, -1), 6.5, 0.1, 0.5, 1.0 / 3, 5 + 1.0/1024, 1 << 63, 1 << 64, 1e20, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()} {
		vals = append(vals, Double(f), Double(-f))
	}
	return append(vals, Float(0.1), Float(-6.5), Float(math.SmallestNonzeroFloat32))
}

// checkKeyPair fails unless the byte order of a's and b's keys is Compare's
// order of a and b and a's key is not a proper prefix of b's.
func checkKeyPair(t testing.TB, a, b Value) {
	t.Helper()
	ka, kb := EncodeKey(nil, a), EncodeKey(nil, b)
	if got, want := bytes.Compare(ka, kb), MustCompare(a, b); got != want {
		t.Errorf("%s %v vs %s %v: keys %x, %x compare %d, Compare says %d", a.Tag(), a, b.Tag(), b, ka, kb, got, want)
	}
	if len(ka) < len(kb) && bytes.HasPrefix(kb, ka) {
		t.Errorf("%s %v's key %x is a prefix of %s %v's %x", a.Tag(), a, ka, b.Tag(), b, kb)
	}
}

// TestEncodeKeyMatchesCompare: for any two numbers, whatever their widths,
// the byte order of their keys is Compare's order — so the numbers `=` finds
// equal share one key — and no key is a proper prefix of another. Every
// integer of magnitude below 2^24 keys to five bytes, the length an int32 key
// had when keys were written by width.
func TestEncodeKeyMatchesCompare(t *testing.T) {
	vals := keyMatrix()
	for _, a := range vals {
		for _, b := range vals {
			checkKeyPair(t, a, b)
		}
	}
	for _, x := range []int64{0, 1, 5, 127, 128, 255, 256, 65535, 65536, 1<<24 - 1} {
		for _, v := range []Value{Int8(x), Int16(x), Int32(x), Int64(x), Int64(-x), Float(float32(x)), Double(float64(-x))} {
			if n, _ := NumericAsInt64(v); n != x && n != -x {
				continue // the width cannot hold x
			}
			if k := EncodeKey(nil, v); len(k) != 5 {
				t.Errorf("%s %v keys to %d bytes %x, want 5", v.Tag(), v, len(k), k)
			}
		}
	}
	if k := EncodeKey(nil, Int64(1<<24)); len(k) != 6 {
		t.Errorf("2^24 keys to %d bytes %x, want 6", len(k), k)
	}
}

// FuzzEncodeKey: two numbers drawn as (width, bits) — and each against its
// own float64 and int64 conversions, which land on equal values — keep
// Compare's order in their keys, and neither key prefixes the other. The
// shape bytes then build nested values over those numbers: lists, bags and
// records of numbers at mixed widths, short strings, durations and points
// with ±0 and NaN coordinates. Their keys are equal exactly when a structural
// equality that matches bag items and record fields by name says so, they
// order as Compare does wherever Compare defines an order, permuting a bag's
// items or a record's fields leaves them unchanged, and no key is a proper
// prefix of another. Run with
//
//	go test -run='^$' -fuzz=FuzzEncodeKey -fuzztime=15s ./internal/adm
func FuzzEncodeKey(f *testing.F) {
	f.Add(uint8(2), uint64(5), uint8(5), math.Float64bits(5), []byte(nil))
	f.Add(uint8(3), uint64(1<<53+1), uint8(5), math.Float64bits(1<<53), []byte(nil))
	f.Add(uint8(3), uint64(1)<<63, uint8(5), math.Float64bits(-(1 << 63)), []byte(nil))
	f.Add(uint8(0), uint64(0xFB), uint8(4), uint64(math.Float32bits(-5.5)), []byte(nil))
	f.Add(uint8(5), math.Float64bits(math.Copysign(0, -1)), uint8(1), uint64(0), []byte(nil))
	f.Add(uint8(2), uint64(1), uint8(0), uint64(1), []byte{5, 2, 0, 0, 1, 0, 1, 5, 2, 0, 8, 1, 0, 9, 1})
	f.Add(uint8(3), uint64(2), uint8(5), math.Float64bits(math.NaN()), []byte{6, 3, 3, 2, 4, 3, 3, 6, 2, 3, 4, 2, 7, 2, 2, 1, 1, 0, 1})
	f.Add(uint8(1), uint64(3), uint8(4), uint64(math.Float32bits(3)), []byte{7, 3, 0, 1, 1, 0, 2, 2, 1, 30, 0, 2, 0, 7, 2, 2, 1, 0, 30, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, wa uint8, a uint64, wb uint8, b uint64, shape []byte) {
		va, vb := fuzzNumber(wa, a), fuzzNumber(wb, b)
		vals := []Value{va, vb}
		for _, v := range []Value{va, vb} {
			d, _ := NumericAsDouble(v)
			vals = append(vals, Double(d), Float(float32(d)))
			if d >= -(1<<63) && d < 1<<63 {
				vals = append(vals, Int64(int64(d)))
			}
		}
		for _, x := range vals {
			for _, y := range vals {
				checkKeyPair(t, x, y)
			}
		}
		if len(shape) > 64 {
			shape = shape[:64]
		}
		g := &keyGen{shape: shape, nums: vals}
		nested := append([]Value(nil), vals...)
		for len(g.shape) > 0 {
			nested = append(nested, g.value(0))
		}
		for _, x := range nested {
			if k, kp := EncodeKey(nil, x), EncodeKey(nil, permuted(x)); !bytes.Equal(k, kp) {
				t.Errorf("%v keys to %x, its permutation %v to %x", x, k, permuted(x), kp)
			}
			for _, y := range nested {
				checkNestedKeyPair(t, x, y)
			}
		}
	})
}

// checkNestedKeyPair fails unless a's and b's keys are equal exactly when
// sameValue says a and b are, order as Compare does wherever it defines an
// order, and a's key is not a proper prefix of b's.
func checkNestedKeyPair(t *testing.T, a, b Value) {
	t.Helper()
	ka, kb := EncodeKey(nil, a), EncodeKey(nil, b)
	if bytes.Equal(ka, kb) != sameValue(a, b) {
		t.Errorf("%v vs %v: keys %x, %x; equal keys %v, equal values %v", a, b, ka, kb, bytes.Equal(ka, kb), sameValue(a, b))
	}
	if c, err := Compare(a, b); err == nil && c != bytes.Compare(ka, kb) {
		t.Errorf("%v vs %v: keys %x, %x compare %d, Compare says %d", a, b, ka, kb, bytes.Compare(ka, kb), c)
	}
	if len(ka) < len(kb) && bytes.HasPrefix(kb, ka) {
		t.Errorf("%v's key %x is a prefix of %v's %x", a, ka, b, kb)
	}
}

// sameValue is `=` spelled out without keys: lists item by item, bags by a
// matching of their items, records field by field by name, and every other
// pair by Compare.
func sameValue(a, b Value) bool {
	switch x := a.(type) {
	case *OrderedList:
		y, ok := b.(*OrderedList)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !sameValue(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	case *UnorderedList:
		y, ok := b.(*UnorderedList)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		used := make([]bool, len(y.Items))
	items:
		for _, xi := range x.Items {
			for j, yj := range y.Items {
				if !used[j] && sameValue(xi, yj) {
					used[j] = true
					continue items
				}
			}
			return false
		}
		return true
	case *Record:
		y, ok := b.(*Record)
		if !ok || len(x.Fields) != len(y.Fields) {
			return false
		}
		for _, f := range x.Fields {
			if !sameValue(f.Value, y.Get(f.Name)) {
				return false
			}
		}
		return true
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// permuted returns v with every bag's items and every record's fields in
// reverse order, at every depth.
func permuted(v Value) Value {
	switch x := v.(type) {
	case *OrderedList:
		out := &OrderedList{}
		for _, item := range x.Items {
			out.Items = append(out.Items, permuted(item))
		}
		return out
	case *UnorderedList:
		out := &UnorderedList{}
		for i := len(x.Items) - 1; i >= 0; i-- {
			out.Items = append(out.Items, permuted(x.Items[i]))
		}
		return out
	case *Record:
		out := &Record{}
		for i := len(x.Fields) - 1; i >= 0; i-- {
			out.Fields = append(out.Fields, Field{Name: x.Fields[i].Name, Value: permuted(x.Fields[i].Value)})
		}
		return out
	}
	return v
}

// keyGen builds values from fuzz bytes, one byte per choice (zero once the
// bytes run out): numbers — the fuzzed ones and their conversions, or a small
// integer at a drawn width — strings of up to three of 0x00, 0x01, space
// (the string key tag) and "a", durations whose month and
// day parts can meet (P1M = P30D), points on ±0, ±1 and NaN, and lists, bags
// and records of up to three of these, three deep.
type keyGen struct {
	shape []byte
	nums  []Value
}

func (g *keyGen) next() byte {
	if len(g.shape) == 0 {
		return 0
	}
	b := g.shape[0]
	g.shape = g.shape[1:]
	return b
}

func (g *keyGen) value(depth int) Value {
	kind := g.next() % 8
	if depth >= 3 {
		kind %= 5
	}
	switch kind {
	case 0:
		return g.nums[int(g.next())%len(g.nums)]
	case 1:
		return fuzzNumber(g.next()%4, uint64(g.next()%4))
	case 2:
		s := make([]byte, g.next()%4)
		for i := range s {
			s[i] = "\x00\x01 a"[g.next()%4]
		}
		return String(s)
	case 3:
		return Duration{Months: int32(g.next() % 3), Millis: int64(g.next()%3) * 15 * 86400000}
	case 4:
		coords := []float64{0, math.Copysign(0, -1), 1, -1, math.NaN()}
		return Point{X: coords[int(g.next())%len(coords)], Y: coords[int(g.next())%len(coords)]}
	}
	items := make([]Value, g.next()%4)
	for i := range items {
		items[i] = g.value(depth + 1)
	}
	switch kind {
	case 5:
		return &OrderedList{Items: items}
	case 6:
		return &UnorderedList{Items: items}
	}
	rec := &Record{}
	for i, item := range items {
		rec.Fields = append(rec.Fields, Field{Name: "abc"[i : i+1], Value: item})
	}
	return rec
}

// fuzzNumber makes a number of width w%6 (int8 … double) from bits.
func fuzzNumber(w uint8, bits uint64) Value {
	switch w % 6 {
	case 0:
		return Int8(int8(bits))
	case 1:
		return Int16(int16(bits))
	case 2:
		return Int32(int32(bits))
	case 3:
		return Int64(int64(bits))
	case 4:
		return Float(math.Float32frombits(uint32(bits)))
	}
	return Double(math.Float64frombits(bits))
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(id int32, name string, score float64, ok bool) bool {
		rec := NewRecord(
			Field{Name: "id", Value: Int32(id)},
			Field{Name: "name", Value: String(name)},
			Field{Name: "score", Value: Double(score)},
			Field{Name: "ok", Value: Boolean(ok)},
		)
		buf, err := EncodeValue(nil, rec)
		if err != nil {
			return false
		}
		got, n, err := DecodeValue(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if math.IsNaN(score) {
			return true // NaN compares unequal by definition; skip
		}
		return MustCompare(rec, got) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNumericHelpers(t *testing.T) {
	if d, ok := NumericAsDouble(Int16(4)); !ok || d != 4 {
		t.Error("NumericAsDouble(Int16) failed")
	}
	if _, ok := NumericAsDouble(String("x")); ok {
		t.Error("NumericAsDouble should reject strings")
	}
	if n, ok := NumericAsInt64(Double(3.9)); !ok || n != 3 {
		t.Error("NumericAsInt64 should truncate")
	}
	if !IsUnknown(Null{}) || !IsUnknown(Missing{}) || IsUnknown(Int32(0)) {
		t.Error("IsUnknown misclassifies")
	}
	if !Truthy(Boolean(true)) || Truthy(Boolean(false)) || Truthy(Int32(1)) {
		t.Error("Truthy misclassifies")
	}
}

func TestConstructErrors(t *testing.T) {
	if _, err := Construct("nosuch", "x"); err == nil {
		t.Error("unknown constructor should fail")
	}
	for _, s := range []string{"yes", "TRUE", "1", ""} {
		if v, err := Construct("boolean", s); err == nil {
			t.Errorf("Construct(boolean, %q) = %v, want an error", s, v)
		}
	}
	if _, err := ParseDate("2014-13-45"); err == nil {
		t.Error("bad date should fail")
	}
	if _, err := ParseDuration("30D"); err == nil {
		t.Error("duration without P should fail")
	}
	if _, err := NewInterval(Datetime(10), Date(5)); err == nil {
		t.Error("interval with mixed bound types should fail")
	}
	if _, err := NewInterval(Datetime(10), Datetime(5)); err == nil {
		t.Error("interval with start after end should fail")
	}
}

func TestParseDurationValues(t *testing.T) {
	v, err := ParseDuration("P30D")
	if err != nil {
		t.Fatal(err)
	}
	d := v.(Duration)
	if d.Months != 0 || d.Millis != 30*86400000 {
		t.Errorf("P30D parsed as %+v", d)
	}
	v, err = ParseDuration("P1Y2MT3H4M5S")
	if err != nil {
		t.Fatal(err)
	}
	d = v.(Duration)
	if d.Months != 14 || d.Millis != 3*3600000+4*60000+5000 {
		t.Errorf("P1Y2MT3H4M5S parsed as %+v", d)
	}
	v, err = ParseDuration("-PT1M")
	if err != nil {
		t.Fatal(err)
	}
	if v.(Duration).Millis != -60000 {
		t.Errorf("-PT1M parsed as %+v", v)
	}
}
