package asterixdb

import (
	"strings"
	"testing"

	"asterixdb/internal/adm"
)

// openLiterals opens an instance with one dataset whose type declares an
// int32 field beside its primary key; everything else is open.
func openLiterals(t *testing.T, cfg Config) *Instance {
	t.Helper()
	cfg.DataDir = t.TempDir()
	if cfg.Partitions == 0 {
		cfg.Partitions = 2
	}
	inst, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	if _, err := inst.Execute(`
create dataverse Lit;
use dataverse Lit;
create type T as open { id: int32, k: int32? }
create dataset D(T) primary key id;
create dataset E(T) primary key id;`); err != nil {
		t.Fatal(err)
	}
	return inst
}

func lookupLiteral(t *testing.T, inst *Instance, dataset string, id int) *adm.Record {
	t.Helper()
	res, err := inst.Query(`for $r in dataset ` + dataset + ` where $r.id = ` + adm.Int32(id).String() + ` return $r;`)
	if err != nil || len(res) != 1 {
		t.Fatalf("read back %s %d: %v, %v", dataset, id, res, err)
	}
	switch r := res[0].(type) {
	case *adm.Record:
		return r
	case *adm.LazyRecord:
		return r.Materialize()
	}
	t.Fatalf("read back %s %d: %T, want a record", dataset, id, res[0])
	return nil
}

// A negative literal is one number of its own width, not the negation of a
// positive one: it satisfies an int32 field, and so does int32's minimum.
func TestNegativeLiteralIntoInt32Field(t *testing.T) {
	inst := openLiterals(t, Config{})
	cases := []struct {
		lit  string
		want adm.Int32
	}{{"-5", -5}, {"-2147483648", -2147483648}, {"- 7", -7}}
	for i, c := range cases {
		id := adm.Int32(i + 1).String()
		if _, err := inst.Execute(`insert into dataset D ({"id": ` + id + `, "k": ` + c.lit + `});`); err != nil {
			t.Fatalf("insert k = %s: %v", c.lit, err)
		}
		if k := lookupLiteral(t, inst, "D", i+1).Get("k"); k != adm.Value(c.want) {
			t.Errorf("k = %s read back as %s (%s), want int32 %d", c.lit, k, k.Tag(), c.want)
		}
	}
}

// Every JSON escape in an AQL string literal stores the character it names.
func TestStringEscapesStoredByteForByte(t *testing.T) {
	inst := openLiterals(t, Config{})
	cases := []struct{ lit, want string }{
		{`"a\rb"`, "a\rb"},
		{`"\u003cb\u003e\u0026"`, "<b>&"},
		{`"\u2028"`, "\U00002028"},
		{`"\ud83d\ude00"`, "\U0001F600"},
		{`"\ud83d"`, "\U0000FFFD"},
		{`"\b\f\n\t\/\\\""`, "\b\f\n\t/\\\""},
		{`'it\'s'`, "it's"},
	}
	for i, c := range cases {
		id := adm.Int32(i + 1).String()
		if _, err := inst.Execute(`insert into dataset D ({"id": ` + id + `, "s": ` + c.lit + `});`); err != nil {
			t.Fatalf("insert %s: %v", c.lit, err)
		}
		if got := lookupLiteral(t, inst, "D", i+1).Get("s"); got != adm.String(c.want) {
			t.Errorf("%s stored as %q, want %q", c.lit, got, c.want)
		}
	}
}

// A line of the server's NDJSON output is an AQL record literal: inserted
// back, it stores a record equal to the one it was rendered from.
func TestNDJSONLineInsertsBack(t *testing.T) {
	inst := openLiterals(t, Config{})
	if _, err := inst.Execute(`insert into dataset D ({"id": 1, "k": -3,
		"s": "<b>& \u2028 😀 \ud83d\ude01 \u0001", "d": -0.25, "big": 9007199254740993,
		"tags": ["a\tb", -1, 2.5e-7], "nested": {"x": null, "y": true}});`); err != nil {
		t.Fatal(err)
	}
	orig := lookupLiteral(t, inst, "D", 1)
	line := string(adm.AppendJSON(nil, orig))
	if _, err := inst.Execute(`insert into dataset E (` + line + `);`); err != nil {
		t.Fatalf("insert NDJSON line %s: %v", line, err)
	}
	back := lookupLiteral(t, inst, "E", 1)
	if !adm.Equal(orig, back) {
		t.Errorf("NDJSON line %s\nread back as %s\nwant %s", line, back, orig)
	}
	if k := back.Get("k"); k.Tag() != adm.TagInt32 {
		t.Errorf("k read back as %s, want int32", k.Tag())
	}
}

// A record may not repeat a field name: the insert is a syntax error that
// names the field, whether adm reads the record as a value or the parser
// builds it from expressions, and nothing is stored.
func TestRepeatedFieldNameRefused(t *testing.T) {
	inst := openLiterals(t, Config{})
	for body, name := range map[string]string{
		`{"id": 1, "id": 2}`:            "id",
		`{"id": 3, "x": 1, "x": 2}`:     "x",
		`[{"id": 4}, {"id": 5, id: 6}]`: "id",
		`{"id": 7, "x": 1 + 1, "x": 2}`: "x",
	} {
		_, err := inst.Execute(`insert into dataset D (` + body + `);`)
		if ErrorCode(err) != CodeSyntax || !strings.Contains(err.Error(), `repeated field name "`+name+`"`) {
			t.Errorf("insert %s: %v (%s), want a syntax error naming %q", body, err, ErrorCode(err), name)
		}
	}
	if res, err := inst.Query(`count(for $r in dataset D return $r)`); err != nil || len(res) != 1 || !adm.Equal(res[0], adm.Int64(0)) {
		t.Errorf("D holds %v, %v; want no record", res, err)
	}
}

// boolean(…) reads only "true" and "false"; any other string is null, as
// int32("x") is, whether the call folds at parse time or runs.
func TestBooleanConstructorIsStrict(t *testing.T) {
	inst := openLiterals(t, Config{})
	cases := map[string]adm.Value{
		`boolean("true")`:                       adm.Boolean(true),
		`boolean('false')`:                      adm.Boolean(false),
		`boolean("yes")`:                        adm.Null{},
		`boolean("TRUE")`:                       adm.Null{},
		`let $s := "yes" return boolean($s)`:    adm.Null{},
		`let $s := "false" return boolean($s)`:  adm.Boolean(false),
		`[boolean("true"), int32("x")]`:         &adm.OrderedList{Items: []adm.Value{adm.Boolean(true), adm.Null{}}},
		`{"b": boolean("no"), "i": int32("x")}`: &adm.Record{Fields: []adm.Field{{Name: "b", Value: adm.Null{}}, {Name: "i", Value: adm.Null{}}}},
	}
	for q, want := range cases {
		res, err := inst.Query(q)
		if err != nil || len(res) != 1 || res[0].String() != want.String() {
			t.Errorf("%s = %v, %v; want %s", q, res, err, want)
		}
	}
}

// The numeric suffixes Value.String writes are AQL literals of their width.
func TestSuffixedNumericLiterals(t *testing.T) {
	inst := openLiterals(t, Config{})
	cases := []struct {
		lit  string
		want adm.Value
	}{
		{"1i8", adm.Int8(1)},
		{"-128i8", adm.Int8(-128)},
		{"7i16", adm.Int16(7)},
		{"9i32", adm.Int32(9)},
		{"5i64", adm.Int64(5)},
		{"1.5f", adm.Float(1.5)},
		{"2d", adm.Double(2)},
		{"-9223372036854775808", adm.Int64(-9223372036854775808)},
	}
	for _, c := range cases {
		res, err := inst.Query(c.lit)
		if err != nil || len(res) != 1 {
			t.Fatalf("%s: %v, %v", c.lit, res, err)
		}
		if res[0].Tag() != c.want.Tag() || !adm.Equal(res[0], c.want) {
			t.Errorf("%s = %s (%s), want %s (%s)", c.lit, res[0], res[0].Tag(), c.want, c.want.Tag())
		}
	}
}

// A delete statement is one log write and, journaled, one fsync, however
// many records it deletes — as an insert statement is.
func TestDeleteStatementSyncsLogOnce(t *testing.T) {
	inst := openLiterals(t, Config{Journaled: true})
	before := inst.Store().Stats().WAL
	if _, err := inst.Execute(`insert into dataset D ([{"id": 1}, {"id": 2}, {"id": 3}, {"id": 4}]);`); err != nil {
		t.Fatal(err)
	}
	mid := inst.Store().Stats().WAL
	if w, f := mid.Writes-before.Writes, mid.Fsyncs-before.Fsyncs; w != 1 || f != 1 {
		t.Fatalf("4-record insert: %d writes, %d fsyncs; want 1 and 1", w, f)
	}
	res, err := inst.Execute(`delete $r from dataset D where $r.id <= 3;`)
	if err != nil || res.Count != 3 {
		t.Fatalf("delete: %+v, %v", res, err)
	}
	after := inst.Store().Stats().WAL
	if w, f := after.Writes-mid.Writes, after.Fsyncs-mid.Fsyncs; w != 1 || f != 1 {
		t.Errorf("3-victim delete: %d writes, %d fsyncs; want 1 and 1", w, f)
	}
	if got, err := inst.Query(`for $r in dataset D return $r.id;`); err != nil || len(got) != 1 {
		t.Errorf("after delete: %v, %v; want only id 4", got, err)
	}
}

// Items of a list, a bag and a call's arguments, and the fields of a record,
// are separated by commas, with none after the last: each form below is a
// syntax error, through the literal reader and through the parser's
// constructors alike, while the empty forms still parse.
func TestOperandsNeedCommas(t *testing.T) {
	inst := openLiterals(t, Config{})
	for _, q := range []string{
		`[1 2]`, `[1, 2 3]`, `[1,]`, `[1,,2]`, `[,]`, `[$x 2]`,
		`{{1,}}`, `{{1 2}}`, `{{,}}`,
		`contains("ab" "a")`, `contains("ab", "a",)`, `lowercase(,)`,
		`{"a": 1,}`, `{"a": $x,}`, `{,}`, `{"a": 1 "b": 2}`,
	} {
		if _, err := inst.Query(`let $x := 1 return ` + q); ErrorCode(err) != CodeSyntax {
			t.Errorf("%s: %v (%s), want a syntax error", q, err, ErrorCode(err))
		}
	}
	for q, want := range map[string]string{
		`[]`:                      `[  ]`,
		`{{}}`:                    `{{  }}`,
		`{}`:                      `{  }`,
		`{"a": 1, "b": $x}`:       `{ "a": 1, "b": 1 }`,
		`[1, 2]`:                  `[ 1, 2 ]`,
		`{{1, [$x]}}`:             `{{ 1, [ 1 ] }}`,
		`is-null(current-date())`: `false`,
		`contains("ab", "a")`:     `true`,
	} {
		res, err := inst.Query(`let $x := 1 return ` + q)
		if err != nil || len(res) != 1 || res[0].String() != want {
			t.Errorf("%s = %v, %v; want %s", q, res, err, want)
		}
	}
}
