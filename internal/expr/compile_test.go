package expr_test

import (
	"math"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/expr/oracle"
	"asterixdb/internal/temporal"
	"asterixdb/internal/workload"
)

// palette is what FuzzCompile binds free variables to: one value of each
// shape the evaluators treat differently, and a stored record's lazy view
// beside its materialized twin, so that the byte-level comparisons and
// string-length are checked against the oracle.
var palette = []adm.Value{
	adm.Int64(3),
	adm.Double(-1.5),
	adm.String("ab cd"),
	adm.Null{},
	adm.Missing{},
	adm.NewRecord(adm.Field{Name: "a", Value: adm.Int32(1)}, adm.Field{Name: "b", Value: adm.String("x")}),
	&adm.OrderedList{Items: []adm.Value{adm.Int64(1), adm.String("ab"), adm.Null{}}},
	storedRecord(),
	storedRecord().Materialize(),
}

// storedRecord is a lazy view of a record stored under a small declared
// open type: integer fields of every width at their boundaries, strings
// (one of them not ASCII), a null and a missing optional field, and an
// open field.
func storedRecord() *adm.LazyRecord {
	typ := &adm.RecordType{Name: "S", Open: true, Fields: []adm.FieldType{
		{Name: "a", Type: adm.Prim(adm.TagInt32)},
		{Name: "b", Type: adm.Prim(adm.TagString)},
		{Name: "i8", Type: adm.Prim(adm.TagInt8)},
		{Name: "i16", Type: adm.Prim(adm.TagInt16)},
		{Name: "i64", Type: adm.Prim(adm.TagInt64)},
		{Name: "max", Type: adm.Prim(adm.TagInt64)},
		{Name: "u", Type: adm.Prim(adm.TagString)},
		{Name: "nul", Type: adm.Prim(adm.TagInt32), Optional: true},
		{Name: "gone", Type: adm.Prim(adm.TagInt32), Optional: true},
	}}
	rec := adm.NewRecord(
		adm.Field{Name: "a", Value: adm.Int32(1)},
		adm.Field{Name: "b", Value: adm.String("x")},
		adm.Field{Name: "i8", Value: adm.Int8(math.MinInt8)},
		adm.Field{Name: "i16", Value: adm.Int16(math.MinInt16)},
		adm.Field{Name: "i64", Value: adm.Int64(math.MinInt64)},
		adm.Field{Name: "max", Value: adm.Int64(math.MaxInt64)},
		adm.Field{Name: "u", Value: adm.String("h\u00e9llo w\u00f6rld")},
		adm.Field{Name: "nul", Value: adm.Null{}},
		adm.Field{Name: "o", Value: adm.Int16(-7)},
	)
	ser := adm.NewSerializer(typ, adm.SchemaEncoding)
	raw, err := ser.Encode(nil, rec)
	if err != nil {
		panic(err)
	}
	v, _, err := ser.DecodeLazy(raw, nil)
	if err != nil {
		panic(err)
	}
	return v.(*adm.LazyRecord)
}

// FuzzCompile checks Compile against the tree-walking oracle, the other
// implementation of the same semantics. For any expression that parses, its
// free variables are bound from the palette (pick chooses which value each
// gets) to columns of a row; the first one also has an earlier, shadowed
// column of its name, and when pick is odd the last one's column is nil
// (unbound). Compile over the row and oracle.Eval over the matching
// environment must give an equal value or the same error text.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		`$x + $y`,
		`$x.a = 1 and $y.b != "x" or not($z < 2)`,
		`$x[1] >= $y[0]`,
		`{ "a": $x, "l": [$y, {{ $z }}], "n": -$x }`,
		`if ($x = 3) then $y.a else string-length($z)`,
		`some $w in word-tokens($x) satisfies $w = $y`,
		`some $v in [1, 2] satisfies $v = $x`,
		`every $v in [$x, 4] satisfies $v > 2`,
		`every $x in $l satisfies (some $x in [$x] satisfies $x > $y)`,
		`$x ~= $y`,
		`count(for $t in $l where $t = $x return $t) + sum([$x, 1])`,
		`$x * 2 - $y / 0 % 3`,
		`contains($x, "ab") and like($y, "a%")`,
		`undefined-function($x)`,
		`$x $y`,
		`datetime("2014-01-01T00:00:00") + duration("P1D") > current-datetime()`,
		`$x.i8 < 0 and 0 > $x.i16 and $x.max >= 9223372036854775807`,
		`$x.u > "hz" or string-length($x.u) = 11 or $x.b = 1`,
		// Nested FLWORs: a group-by whose key shadows an outer variable
		// while another outer one stays visible, order by with limit and
		// offset, a positional for, let, and limits that see no variables.
		`for $t in $l group by $x := $t with $t return { "x": $x, "n": count($t), "y": $y }`,
		`for $t in $l order by $t desc limit 2 offset 1 return $t`,
		`for $t at $i in $l let $u := $i * 2 where $u > 2 return [$t, $i, $x]`,
		`let $z := $x return (for $t in [$z, $y] group by $k := $t with $z return count($z))`,
		`for $t in [3, 1, 2] order by $t limit -1 offset -2 return $t`,
		`for $t in $l limit $x return $t`,
	} {
		f.Add(seed, uint8(0))
		f.Add(seed, uint8(5))
	}
	// Aggregate calls, whose builtins fold through the aggregate kernel and
	// whose oracle is the list-at-a-time reference: a scalar argument is one
	// item, and the results are pinned as well as compared.
	pinned := map[string]string{
		`count(3)`:                    "1i64",
		`sum(3)`:                      "3.0",
		`sum([1, null])`:              "null",
		`sql-sum([1, null, missing])`: "1.0",
		`min([1, "a"])`:               "null",
	}
	for seed := range pinned {
		f.Add(seed, uint8(0))
	}
	ctx := expr.NewContext()
	ctx.Clock = temporal.FixedClock{T: time.Unix(1400000000, 0).UTC()}
	octx := &oracle.Context{Context: ctx}
	f.Fuzz(func(t *testing.T, src string, pick uint8) {
		if len(src) > 256 {
			t.Skip() // keeps nested iteration over list literals small
		}
		e, err := aql.ParseQuery(src)
		if err != nil {
			t.Skip()
		}
		free := algebra.FreeVarsOf(e)
		var slots []string
		var row []adm.Value
		if len(free) > 0 {
			slots, row = append(slots, free[0]), append(row, adm.String("shadowed"))
		}
		for i, v := range free {
			slots = append(slots, v)
			row = append(row, palette[(int(pick)+i)%len(palette)])
		}
		if pick%2 == 1 && len(free) > 0 {
			row[len(row)-1] = nil
		}
		env := oracle.Env{}
		for i, name := range slots {
			if row[i] != nil {
				env[name] = row[i]
			} else {
				delete(env, name)
			}
		}
		want, wantErr := oracle.Eval(octx, env, e)
		got, gotErr := expr.Compile(ctx, e, slots)(row)
		switch {
		case wantErr != nil || gotErr != nil:
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s over %v = %v\noracle error: %v\nCompile error: %v", e, slots, row, wantErr, gotErr)
			}
		case got.String() != want.String():
			t.Fatalf("%s over %v = %v\noracle: %s\nCompile: %s", e, slots, row, want, got)
		case pinned[src] != "" && got.String() != pinned[src]:
			t.Fatalf("%s = %s, want %s", src, got, pinned[src])
		}
	})
}

// TestCompileStoredFields: a comparison of a field with an integer or string
// literal, and string-length of a field, on a lazy record read the field's
// stored bytes; each row's answer must be the oracle's, over the lazy view
// and over its materialized twin, including the cases that fall back.
func TestCompileStoredFields(t *testing.T) {
	ctx := expr.NewContext()
	lazy := storedRecord()
	for _, row := range []struct{ src, want string }{
		{`$r.gone = 1`, "null"},   // missing field
		{`$r.nul = 1`, "null"},    // null field
		{`$r.absent < 1`, "null"}, // undeclared, absent
		{`$r.a = 1.0`, "true"},    // int field, double literal: falls back
		{`$r.a < 1.5`, "true"},
		{`$r.i8 < 0`, "true"}, // int8 at its minimum
		{`$r.i8 = -128`, "true"},
		{`$r.i8 >= 0`, "false"},
		{`$r.i16 < 0`, "true"}, // int16 at its minimum
		{`$r.i16 != 32768`, "true"},
		{`$r.i64 <= 0`, "true"}, // int64 at its minimum
		{`$r.i64 > 9223372036854775807`, "false"},
		{`$r.max = 9223372036854775807`, "true"}, // int64 at its maximum
		{`$r.max > 2147483647`, "true"},
		{`$r.o = -7`, "true"}, // an open int16 field
		{`$r.o < 0`, "true"},
		{`0 > $r.i8`, "true"}, // the literal on the left
		{`1 = $r.a`, "true"},
		{`2 <= $r.a`, "false"},
		{`"x" >= $r.b`, "true"},
		{`$r.b = "x"`, "true"}, // a string against a string literal
		{`$r.b < "xa"`, "true"},
		{`$r.b > ""`, "true"},
		{`$r.u > "hz"`, "true"}, // byte order: 'é' is above 'z'
		{`$r.u < "hém"`, "true"},
		{`$r.b = 1`, "null"}, // a string where an int is compared
		{`$r.a = "1"`, "null"},
		{`string-length($r.u)`, "11i64"}, // runes, not bytes
		{`string-length($r.b)`, "1i64"},
		{`string-length($r.a)`, "null"},
		{`string-length($r.gone)`, "null"},
	} {
		e, err := aql.ParseQuery(row.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []adm.Value{lazy, storedRecord().Materialize()} {
			slots, vals := []string{"r"}, []adm.Value{rec}
			want, err := oracle.Eval(&oracle.Context{Context: ctx}, oracle.Env{"r": rec}, e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := expr.Compile(ctx, e, slots)(vals)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != row.want || want.String() != row.want {
				t.Errorf("%s over %T: Compile %s, oracle %s, want %s", row.src, rec, got, want, row.want)
			}
		}
	}
	if full, _ := lazy.Resident(); full != nil {
		t.Error("a stored-field comparison materialized the record")
	}
}

// TestCompileStoredFieldsAllocateNothing: a byte-level comparison allocates
// nothing per tuple, and string-length allocates no string.
func TestCompileStoredFieldsAllocateNothing(t *testing.T) {
	ctx := expr.NewContext()
	row := []adm.Value{storedRecord()}
	for _, src := range []string{`$r.a = 1`, `$r.i64 < 0`, `"w" < $r.u`, `string-length($r.u)`} {
		e, err := aql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		f := expr.Compile(ctx, e, []string{"r"})
		if n := testing.AllocsPerRun(100, func() {
			if _, err := f(row); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %.0f allocations per tuple", src, n)
		}
	}
}

// BenchmarkAnalyticsFilterTuple times the analytics filter class's predicate
// and projection on one lazily decoded message, as a job's select and
// distribute-result run them: the oracle over an environment binding $m,
// against the closure Compile builds over the one-column row.
func BenchmarkAnalyticsFilterTuple(b *testing.B) {
	const n = 2000
	gen := workload.New(workload.Config{Users: 200, Messages: n, Seed: 1})
	ser := adm.NewSerializer(workload.MessageType(), adm.SchemaEncoding)
	arena := adm.AcquireArena()
	defer arena.Release()
	rows := make([][]adm.Value, n)
	for i := range rows {
		enc, err := ser.Encode(nil, gen.Message(i+1))
		if err != nil {
			b.Fatal(err)
		}
		v, _, err := ser.DecodeLazy(enc, arena)
		if err != nil {
			b.Fatal(err)
		}
		rows[i] = []adm.Value{v}
	}
	pred, err := aql.ParseQuery(`$m.author-id = 17`)
	if err != nil {
		b.Fatal(err)
	}
	proj, err := aql.ParseQuery(`{ "id": $m.message-id, "len": string-length($m.message) }`)
	if err != nil {
		b.Fatal(err)
	}
	ctx := expr.NewContext()
	run := func(b *testing.B, pred, proj func(row []adm.Value) (adm.Value, error)) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			row := rows[i%n]
			if _, err := pred(row); err != nil {
				b.Fatal(err)
			}
			if _, err := proj(row); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tuple")
	}
	b.Run("eval", func(b *testing.B) {
		env, octx := oracle.Env{}, &oracle.Context{Context: ctx}
		eval := func(e aql.Expr) func(row []adm.Value) (adm.Value, error) {
			return func(row []adm.Value) (adm.Value, error) {
				env["m"] = row[0]
				return oracle.Eval(octx, env, e)
			}
		}
		run(b, eval(pred), eval(proj))
	})
	b.Run("compile", func(b *testing.B) {
		slots := []string{"m"}
		run(b, expr.Compile(ctx, pred, slots), expr.Compile(ctx, proj, slots))
	})
}
