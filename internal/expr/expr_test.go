package expr

import (
	"strings"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/aql"
	"asterixdb/internal/temporal"
)

func evalString(t *testing.T, ctx *Context, env Env, src string) adm.Value {
	t.Helper()
	e, err := aql.ParseQuery(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Eval(ctx, env, e)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func fixedCtx() *Context {
	ctx := NewContext()
	ctx.Clock = temporal.FixedClock{T: time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)}
	return ctx
}

func TestArithmeticAndComparison(t *testing.T) {
	ctx := fixedCtx()
	cases := map[string]string{
		`1 + 1`:                    "2",
		`1 + 2 * 3`:                "7",
		`10 / 4`:                   "2.5",
		`7 % 3`:                    "1",
		`7 % 0`:                    "null",
		`7 % 0.1`:                  "null", // modulo is on integer parts: no divide-by-zero panic
		`2 < 3`:                    "true",
		`"abc" = "abc"`:            "true",
		`3 >= 4`:                   "false",
		`1 = null`:                 "null",
		`not(false)`:               "true",
		`if (1 < 2) then 7 else 8`: "7",
	}
	for src, want := range cases {
		got := evalString(t, ctx, Env{}, src)
		// Normalize numeric renderings: 2 may render with an i64 suffix.
		s := got.String()
		if s != want && s != want+"i64" {
			t.Errorf("%s = %s, want %s", src, s, want)
		}
	}
}

func TestFieldAccessAndConstructors(t *testing.T) {
	ctx := fixedCtx()
	rec := adm.NewRecord(
		adm.Field{Name: "name", Value: adm.String("Ann")},
		adm.Field{Name: "address", Value: adm.NewRecord(adm.Field{Name: "zip", Value: adm.String("98765")})},
	)
	env := Env{"u": rec}
	if got := evalString(t, ctx, env, `$u.address.zip`); got.(adm.String) != "98765" {
		t.Errorf("nested field access = %v", got)
	}
	if got := evalString(t, ctx, env, `$u.nosuch`); got.Tag() != adm.TagMissing {
		t.Errorf("missing field = %v", got)
	}
	v := evalString(t, ctx, env, `{ "n": $u.name, "tags": {{ "a", "b" }}, "list": [1, 2] }`)
	out := v.(*adm.Record)
	if out.Get("n").(adm.String) != "Ann" {
		t.Errorf("record constructor = %v", out)
	}
	if len(out.Get("tags").(*adm.UnorderedList).Items) != 2 {
		t.Error("bag constructor wrong")
	}
}

func TestBuiltinsAndUDF(t *testing.T) {
	ctx := fixedCtx()
	// string-length counts characters, as like's `_` and edit-distance do,
	// not UTF-8 bytes.
	for s, want := range map[string]int64{"hello": 5, "": 0, "héllo": 5, "日本": 2, "\U0001F600!": 2} {
		if got := evalString(t, ctx, Env{}, `string-length("`+s+`")`); mustInt(got) != want {
			t.Errorf("string-length(%q) = %v, want %d", s, got, want)
		}
	}
	if got := evalString(t, ctx, Env{}, `count([1, 2, 3])`); mustInt(got) != 3 {
		t.Errorf("count = %v", got)
	}
	if got := evalString(t, ctx, Env{}, `avg([2, 4])`); got.(adm.Double) != 3 {
		t.Errorf("avg = %v", got)
	}
	// AQL null semantics vs SQL semantics.
	if got := evalString(t, ctx, Env{}, `avg([2, null, 4])`); got.Tag() != adm.TagNull {
		t.Errorf("avg with null = %v", got)
	}
	if got := evalString(t, ctx, Env{}, `sql-avg([2, null, 4])`); got.(adm.Double) != 3 {
		t.Errorf("sql-avg with null = %v", got)
	}
	if got := evalString(t, ctx, Env{}, `edit-distance("kitten", "sitting")`); mustInt(got) != 3 {
		t.Errorf("edit-distance = %v", got)
	}
	if got := evalString(t, ctx, Env{}, `spatial-distance(create-point(0.0, 0.0), create-point(3.0, 4.0))`); got.(adm.Double) != 5 {
		t.Errorf("spatial-distance = %v", got)
	}
	if got := evalString(t, ctx, Env{}, `current-datetime()`); got.Tag() != adm.TagDatetime {
		t.Errorf("current-datetime = %v", got)
	}
	// Datetime arithmetic with durations.
	if got := evalString(t, ctx, Env{}, `datetime("2014-01-31T00:00:00") - duration("P30D")`); got.(adm.Datetime).String() != `datetime("2014-01-01T00:00:00.000")` {
		t.Errorf("datetime - duration = %v", got)
	}
	// A user function is inlined before compiling (package translator), so
	// the compiled evaluator resolves no call of one; the oracle's
	// call-time binding is checked in package oracle.
	for _, call := range []*aql.CallExpr{{Func: "incr", Args: []aql.Expr{&aql.Literal{Value: adm.Int64(41)}}}, {Func: "no-such-function"}} {
		if _, err := Eval(ctx, Env{}, call); err == nil || !strings.Contains(err.Error(), "unknown function") {
			t.Errorf("%s: %v, want an unknown function error", call.Func, err)
		}
	}
}

func TestQuantifiersAndFuzzy(t *testing.T) {
	ctx := fixedCtx()
	env := Env{"list": &adm.OrderedList{Items: []adm.Value{adm.Int32(1), adm.Int32(2), adm.Int32(3)}}}
	if got := evalString(t, ctx, env, `some $x in $list satisfies $x > 2`); !adm.Truthy(got) {
		t.Error("some should hold")
	}
	if got := evalString(t, ctx, env, `every $x in $list satisfies $x > 2`); adm.Truthy(got) {
		t.Error("every should not hold")
	}
	ctx.SimFunction, ctx.SimThreshold = "edit-distance", 3
	if got := evalString(t, ctx, Env{}, `"tonight" ~= "tonite"`); !adm.Truthy(got) {
		t.Error("edit-distance fuzzy match should hold")
	}
	ctx.SimFunction, ctx.SimThreshold = "jaccard", 0.3
	env2 := Env{
		"a": &adm.UnorderedList{Items: []adm.Value{adm.String("x"), adm.String("y")}},
		"b": &adm.UnorderedList{Items: []adm.Value{adm.String("y"), adm.String("z")}},
	}
	if got := evalString(t, ctx, env2, `$a ~= $b`); !adm.Truthy(got) {
		t.Error("jaccard fuzzy match should hold at 0.3")
	}
}

func TestFLWOREvaluation(t *testing.T) {
	ctx := fixedCtx()
	nums := &adm.OrderedList{}
	for i := 1; i <= 10; i++ {
		nums.Items = append(nums.Items, adm.NewRecord(
			adm.Field{Name: "id", Value: adm.Int32(int32(i))},
			adm.Field{Name: "grp", Value: adm.Int32(int32(i % 2))},
		))
	}
	e, err := aql.ParseQuery(`
for $x in $nums
where $x.id > 4
group by $g := $x.grp with $x
let $cnt := count($x)
order by $g
return { "grp": $g, "cnt": $cnt };`)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := evalList(ctx, Env{"nums": nums}, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("FLWOR returned %d groups", len(vals))
	}
	first := vals[0].(*adm.Record)
	if mustInt(first.Get("grp")) != 0 || mustInt(first.Get("cnt")) != 3 {
		t.Errorf("first group = %v", first)
	}
	// Positional variables.
	e2, _ := aql.ParseQuery(`for $x at $i in [ "a", "b", "c" ] where $i >= 2 return $i;`)
	vals, err = evalList(ctx, Env{}, e2)
	if err != nil || len(vals) != 2 {
		t.Fatalf("positional FLWOR = %v, %v", vals, err)
	}
	// Limit with offset.
	e3, _ := aql.ParseQuery(`for $x in [1, 2, 3, 4, 5] limit 2 offset 1 return $x;`)
	vals, err = evalList(ctx, Env{}, e3)
	if err != nil || len(vals) != 2 || mustInt(vals[0]) != 2 {
		t.Fatalf("limit/offset FLWOR = %v, %v", vals, err)
	}
}

// evalList evaluates a FLWOR under env to its items.
func evalList(ctx *Context, env Env, e aql.Expr) ([]adm.Value, error) {
	v, err := Eval(ctx, env, e)
	if err != nil {
		return nil, err
	}
	return v.(*adm.OrderedList).Items, nil
}

func TestErrorsAndUnknowns(t *testing.T) {
	ctx := fixedCtx()
	if _, err := Eval(ctx, Env{}, &aql.VariableRef{Name: "nope"}); err == nil {
		t.Error("unbound variable should error")
	}
	if _, err := Eval(ctx, Env{}, &aql.DatasetRef{Name: "D"}); err == nil {
		t.Error("dataset ref without reader should error")
	}
	if got := evalString(t, ctx, Env{}, `1 / 0`); got.Tag() != adm.TagNull {
		t.Errorf("division by zero = %v", got)
	}
	if got := evalString(t, ctx, Env{}, `is-null(null)`); !adm.Truthy(got) {
		t.Error("is-null(null) should be true")
	}
}

func mustInt(v adm.Value) int64 {
	n, _ := adm.NumericAsInt64(v)
	return n
}

// Negation keeps its operand's width; only the minimum of a width, whose
// negation does not fit it, widens to the next one.
func TestNegationKeepsWidth(t *testing.T) {
	ctx := fixedCtx()
	cases := []struct{ x, want adm.Value }{
		{adm.Int8(5), adm.Int8(-5)},
		{adm.Int8(-128), adm.Int16(128)},
		{adm.Int16(-7), adm.Int16(7)},
		{adm.Int16(-32768), adm.Int32(32768)},
		{adm.Int32(5), adm.Int32(-5)},
		{adm.Int32(-2147483648), adm.Int64(2147483648)},
		{adm.Int64(5), adm.Int64(-5)},
		{adm.Float(1.5), adm.Float(-1.5)},
		{adm.Double(2), adm.Double(-2)},
	}
	for _, c := range cases {
		got := evalString(t, ctx, Env{"x": c.x}, `-$x`)
		if got.Tag() != c.want.Tag() || !adm.Equal(got, c.want) {
			t.Errorf("-(%s) = %s (%s), want %s (%s)", c.x, got, got.Tag(), c.want, c.want.Tag())
		}
	}
}
