package oracle_test

import (
	"testing"

	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/expr/oracle"
)

// TestUserFunctionCallTimeBinding: a call binds the parameters to the
// evaluated arguments and evaluates the body in that environment alone, so
// the body sees none of its caller's variables; a wrong arity is an error.
func TestUserFunctionCallTimeBinding(t *testing.T) {
	ctx := &oracle.Context{Context: expr.NewContext(), Functions: map[string]*aql.CreateFunction{}}
	for name, src := range map[string]string{"incr": `$x + 1`, "leak": `$y`} {
		body, err := aql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Functions[name] = &aql.CreateFunction{Name: name, Params: []string{"x"}, Body: body}
	}
	for src, want := range map[string]string{
		`incr(41)`:                              "42i64",
		`for $x in [1, 2] return incr($x * 10)`: "[ 11i64, 21i64 ]",
		`incr(1, 2)`:                            "error: expr: function incr expects 1 arguments, got 2",
		`for $y in [1] return leak($y)`:         "error: expr: unbound variable $y",
		`string-length("ab") + incr(incr(0))`:   "4i64",
		`incr("a")`:                             "error: expr: arithmetic on non-numeric values string and int32",
	} {
		e, err := aql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		if v, err := oracle.Eval(ctx, oracle.Env{}, e); err != nil {
			got = "error: " + err.Error()
		} else {
			got = v.String()
		}
		if got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
}
