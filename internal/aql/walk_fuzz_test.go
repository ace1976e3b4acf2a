package aql_test

import (
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/expr/oracle"
	"asterixdb/internal/temporal"
)

var unboundRE = regexp.MustCompile(`^expr: unbound variable \$(.*)$`)

// FuzzRewriteScope checks the walker's idea of scope against the other code
// that knows AQL scoping by name, the oracle evaluator. For any expression
// that parses:
//
//   - evaluated in an environment binding exactly the free variables the
//     walker reports, the evaluator never misses a variable the walker called
//     bound (a reference the evaluator can never resolve — past a group-by
//     that hides it, inside limit — is one the walker reports as free);
//   - renaming a free variable through the walker, and its binding in the
//     environment with it, leaves the outcome unchanged.
func FuzzRewriteScope(f *testing.F) {
	for _, seed := range []string{
		`$x + $y`,
		`some $x in $l satisfies $x = $y`,
		`every $x in [1, 2] satisfies (some $x in [$x] satisfies $x > $y)`,
		`for $x in $x return $x`,
		`for $x at $i in [3, 4] let $y := $x + $i where $y > $c order by $y desc return { "x": $x, "y": $y }`,
		`for $x in [1, 2, 1] group by $k := $x with $x return { "k": $k, "n": count($x) }`,
		`for $x in [1, 2] group by $k := $x with $w return count($w)`,
		`for $x in [1, 2] let $y := 2 group by $k := $x with $x return $y`,
		`for $x in [1, 2] return (for $y in [$x] group by $g := $y with $y return $x)`,
		`for $x in [1, 2, 3] limit $n offset 1 return $x`,
		`for $x in [1, 2] limit $x return $x`,
		`if ($a[0] = -$b.f) then [ $c ] else {{ string-length($e) }}`,
		`count(for $t in word-tokens($s) where $t = $w return $t)`,
		`for $x in [1, 2, 1] group by $x := $x with $x return $x`,
	} {
		f.Add(seed)
	}
	ctx := &oracle.Context{Context: expr.NewContext()}
	ctx.Clock = temporal.FixedClock{T: time.Unix(1400000000, 0).UTC()}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 256 {
			t.Skip() // keeps nested iteration over list literals small
		}
		e, err := aql.ParseQuery(src)
		if err != nil {
			t.Skip()
		}
		free := algebra.FreeVarsOf(e)
		env := oracle.Env{}
		for i, v := range free {
			env[v] = &adm.OrderedList{Items: []adm.Value{adm.Int64(i), adm.String(v)}}
		}
		want, wantErr := oracle.Eval(ctx, env, e)
		if wantErr != nil {
			if m := unboundRE.FindStringSubmatch(wantErr.Error()); m != nil && !slices.Contains(free, m[1]) {
				t.Fatalf("%s\nfree variables %v bound, yet: %v", e, free, wantErr)
			}
		}
		for _, v := range free {
			// No query text can spell this name, so it captures nothing.
			const fresh = "#renamed"
			renamed := aql.Rewrite(e, rename(v, fresh))
			env2 := oracle.Env{fresh: env[v]}
			for name, val := range env {
				if name != v {
					env2[name] = val
				}
			}
			got, gotErr := oracle.Eval(ctx, env2, renamed)
			switch {
			case wantErr != nil && gotErr != nil:
				if msg := strings.ReplaceAll(gotErr.Error(), "$"+fresh, "$"+v); msg != wantErr.Error() {
					t.Fatalf("%s\nrenaming $%s changed the error:\n  %v\nto\n  %v", e, v, wantErr, gotErr)
				}
			case wantErr != nil || gotErr != nil:
				t.Fatalf("%s\nrenaming $%s to\n%s\nchanged the error from %v to %v", e, v, renamed, wantErr, gotErr)
			case got.String() != want.String():
				t.Fatalf("%s\nrenaming $%s to\n%s\nchanged the value from %s to %s", e, v, renamed, want, got)
			}
		}
	})
}
