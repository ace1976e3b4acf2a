package aql_test

import (
	"reflect"
	"testing"

	"asterixdb/internal/algebra"
	. "asterixdb/internal/aql"
)

func parseExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", src, err)
	}
	return e
}

func identity(e Expr, _ *Scope) Expr { return e }

// rename returns a callback renaming every free reference to from.
func rename(from, to string) func(Expr, *Scope) Expr {
	return func(e Expr, sc *Scope) Expr {
		if v, ok := e.(*VariableRef); ok && v.Name == from && !sc.Bound(from) {
			return &VariableRef{Name: to}
		}
		return e
	}
}

// TestRewriteScope pins the walker's scoping, one binding form per case, by
// the free variables it reports and by what renaming the free $v does.
func TestRewriteScope(t *testing.T) {
	cases := []struct {
		name, src string
		free      []string
		renamed   string // src with the free $v renamed to $z; "" = no free $v
	}{
		{"quantified variable is bound in the predicate only",
			`some $v in $v satisfies $v = $y`, []string{"v", "y"},
			`some $v in $z satisfies ($v = $y)`},
		{"every shadows like some",
			`every $x in $l satisfies (some $x in $x satisfies $x > $v)`, []string{"l", "v"},
			`every $x in $l satisfies some $x in $x satisfies ($x > $z)`},
		{"for binds after its own source",
			`for $v in $v return $v`, []string{"v"},
			`for $v in $z return $v`},
		{"let binds after its own expression",
			`let $v := $v + 1 return $v`, []string{"v"},
			`let $v := ($z + 1) return $v`},
		{"clauses see earlier bindings, not outer ones of the same name",
			`for $x in $a let $y := $x + $v where $y > $c order by $y return $x + $y + $d`,
			[]string{"a", "v", "c", "d"},
			`for $x in $a let $y := ($x + $z) where ($y > $c) order by $y return (($x + $y) + $d)`},
		{"nested FLWOR shadows the outer for",
			`for $x in [1] return (for $x in [$x] return $x)`, nil, ""},
		{"positional variable",
			`for $x at $v in $l return $v + $j`, []string{"l", "j"}, ""},
		{"positional variable is not bound in its own source",
			`for $x at $i in $i return $i`, []string{"i"}, ""},
		{"with of an outer variable is a reference, then a binding",
			`for $x in [1] group by $k := $x with $v return count($v)`, []string{"v"},
			`for $x in [1] group by $k := $x with $z return count($z)`},
		{"group-by keys are evaluated before it and bound after it",
			`for $x in [1] let $w := $x group by $x := $x + $v with $w return $x`, []string{"v"},
			`for $x in [1] let $w := $x group by $x := ($x + $z) with $w return $x`},
		{"group-by leaves only its keys and with-variables bound",
			`for $x in [1] let $v := 2 group by $k := $x with $x return $v`, []string{"v"},
			`for $x in [1] let $v := 2 group by $k := $x with $x return $z`},
		{"limit and offset see no binding",
			`for $v in [1, 2] limit $v offset $v return $v`, []string{"v"},
			`for $v in [ 1, 2 ] limit $z offset $z return $v`},
		{"every other node kind is transparent",
			`if ($a[$v] = -$b.f) then { "k": [$c, f($v)] } else {{ $e }}`,
			[]string{"a", "v", "b", "c", "e"},
			`if (($a[$z] = -$b.f)) then { "k": [ $c, f($z) ] } else {{ $e }}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := parseExpr(t, c.src)
			before := e.String()
			if got := algebra.FreeVarsOf(e); !reflect.DeepEqual(got, c.free) {
				t.Errorf("free variables %v, want %v", got, c.free)
			}
			if got := Rewrite(e, identity); got != e {
				t.Errorf("identity callback returned a copy")
			}
			got := Rewrite(e, rename("v", "z"))
			if c.renamed == "" {
				if got != e {
					t.Errorf("no free $v, yet renamed to %s", got)
				}
			} else if got.String() != parseExpr(t, c.renamed).String() {
				t.Errorf("renamed to\n  %s\nwant\n  %s", got, parseExpr(t, c.renamed))
			}
			if e.String() != before {
				t.Errorf("input mutated:\n  %s\nwas\n  %s", e, before)
			}
		})
	}
}

// TestRewriteSharesAndPrunes: a replacement is not walked, and everything
// beside the path to it is the input's own node.
func TestRewriteSharesAndPrunes(t *testing.T) {
	e := parseExpr(t, `for $g in $l where count($w) > 1 return { "n": count($w), "g": $g.name }`).(*FLWORExpr)
	var visited []string
	got := Rewrite(e, func(e Expr, _ *Scope) Expr {
		switch x := e.(type) {
		case *CallExpr:
			return &VariableRef{Name: "#n"}
		case *VariableRef:
			visited = append(visited, x.Name)
		}
		return e
	}).(*FLWORExpr)
	if want := []string{"l", "g"}; !reflect.DeepEqual(visited, want) {
		t.Errorf("visited %v, want %v: a replaced call's argument must not be walked", visited, want)
	}
	if want := `for $g in $l where ($#n > 1) return { "n": $#n, "g": $g.name }`; got.String() != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
	if got.Clauses[0] != e.Clauses[0] {
		t.Errorf("unchanged for clause was copied")
	}
	if got.Return.(*RecordConstructor).Fields[1].Value != e.Return.(*RecordConstructor).Fields[1].Value {
		t.Errorf("unchanged record field was copied")
	}
	if Rewrite(nil, identity) != nil {
		t.Errorf("nil expression must stay nil")
	}
}

func TestRewriteWithVariableMustStayAVariable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("replacing a with-variable by a non-variable did not panic")
		}
	}()
	Rewrite(parseExpr(t, `for $x in [1] group by $k := $x with $w return $k`), func(e Expr, _ *Scope) Expr {
		if v, ok := e.(*VariableRef); ok && v.Name == "w" {
			return &Literal{}
		}
		return e
	})
}
