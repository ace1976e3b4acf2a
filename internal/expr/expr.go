// Package expr evaluates AQL expressions over ADM values. It provides the
// built-in function library (string, temporal, spatial, fuzzy, aggregate
// functions from Table 1), the semantics of the fuzzy ~= operator driven by
// the simfunction/simthreshold prologue parameters, quantified expressions,
// and full FLWOR evaluation for nested subqueries (AsterixDB's subplan
// operator).
//
// It has one evaluator: Compile resolves every variable to a column of a row
// and every dispatch once, into a closure (compile.go). A compiled job runs
// only these closures, and so do a job's constants: limits and index probe
// bounds. A user function never reaches this package: the translator inlines
// every call before compiling, so a call of a name that is not a builtin is
// an unknown function. A job's group-bys, sorts, limits and aggregates are
// hyracks operators; this package's FLWOR clauses serve nested subqueries,
// and its aggregate builtins fold a list's items through the kernel those
// operators run (package agg). A nested subquery over a dataset, stored,
// external or Metadata, iterates a list its job's nest join bound to a
// variable: this package reads no dataset itself. Eval is Compile run once
// over a name-keyed Env; the tree-walking reference the tests check Compile
// against is package oracle.
package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"asterixdb/internal/adm"
	"asterixdb/internal/agg"
	"asterixdb/internal/aql"
	"asterixdb/internal/fuzzy"
	"asterixdb/internal/spatial"
	"asterixdb/internal/temporal"
)

// Context carries what expression evaluation needs beyond the variable
// bindings: the clock behind current-datetime() and the fuzzy-matching
// prologue settings. A request evaluates under its own copy, which its set
// statements write.
type Context struct {
	Clock temporal.Clock
	// SimFunction is one of SimFunctions; SimThreshold its threshold.
	SimFunction  string
	SimThreshold float64
}

// SimFunctions are the similarity functions ~= implements.
var SimFunctions = []string{"jaccard", "edit-distance"}

// NewContext returns a context with the system clock and Jaccard 0.5 fuzzy
// defaults (matching AsterixDB's defaults).
func NewContext() *Context {
	return &Context{
		Clock:        temporal.SystemClock{},
		SimFunction:  "jaccard",
		SimThreshold: 0.5,
	}
}

// Env names the values of the variables an expression is run over by Eval.
type Env map[string]adm.Value

// Eval compiles e over env's names and runs the closure once. No daemon code
// calls it: it serves the bench module's per-layer rungs and tests that
// evaluate an expression once.
func Eval(ctx *Context, env Env, e aql.Expr) (adm.Value, error) {
	slots := make([]string, 0, len(env))
	row := make([]adm.Value, 0, len(env))
	for name, v := range env {
		slots, row = append(slots, name), append(row, v)
	}
	return Compile(ctx, e, slots)(row)
}

// EvalBool is Eval of a predicate: NULL/MISSING and non-booleans are false,
// matching AQL's where-clause semantics.
func EvalBool(ctx *Context, env Env, e aql.Expr) (bool, error) {
	v, err := Eval(ctx, env, e)
	if err != nil {
		return false, err
	}
	return adm.Truthy(v), nil
}

func indexOf(base, idx adm.Value) adm.Value {
	n, ok := adm.NumericAsInt64(idx)
	if !ok {
		return adm.Null{}
	}
	items, ok := listItems(base)
	if !ok || n < 0 || int(n) >= len(items) {
		return adm.Missing{}
	}
	return items[n]
}

func fieldOf(v adm.Value, field string) adm.Value {
	switch rec := v.(type) {
	case *adm.Record:
		return rec.Get(field)
	case *adm.LazyRecord:
		// The hot path: resolve one field out of the byte slab without
		// materializing the record.
		return rec.Get(field)
	}
	return adm.Missing{}
}

func listItems(v adm.Value) ([]adm.Value, bool) {
	switch l := v.(type) {
	case *adm.OrderedList:
		return l.Items, true
	case *adm.UnorderedList:
		return l.Items, true
	}
	return nil, false
}

// IterationItems returns the items a for-clause iterates for a source value:
// the elements of a list, nothing for NULL/MISSING, or the value itself as a
// singleton. A compiled for-clause, the job's unnest operator and the oracle
// share it so their semantics cannot drift.
func IterationItems(v adm.Value) []adm.Value {
	if items, ok := listItems(v); ok {
		return items
	}
	if adm.IsUnknown(v) {
		return nil
	}
	return []adm.Value{v}
}

// ----------------------------------------------------------------------------
// Operators
// ----------------------------------------------------------------------------

func evalComparison(op aql.BinaryOp, left, right adm.Value) (adm.Value, error) {
	if adm.IsUnknown(left) || adm.IsUnknown(right) {
		return adm.Null{}, nil
	}
	c, err := adm.Compare(left, right)
	if err != nil {
		return adm.Null{}, nil
	}
	return comparisonResult(op, c), nil
}

// comparisonResult is comparison op's answer for c, the sign of
// Compare(left, right).
func comparisonResult(op aql.BinaryOp, c int) adm.Value {
	switch op {
	case aql.OpEq:
		return adm.Boolean(c == 0)
	case aql.OpNeq:
		return adm.Boolean(c != 0)
	case aql.OpLt:
		return adm.Boolean(c < 0)
	case aql.OpLe:
		return adm.Boolean(c <= 0)
	case aql.OpGt:
		return adm.Boolean(c > 0)
	case aql.OpGe:
		return adm.Boolean(c >= 0)
	}
	return adm.Null{}
}

func evalArithmetic(op aql.BinaryOp, left, right adm.Value) (adm.Value, error) {
	if adm.IsUnknown(left) || adm.IsUnknown(right) {
		return adm.Null{}, nil
	}
	// Datetime/date/duration arithmetic.
	if left.Tag().IsTemporal() || right.Tag().IsTemporal() {
		return evalTemporalArithmetic(op, left, right)
	}
	l, lok := adm.NumericAsDouble(left)
	r, rok := adm.NumericAsDouble(right)
	if !lok || !rok {
		return nil, fmt.Errorf("expr: arithmetic on non-numeric values %s and %s", left.Tag(), right.Tag())
	}
	bothInt := isIntTag(left.Tag()) && isIntTag(right.Tag())
	var out float64
	switch op {
	case aql.OpAdd:
		out = l + r
	case aql.OpSub:
		out = l - r
	case aql.OpMul:
		out = l * r
	case aql.OpDiv:
		if r == 0 {
			return adm.Null{}, nil
		}
		out = l / r
		bothInt = false
	case aql.OpMod:
		// Modulo is on the integer parts: a fractional divisor below one is
		// zero too.
		li, _ := adm.NumericAsInt64(left)
		ri, _ := adm.NumericAsInt64(right)
		if ri == 0 {
			return adm.Null{}, nil
		}
		return adm.Int64(li % ri), nil
	}
	if bothInt {
		return adm.Int64(int64(out)), nil
	}
	return adm.Double(out), nil
}

func isIntTag(t adm.TypeTag) bool {
	switch t {
	case adm.TagInt8, adm.TagInt16, adm.TagInt32, adm.TagInt64:
		return true
	}
	return false
}

func evalTemporalArithmetic(op aql.BinaryOp, left, right adm.Value) (adm.Value, error) {
	dur, isDur := asDuration(right)
	switch op {
	case aql.OpAdd:
		if isDur {
			return temporal.AddDuration(left, dur)
		}
		if ld, ok := asDuration(left); ok {
			return temporal.AddDuration(right, ld)
		}
	case aql.OpSub:
		if isDur {
			return temporal.SubtractDuration(left, dur)
		}
		if left.Tag() == right.Tag() {
			d, err := temporal.Subtract(left, right)
			if err != nil {
				return nil, err
			}
			return d, nil
		}
	}
	return nil, fmt.Errorf("expr: unsupported temporal arithmetic %s %s %s", left.Tag(), op, right.Tag())
}

func asDuration(v adm.Value) (adm.Duration, bool) {
	switch d := v.(type) {
	case adm.Duration:
		return d, true
	case adm.YearMonthDuration:
		return adm.Duration{Months: int32(d)}, true
	case adm.DayTimeDuration:
		return adm.Duration{Millis: int64(d)}, true
	}
	return adm.Duration{}, false
}

func unary(op string, v adm.Value) (adm.Value, error) {
	switch op {
	case "not":
		if adm.IsUnknown(v) {
			return adm.Null{}, nil
		}
		return adm.Boolean(!adm.Truthy(v)), nil
	case "-":
		// Negation keeps its operand's width; only a width's minimum, whose
		// negation does not fit it, widens to the next one (int64's, with no
		// wider integer, negates to itself).
		switch n := v.(type) {
		case adm.Int8:
			if n == math.MinInt8 {
				return adm.Int16(-int16(n)), nil
			}
			return -n, nil
		case adm.Int16:
			if n == math.MinInt16 {
				return adm.Int32(-int32(n)), nil
			}
			return -n, nil
		case adm.Int32:
			if n == math.MinInt32 {
				return adm.Int64(-int64(n)), nil
			}
			return -n, nil
		case adm.Int64:
			return -n, nil
		case adm.Float:
			return -n, nil
		case adm.Double:
			return -n, nil
		}
		return nil, fmt.Errorf("expr: cannot negate %s", v.Tag())
	}
	return nil, fmt.Errorf("expr: unknown unary operator %q", op)
}

// evalFuzzyEq implements ~= with the context's simfunction/simthreshold.
func evalFuzzyEq(ctx *Context, left, right adm.Value) (adm.Value, error) {
	if adm.IsUnknown(left) || adm.IsUnknown(right) {
		return adm.Null{}, nil
	}
	switch ctx.SimFunction {
	case "edit-distance":
		ls, lok := left.(adm.String)
		rs, rok := right.(adm.String)
		if !lok || !rok {
			return adm.Boolean(false), nil
		}
		threshold := int(ctx.SimThreshold)
		ok, _ := fuzzy.EditDistanceCheck(string(ls), string(rs), threshold)
		return adm.Boolean(ok), nil
	case "jaccard":
		sim, err := fuzzy.SimilarityJaccard(left, right)
		if err != nil {
			return adm.Boolean(false), nil
		}
		return adm.Boolean(sim >= ctx.SimThreshold), nil
	}
	return nil, fmt.Errorf("expr: unknown simfunction %q", ctx.SimFunction)
}

// ----------------------------------------------------------------------------
// Function calls
// ----------------------------------------------------------------------------

// IsBuiltin reports whether name calls a builtin. A builtin shadows a user
// function of the same name.
func IsBuiltin(name string) bool {
	_, ok := builtins[strings.ToLower(name)]
	return ok
}

type builtinFunc func(ctx *Context, args []adm.Value) (adm.Value, error)

var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		// String functions.
		"string-length": func(c *Context, a []adm.Value) (adm.Value, error) {
			s, err := argString(a, 0, "string-length")
			if err != nil {
				return adm.Null{}, nil
			}
			return adm.Int64(utf8.RuneCountInString(s)), nil
		},
		"lowercase": func(c *Context, a []adm.Value) (adm.Value, error) {
			s, err := argString(a, 0, "lowercase")
			if err != nil {
				return adm.Null{}, nil
			}
			return adm.String(strings.ToLower(s)), nil
		},
		"uppercase": func(c *Context, a []adm.Value) (adm.Value, error) {
			s, err := argString(a, 0, "uppercase")
			if err != nil {
				return adm.Null{}, nil
			}
			return adm.String(strings.ToUpper(s)), nil
		},
		"contains": func(c *Context, a []adm.Value) (adm.Value, error) {
			s, err1 := argString(a, 0, "contains")
			sub, err2 := argString(a, 1, "contains")
			if err1 != nil || err2 != nil {
				return adm.Boolean(false), nil
			}
			return adm.Boolean(fuzzy.Contains(s, sub)), nil
		},
		"like": func(c *Context, a []adm.Value) (adm.Value, error) {
			s, err1 := argString(a, 0, "like")
			pat, err2 := argString(a, 1, "like")
			if err1 != nil || err2 != nil {
				return adm.Boolean(false), nil
			}
			return adm.Boolean(fuzzy.Like(s, pat)), nil
		},
		"matches": func(c *Context, a []adm.Value) (adm.Value, error) {
			s, err1 := argString(a, 0, "matches")
			pat, err2 := argString(a, 1, "matches")
			if err1 != nil || err2 != nil {
				return adm.Boolean(false), nil
			}
			return adm.Boolean(fuzzy.Matches(s, pat)), nil
		},
		"replace": func(c *Context, a []adm.Value) (adm.Value, error) {
			s, err1 := argString(a, 0, "replace")
			old, err2 := argString(a, 1, "replace")
			new, err3 := argString(a, 2, "replace")
			if err1 != nil || err2 != nil || err3 != nil {
				return adm.Null{}, nil
			}
			return adm.String(fuzzy.Replace(s, old, new)), nil
		},
		"word-tokens": func(c *Context, a []adm.Value) (adm.Value, error) {
			s, err := argString(a, 0, "word-tokens")
			if err != nil {
				return &adm.OrderedList{}, nil
			}
			toks := fuzzy.WordTokens(s)
			items := make([]adm.Value, len(toks))
			for i, t := range toks {
				items[i] = adm.String(t)
			}
			return &adm.OrderedList{Items: items}, nil
		},
		"gram-tokens": func(c *Context, a []adm.Value) (adm.Value, error) {
			s, err := argString(a, 0, "gram-tokens")
			if err != nil {
				return &adm.OrderedList{}, nil
			}
			k := int64(3)
			if len(a) > 1 {
				k, _ = adm.NumericAsInt64(a[1])
			}
			toks := fuzzy.NGramTokens(s, int(k))
			items := make([]adm.Value, len(toks))
			for i, t := range toks {
				items[i] = adm.String(t)
			}
			return &adm.OrderedList{Items: items}, nil
		},

		// Fuzzy similarity functions.
		"edit-distance": func(c *Context, a []adm.Value) (adm.Value, error) {
			s1, err1 := argString(a, 0, "edit-distance")
			s2, err2 := argString(a, 1, "edit-distance")
			if err1 != nil || err2 != nil {
				return adm.Null{}, nil
			}
			return adm.Int64(fuzzy.EditDistance(s1, s2)), nil
		},
		"edit-distance-check": func(c *Context, a []adm.Value) (adm.Value, error) {
			s1, err1 := argString(a, 0, "edit-distance-check")
			s2, err2 := argString(a, 1, "edit-distance-check")
			if err1 != nil || err2 != nil || len(a) < 3 {
				return adm.Null{}, nil
			}
			threshold, _ := adm.NumericAsInt64(a[2])
			ok, d := fuzzy.EditDistanceCheck(s1, s2, int(threshold))
			return &adm.OrderedList{Items: []adm.Value{adm.Boolean(ok), adm.Int64(d)}}, nil
		},
		"edit-distance-contains": func(c *Context, a []adm.Value) (adm.Value, error) {
			s1, err1 := argString(a, 0, "edit-distance-contains")
			s2, err2 := argString(a, 1, "edit-distance-contains")
			if err1 != nil || err2 != nil || len(a) < 3 {
				return adm.Null{}, nil
			}
			threshold, _ := adm.NumericAsInt64(a[2])
			return adm.Boolean(fuzzy.EditDistanceContains(s1, s2, int(threshold))), nil
		},
		"similarity-jaccard": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 2 {
				return adm.Null{}, nil
			}
			sim, err := fuzzy.SimilarityJaccard(a[0], a[1])
			if err != nil {
				return adm.Null{}, nil
			}
			return adm.Double(sim), nil
		},
		"similarity-jaccard-check": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 3 {
				return adm.Null{}, nil
			}
			threshold, ok := adm.NumericAsDouble(a[2])
			if !ok {
				return adm.Null{}, nil
			}
			sim, err := fuzzy.SimilarityJaccard(a[0], a[1])
			if err != nil {
				return adm.Null{}, nil
			}
			return &adm.OrderedList{Items: []adm.Value{adm.Boolean(sim >= threshold), adm.Double(sim)}}, nil
		},

		// Spatial functions.
		"spatial-distance": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 2 {
				return adm.Null{}, nil
			}
			d, err := spatial.SpatialDistance(a[0], a[1])
			if err != nil {
				return adm.Null{}, nil
			}
			return d, nil
		},
		"spatial-area": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 1 {
				return adm.Null{}, nil
			}
			area, err := spatial.Area(a[0])
			if err != nil {
				return adm.Null{}, nil
			}
			return adm.Double(area), nil
		},
		"spatial-intersect": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 2 {
				return adm.Null{}, nil
			}
			ok, err := spatial.Intersect(a[0], a[1])
			if err != nil {
				return adm.Null{}, nil
			}
			return adm.Boolean(ok), nil
		},
		"spatial-cell": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 4 {
				return adm.Null{}, nil
			}
			p, ok1 := a[0].(adm.Point)
			origin, ok2 := a[1].(adm.Point)
			xs, ok3 := adm.NumericAsDouble(a[2])
			ys, ok4 := adm.NumericAsDouble(a[3])
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return adm.Null{}, nil
			}
			cell, err := spatial.Cell(p, origin, xs, ys)
			if err != nil {
				return adm.Null{}, nil
			}
			return cell, nil
		},
		"create-point": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 2 {
				return adm.Null{}, nil
			}
			x, ok1 := adm.NumericAsDouble(a[0])
			y, ok2 := adm.NumericAsDouble(a[1])
			if !ok1 || !ok2 {
				return adm.Null{}, nil
			}
			return adm.Point{X: x, Y: y}, nil
		},
		"create-rectangle": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 2 {
				return adm.Null{}, nil
			}
			ll, ok1 := a[0].(adm.Point)
			ur, ok2 := a[1].(adm.Point)
			if !ok1 || !ok2 {
				return adm.Null{}, nil
			}
			return adm.Rectangle{LowerLeft: ll, UpperRight: ur}, nil
		},
		"create-circle": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 2 {
				return adm.Null{}, nil
			}
			center, ok1 := a[0].(adm.Point)
			r, ok2 := adm.NumericAsDouble(a[1])
			if !ok1 || !ok2 {
				return adm.Null{}, nil
			}
			return adm.Circle{Center: center, Radius: r}, nil
		},

		// Temporal functions.
		"current-datetime": func(c *Context, a []adm.Value) (adm.Value, error) {
			return temporal.CurrentDatetime(c.Clock), nil
		},
		"current-date": func(c *Context, a []adm.Value) (adm.Value, error) {
			return temporal.CurrentDate(c.Clock), nil
		},
		"current-time": func(c *Context, a []adm.Value) (adm.Value, error) {
			return temporal.CurrentTime(c.Clock), nil
		},
		"datetime":  constructorFunc("datetime"),
		"date":      constructorFunc("date"),
		"time":      constructorFunc("time"),
		"duration":  constructorFunc("duration"),
		"point":     constructorFunc("point"),
		"rectangle": constructorFunc("rectangle"),
		"circle":    constructorFunc("circle"),
		"boolean":   constructorFunc("boolean"),
		"interval-bin": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 3 {
				return adm.Null{}, nil
			}
			d, ok := asDuration(a[2])
			if !ok {
				return adm.Null{}, nil
			}
			bin, err := temporal.IntervalBin(a[0], a[1], d)
			if err != nil {
				return adm.Null{}, nil
			}
			return bin, nil
		},
		"interval-start-from-datetime": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 2 {
				return adm.Null{}, nil
			}
			dt, ok := a[0].(adm.Datetime)
			d, ok2 := asDuration(a[1])
			if !ok || !ok2 {
				return adm.Null{}, nil
			}
			iv, err := temporal.IntervalStartFromDatetime(dt, d)
			if err != nil {
				return adm.Null{}, nil
			}
			return iv, nil
		},
		"interval-before":      intervalRelation(temporal.Before),
		"interval-after":       intervalRelation(temporal.After),
		"interval-meets":       intervalRelation(temporal.Meets),
		"interval-overlapping": intervalRelation(temporal.Overlapping),
		"interval-covers":      intervalRelation(temporal.Covers),
		"adjust-datetime-for-timezone": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 2 {
				return adm.Null{}, nil
			}
			dt, ok := a[0].(adm.Datetime)
			tz, ok2 := a[1].(adm.String)
			if !ok || !ok2 {
				return adm.Null{}, nil
			}
			out, err := temporal.AdjustDatetimeForTimezone(dt, string(tz))
			if err != nil {
				return adm.Null{}, nil
			}
			return out, nil
		},

		// Null/missing handling and misc.
		"is-null": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 1 {
				return adm.Boolean(true), nil
			}
			return adm.Boolean(adm.IsUnknown(a[0])), nil
		},
		"is-missing": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 1 {
				return adm.Boolean(true), nil
			}
			return adm.Boolean(a[0].Tag() == adm.TagMissing), nil
		},
		"not": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 1 || adm.IsUnknown(a[0]) {
				return adm.Null{}, nil
			}
			return adm.Boolean(!adm.Truthy(a[0])), nil
		},
		"len": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 1 {
				return adm.Null{}, nil
			}
			if items, ok := listItems(a[0]); ok {
				return adm.Int64(len(items)), nil
			}
			return adm.Null{}, nil
		},
		"string": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 1 {
				return adm.Null{}, nil
			}
			if s, ok := a[0].(adm.String); ok {
				return s, nil
			}
			return adm.String(a[0].String()), nil
		},
		"int32": func(c *Context, a []adm.Value) (adm.Value, error) {
			if len(a) < 1 {
				return adm.Null{}, nil
			}
			if s, ok := a[0].(adm.String); ok {
				n, err := strconv.ParseInt(string(s), 10, 32)
				if err != nil {
					return adm.Null{}, nil
				}
				return adm.Int32(n), nil
			}
			n, ok := adm.NumericAsInt64(a[0])
			if !ok {
				return adm.Null{}, nil
			}
			return adm.Int32(int32(n)), nil
		},
	}
	// Aggregates with AQL null semantics (any null -> null) and their
	// SQL-92 "best guess" variants.
	for _, base := range []string{"count", "sum", "avg", "min", "max"} {
		for _, name := range []string{base, "sql-" + base} {
			fn, _ := agg.Parse(name)
			builtins[name] = aggregate(fn)
		}
	}
}

func constructorFunc(typeName string) builtinFunc {
	return func(c *Context, a []adm.Value) (adm.Value, error) {
		if len(a) < 1 {
			return adm.Null{}, nil
		}
		switch v := a[0].(type) {
		case adm.String:
			out, err := adm.Construct(typeName, string(v))
			if err != nil {
				return adm.Null{}, nil
			}
			return out, nil
		default:
			// Already the right type (e.g. datetime($x) where $x is a datetime).
			return v, nil
		}
	}
}

func intervalRelation(rel func(a, b adm.Interval) bool) builtinFunc {
	return func(c *Context, args []adm.Value) (adm.Value, error) {
		if len(args) < 2 {
			return adm.Null{}, nil
		}
		a, ok1 := args[0].(adm.Interval)
		b, ok2 := args[1].(adm.Interval)
		if !ok1 || !ok2 {
			return adm.Null{}, nil
		}
		return adm.Boolean(rel(a, b)), nil
	}
}

func argString(args []adm.Value, i int, fn string) (string, error) {
	if i >= len(args) {
		return "", fmt.Errorf("expr: %s: missing argument %d", fn, i)
	}
	s, ok := args[i].(adm.String)
	if !ok {
		return "", fmt.Errorf("expr: %s: argument %d is %s, not string", fn, i, args[i].Tag())
	}
	return string(s), nil
}

// ----------------------------------------------------------------------------
// Aggregates
// ----------------------------------------------------------------------------

// aggregate is the builtin of an aggregate with a one-pass accumulator, AQL
// semantics or its sql- variant: it folds its items — a list argument's,
// otherwise the arguments themselves — through the aggregate kernel, the
// one a job's group-bys and local/global aggregates run, and finishes.
func aggregate(fn agg.Fn) builtinFunc {
	return func(_ *Context, args []adm.Value) (adm.Value, error) {
		items := args
		if len(args) > 0 {
			if l, ok := listItems(args[0]); ok {
				items = l
			}
		}
		var a agg.Accum
		for _, it := range items {
			a.Fold(fn, it)
		}
		return a.Finish(fn), nil
	}
}
