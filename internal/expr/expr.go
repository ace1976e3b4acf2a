// Package expr evaluates AQL expressions over ADM values. It provides the
// built-in function library (string, temporal, spatial, fuzzy, aggregate
// functions from Table 1), the semantics of the fuzzy ~= operator driven by
// the simfunction/simthreshold prologue parameters, quantified expressions,
// and full FLWOR evaluation for nested subqueries (AsterixDB's subplan
// operator).
//
// It has two evaluators of one semantics. Eval walks the tree over a
// name-keyed Env; Compile resolves variables to row columns and dispatch
// once, into a closure (compile.go). Compiled jobs run only Compile's
// closures, which hand a nested FLWOR, a dataset reference or a user-function
// call back to Eval; Eval serves constants, the differential oracle and
// FuzzCompile, which checks one against the other. A job's group-bys, sorts,
// limits and aggregates are hyracks operators, so this package's
// group/order/limit clauses and aggregate builtins over whole bags serve
// nested subqueries and the oracle. A nested subquery over a stored dataset
// iterates a list its job's nest join bound to a variable: this package
// reads no stored data itself.
package expr

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"asterixdb/internal/adm"
	"asterixdb/internal/aql"
	"asterixdb/internal/fuzzy"
	"asterixdb/internal/spatial"
	"asterixdb/internal/temporal"
)

// DatasetReader resolves a dataset reference to its records. The engine
// wires it to the datasets with no stored partitions — the Metadata
// dataverse and external datasets — which a job reads as subplan sources;
// a stored dataset is read only by its job's scans.
type DatasetReader func(dataverse, name string) ([]*adm.Record, error)

// UserFunction is a user-defined function (Query 8): parameter names plus a
// body expression.
type UserFunction struct {
	Params []string
	Body   aql.Expr
}

// Context carries everything expression evaluation needs beyond the variable
// bindings: the dataset reader for the Metadata and external datasets,
// registered UDFs, the clock behind current-datetime(), and the
// fuzzy-matching prologue settings.
type Context struct {
	Datasets  DatasetReader
	Functions map[string]UserFunction
	Clock     temporal.Clock
	// SimFunction is "edit-distance" or "jaccard"; SimThreshold its threshold.
	SimFunction  string
	SimThreshold float64
}

// NewContext returns a context with the system clock and Jaccard 0.5 fuzzy
// defaults (matching AsterixDB's defaults).
func NewContext() *Context {
	return &Context{
		Functions:    map[string]UserFunction{},
		Clock:        temporal.SystemClock{},
		SimFunction:  "jaccard",
		SimThreshold: 0.5,
	}
}

// Env is a set of variable bindings.
type Env map[string]adm.Value

// With returns a copy of the environment with one extra binding.
func (e Env) With(name string, v adm.Value) Env {
	out := make(Env, len(e)+1)
	for k, val := range e {
		out[k] = val
	}
	out[name] = v
	return out
}

// Eval evaluates an AQL expression under the given bindings.
func Eval(ctx *Context, env Env, e aql.Expr) (adm.Value, error) {
	switch x := e.(type) {
	case *aql.Literal:
		return x.Value, nil
	case *aql.VariableRef:
		v, ok := env[x.Name]
		if !ok {
			return nil, fmt.Errorf("expr: unbound variable $%s", x.Name)
		}
		return v, nil
	case *aql.FieldAccess:
		base, err := Eval(ctx, env, x.Base)
		if err != nil {
			return nil, err
		}
		return fieldOf(base, x.Field), nil
	case *aql.IndexAccess:
		return evalIndexAccess(ctx, env, x)
	case *aql.RecordConstructor:
		rec := &adm.Record{}
		for _, f := range x.Fields {
			v, err := Eval(ctx, env, f.Value)
			if err != nil {
				return nil, err
			}
			rec.Fields = append(rec.Fields, adm.Field{Name: f.Name, Value: v})
		}
		return rec, nil
	case *aql.ListConstructor:
		items := make([]adm.Value, 0, len(x.Items))
		for _, it := range x.Items {
			v, err := Eval(ctx, env, it)
			if err != nil {
				return nil, err
			}
			items = append(items, v)
		}
		if x.Ordered {
			return &adm.OrderedList{Items: items}, nil
		}
		return &adm.UnorderedList{Items: items}, nil
	case *aql.BinaryExpr:
		return evalBinary(ctx, env, x)
	case *aql.UnaryExpr:
		return evalUnary(ctx, env, x)
	case *aql.QuantifiedExpr:
		return evalQuantified(ctx, env, x)
	case *aql.IfExpr:
		cond, err := Eval(ctx, env, x.Cond)
		if err != nil {
			return nil, err
		}
		if adm.Truthy(cond) {
			return Eval(ctx, env, x.Then)
		}
		return Eval(ctx, env, x.Else)
	case *aql.CallExpr:
		return evalCall(ctx, env, x)
	case *aql.DatasetRef:
		return evalDatasetRef(ctx, x)
	case *aql.FLWORExpr:
		items, err := evalFLWORList(ctx, env, x)
		if err != nil {
			return nil, err
		}
		return &adm.OrderedList{Items: items}, nil
	}
	return nil, fmt.Errorf("expr: cannot evaluate %T", e)
}

// EvalBool evaluates a predicate expression; NULL/MISSING and non-booleans
// evaluate to false, matching AQL's where-clause semantics.
func EvalBool(ctx *Context, env Env, e aql.Expr) (bool, error) {
	v, err := Eval(ctx, env, e)
	if err != nil {
		return false, err
	}
	return adm.Truthy(v), nil
}

func evalDatasetRef(ctx *Context, ref *aql.DatasetRef) (adm.Value, error) {
	if ctx.Datasets == nil {
		return nil, fmt.Errorf("expr: no dataset reader configured for dataset %s", ref.Name)
	}
	recs, err := ctx.Datasets(ref.Dataverse, ref.Name)
	if err != nil {
		return nil, err
	}
	items := make([]adm.Value, len(recs))
	for i, r := range recs {
		items[i] = r
	}
	return &adm.OrderedList{Items: items}, nil
}

func evalIndexAccess(ctx *Context, env Env, x *aql.IndexAccess) (adm.Value, error) {
	base, err := Eval(ctx, env, x.Base)
	if err != nil {
		return nil, err
	}
	idx, err := Eval(ctx, env, x.Index)
	if err != nil {
		return nil, err
	}
	return indexOf(base, idx), nil
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

// FieldOf resolves a field access on a value with the evaluator's exact
// semantics: records resolve the field, everything else is MISSING.
func FieldOf(v adm.Value, field string) adm.Value { return fieldOf(v, field) }

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
// singleton. The compiled unnest and subplan operators share it so their
// semantics cannot drift from the interpreter's for-clause.
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

func evalBinary(ctx *Context, env Env, x *aql.BinaryExpr) (adm.Value, error) {
	// and/or short-circuit.
	switch x.Op {
	case aql.OpAnd:
		l, err := EvalBool(ctx, env, x.Left)
		if err != nil {
			return nil, err
		}
		if !l {
			return adm.Boolean(false), nil
		}
		r, err := EvalBool(ctx, env, x.Right)
		if err != nil {
			return nil, err
		}
		return adm.Boolean(r), nil
	case aql.OpOr:
		l, err := EvalBool(ctx, env, x.Left)
		if err != nil {
			return nil, err
		}
		if l {
			return adm.Boolean(true), nil
		}
		r, err := EvalBool(ctx, env, x.Right)
		if err != nil {
			return nil, err
		}
		return adm.Boolean(r), nil
	}
	left, err := Eval(ctx, env, x.Left)
	if err != nil {
		return nil, err
	}
	right, err := Eval(ctx, env, x.Right)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case aql.OpEq, aql.OpNeq, aql.OpLt, aql.OpLe, aql.OpGt, aql.OpGe:
		return evalComparison(x.Op, left, right)
	case aql.OpAdd, aql.OpSub, aql.OpMul, aql.OpDiv, aql.OpMod:
		return evalArithmetic(x.Op, left, right)
	case aql.OpFuzzyEq:
		return evalFuzzyEq(ctx, left, right)
	}
	return nil, fmt.Errorf("expr: unsupported operator %q", x.Op)
}

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

func evalUnary(ctx *Context, env Env, x *aql.UnaryExpr) (adm.Value, error) {
	v, err := Eval(ctx, env, x.Operand)
	if err != nil {
		return nil, err
	}
	return unary(x.Op, v)
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

func evalQuantified(ctx *Context, env Env, x *aql.QuantifiedExpr) (adm.Value, error) {
	src, err := Eval(ctx, env, x.Source)
	if err != nil {
		return nil, err
	}
	for _, item := range IterationItems(src) {
		sat, err := EvalBool(ctx, env.With(x.Var, item), x.Satisfies)
		if err != nil {
			return nil, err
		}
		if x.Every && !sat {
			return adm.Boolean(false), nil
		}
		if !x.Every && sat {
			return adm.Boolean(true), nil
		}
	}
	return adm.Boolean(x.Every), nil
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
// FLWOR evaluation (nested subqueries / subplans)
// ----------------------------------------------------------------------------

// EvalFLWOR evaluates a FLWOR expression and returns the sequence of returned
// values, as Eval does for a FLWOR nested in an expression — the rest of the
// paper's nested left outer-join (Query 4) over the list its nest join binds.
func EvalFLWOR(ctx *Context, env Env, fl *aql.FLWORExpr) ([]adm.Value, error) {
	return evalFLWORList(ctx, env, fl)
}

func evalFLWORList(ctx *Context, env Env, fl *aql.FLWORExpr) ([]adm.Value, error) {
	envs := []Env{env}
	for _, clause := range fl.Clauses {
		var err error
		envs, err = applyClause(ctx, envs, clause)
		if err != nil {
			return nil, err
		}
		if _, ok := clause.(*aql.GroupByClause); ok && len(env) > 0 {
			// A group-by leaves only its keys and with-variables of the
			// FLWOR's own bindings; the bindings the FLWOR was entered with
			// stay visible, as aql.Rewrite scopes them.
			for i, g := range envs {
				merged := make(Env, len(env)+len(g))
				maps.Copy(merged, env)
				maps.Copy(merged, g)
				envs[i] = merged
			}
		}
	}
	out := make([]adm.Value, 0, len(envs))
	for _, e := range envs {
		v, err := Eval(ctx, e, fl.Return)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ApplyClause applies one FLWOR clause to a set of bindings. Only the
// differential oracle calls it: compiled jobs run group-by, order and limit
// as hyracks operators, which the oracle checks against these semantics.
func ApplyClause(ctx *Context, envs []Env, clause aql.FLWORClause) ([]Env, error) {
	return applyClause(ctx, envs, clause)
}

func applyClause(ctx *Context, envs []Env, clause aql.FLWORClause) ([]Env, error) {
	switch c := clause.(type) {
	case *aql.ForClause:
		var out []Env
		for _, env := range envs {
			src, err := Eval(ctx, env, c.Source)
			if err != nil {
				return nil, err
			}
			for i, item := range IterationItems(src) {
				e := env.With(c.Var, item)
				if c.PosVar != "" {
					e = e.With(c.PosVar, adm.Int64(i+1))
				}
				out = append(out, e)
			}
		}
		return out, nil
	case *aql.LetClause:
		out := make([]Env, 0, len(envs))
		for _, env := range envs {
			v, err := Eval(ctx, env, c.Expr)
			if err != nil {
				return nil, err
			}
			out = append(out, env.With(c.Var, v))
		}
		return out, nil
	case *aql.WhereClause:
		var out []Env
		for _, env := range envs {
			keep, err := EvalBool(ctx, env, c.Cond)
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, env)
			}
		}
		return out, nil
	case *aql.GroupByClause:
		return applyGroupBy(ctx, envs, c)
	case *aql.OrderByClause:
		return applyOrderBy(ctx, envs, c)
	case *aql.LimitClause:
		return applyLimit(ctx, envs, c)
	}
	return nil, fmt.Errorf("expr: unsupported FLWOR clause %T", clause)
}

func applyGroupBy(ctx *Context, envs []Env, c *aql.GroupByClause) ([]Env, error) {
	type group struct {
		keyVals []adm.Value
		members []Env
	}
	groups := map[string]*group{}
	var order []string
	for _, env := range envs {
		keyVals := make([]adm.Value, len(c.Keys))
		var keyBytes []byte
		for i, k := range c.Keys {
			v, err := Eval(ctx, env, k.Expr)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
			keyBytes = adm.EncodeKey(keyBytes, v)
		}
		ks := string(keyBytes)
		g, ok := groups[ks]
		if !ok {
			g = &group{keyVals: keyVals}
			groups[ks] = g
			order = append(order, ks)
		}
		g.members = append(g.members, env)
	}
	out := make([]Env, 0, len(order))
	for _, ks := range order {
		g := groups[ks]
		env := Env{}
		for i, k := range c.Keys {
			env[k.Var] = g.keyVals[i]
		}
		// Each "with" variable becomes the bag of its values across the group.
		for _, with := range c.With {
			items := make([]adm.Value, 0, len(g.members))
			for _, m := range g.members {
				if v, ok := m[with]; ok {
					items = append(items, v)
				}
			}
			env[with] = &adm.OrderedList{Items: items}
		}
		out = append(out, env)
	}
	return out, nil
}

func applyOrderBy(ctx *Context, envs []Env, c *aql.OrderByClause) ([]Env, error) {
	type keyed struct {
		env  Env
		keys []adm.Value
	}
	rows := make([]keyed, len(envs))
	for i, env := range envs {
		keys := make([]adm.Value, len(c.Terms))
		for j, term := range c.Terms {
			v, err := Eval(ctx, env, term.Expr)
			if err != nil {
				return nil, err
			}
			keys[j] = v
		}
		rows[i] = keyed{env: env, keys: keys}
	}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for t, term := range c.Terms {
			cmp, err := adm.Compare(rows[i].keys[t], rows[j].keys[t])
			if err != nil {
				sortErr = err
				return false
			}
			if cmp == 0 {
				continue
			}
			if term.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	out := make([]Env, len(rows))
	for i, r := range rows {
		out[i] = r.env
	}
	return out, nil
}

func applyLimit(ctx *Context, envs []Env, c *aql.LimitClause) ([]Env, error) {
	limV, err := Eval(ctx, Env{}, c.Limit)
	if err != nil {
		return nil, err
	}
	lim, ok := adm.NumericAsInt64(limV)
	if !ok {
		return nil, fmt.Errorf("expr: limit must be numeric")
	}
	offset := int64(0)
	if c.Offset != nil {
		offV, err := Eval(ctx, Env{}, c.Offset)
		if err != nil {
			return nil, err
		}
		offset, _ = adm.NumericAsInt64(offV)
	}
	if offset > int64(len(envs)) {
		return nil, nil
	}
	envs = envs[offset:]
	if lim < int64(len(envs)) {
		envs = envs[:lim]
	}
	return envs, nil
}

// ----------------------------------------------------------------------------
// Function calls
// ----------------------------------------------------------------------------

func evalCall(ctx *Context, env Env, call *aql.CallExpr) (adm.Value, error) {
	name := strings.ToLower(call.Func)
	// User-defined functions shadow nothing built-in (AQL resolves built-ins
	// first), so check built-ins before UDFs, except that unknown built-ins
	// fall through to UDF lookup.
	args := make([]adm.Value, len(call.Args))
	// Aggregates evaluate their argument specially (it is usually a FLWOR),
	// but the argument still produces a list value, so normal evaluation works.
	for i, a := range call.Args {
		v, err := Eval(ctx, env, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	if fn, ok := builtins[name]; ok {
		return fn(ctx, args)
	}
	if udf, ok := ctx.UserFunction(call.Func); ok {
		if len(args) != len(udf.Params) {
			return nil, fmt.Errorf("expr: function %s expects %d arguments, got %d", call.Func, len(udf.Params), len(args))
		}
		fnEnv := Env{}
		for i, p := range udf.Params {
			fnEnv[p] = args[i]
		}
		return Eval(ctx, fnEnv, udf.Body)
	}
	return nil, fmt.Errorf("expr: unknown function %q", call.Func)
}

// UserFunction returns the user-defined function a call of name invokes:
// none when a built-in of that name shadows it.
func (ctx *Context) UserFunction(name string) (UserFunction, bool) {
	if _, ok := builtins[strings.ToLower(name)]; ok {
		return UserFunction{}, false
	}
	fn, ok := ctx.Functions[name]
	return fn, ok
}

type builtinFunc func(ctx *Context, args []adm.Value) (adm.Value, error)

var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		// Aggregates with AQL null semantics (any null -> null) and their
		// SQL-92 "best guess" variants.
		"count":     aggCount,
		"sql-count": aggCount,
		"sum":       func(c *Context, a []adm.Value) (adm.Value, error) { return aggSum(a, false) },
		"sql-sum":   func(c *Context, a []adm.Value) (adm.Value, error) { return aggSum(a, true) },
		"avg":       func(c *Context, a []adm.Value) (adm.Value, error) { return aggAvg(a, false) },
		"sql-avg":   func(c *Context, a []adm.Value) (adm.Value, error) { return aggAvg(a, true) },
		"min":       func(c *Context, a []adm.Value) (adm.Value, error) { return aggMinMax(a, false, false) },
		"sql-min":   func(c *Context, a []adm.Value) (adm.Value, error) { return aggMinMax(a, false, true) },
		"max":       func(c *Context, a []adm.Value) (adm.Value, error) { return aggMinMax(a, true, false) },
		"sql-max":   func(c *Context, a []adm.Value) (adm.Value, error) { return aggMinMax(a, true, true) },

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

func aggItems(args []adm.Value) []adm.Value {
	if len(args) == 0 {
		return nil
	}
	if items, ok := listItems(args[0]); ok {
		return items
	}
	return args
}

func aggCount(_ *Context, args []adm.Value) (adm.Value, error) {
	return adm.Int64(len(aggItems(args))), nil
}

func aggSum(args []adm.Value, sqlSemantics bool) (adm.Value, error) {
	items := aggItems(args)
	sum := 0.0
	n := 0
	for _, it := range items {
		if adm.IsUnknown(it) {
			if sqlSemantics {
				continue
			}
			return adm.Null{}, nil
		}
		d, ok := adm.NumericAsDouble(it)
		if !ok {
			return adm.Null{}, nil
		}
		sum += d
		n++
	}
	if n == 0 {
		return adm.Null{}, nil
	}
	return adm.Double(sum), nil
}

func aggAvg(args []adm.Value, sqlSemantics bool) (adm.Value, error) {
	items := aggItems(args)
	sum := 0.0
	n := 0
	for _, it := range items {
		if adm.IsUnknown(it) {
			if sqlSemantics {
				continue
			}
			// AQL semantics: the average of a set containing null is null.
			return adm.Null{}, nil
		}
		d, ok := adm.NumericAsDouble(it)
		if !ok {
			return adm.Null{}, nil
		}
		sum += d
		n++
	}
	if n == 0 {
		return adm.Null{}, nil
	}
	return adm.Double(sum / float64(n)), nil
}

func aggMinMax(args []adm.Value, max, sqlSemantics bool) (adm.Value, error) {
	items := aggItems(args)
	var best adm.Value
	for _, it := range items {
		if adm.IsUnknown(it) {
			if sqlSemantics {
				continue
			}
			return adm.Null{}, nil
		}
		if best == nil {
			best = it
			continue
		}
		c, err := adm.Compare(it, best)
		if err != nil {
			return adm.Null{}, nil
		}
		if (max && c > 0) || (!max && c < 0) {
			best = it
		}
	}
	if best == nil {
		return adm.Null{}, nil
	}
	return best, nil
}
