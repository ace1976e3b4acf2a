// Package oracle is the reference evaluator the tests check expr.Compile, the
// translator's inlining, the compiled jobs and the aggregate kernel against.
// It walks the AST over a name-keyed Env: it looks variables up by name,
// short-circuits and and or, iterates quantifiers, applies FLWOR clauses to
// sets of environments, calls a user function by binding its parameters at
// call time, reads a dataset reference whole, and computes an aggregate over
// its whole list at once (aggregate.go), where the daemon folds it through
// package agg. Each other node's own operator — arithmetic, a comparison, a
// field or index access, a constructor, a builtin call — runs through
// expr.Compile over the node with its children already evaluated to
// literals, so the two evaluators differ in exactly what the oracle is there
// to check. No daemon links it: it is for tests.
package oracle

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"asterixdb/internal/adm"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
)

// Context is what the reference reads beyond the bindings: the expression
// context the compiled evaluator runs under, plus its own dataset reader and
// function table. The daemon has neither: its jobs read datasets with
// operators, and its translator inlines functions from the catalog.
type Context struct {
	*expr.Context
	// Datasets reads a whole dataset; without it a dataset reference is the
	// compiled evaluator's error.
	Datasets func(dataverse, name string) ([]*adm.Record, error)
	// Functions are the user functions a call binds at call time; a
	// builtin of the same name shadows one.
	Functions map[string]*aql.CreateFunction
}

// Env is a set of variable bindings.
type Env map[string]adm.Value

// With returns a copy of the environment with one extra binding.
func (e Env) With(name string, v adm.Value) Env {
	out := make(Env, len(e)+1)
	maps.Copy(out, e)
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
		v, err := Eval(ctx, env, x.Base)
		if err != nil {
			return nil, err
		}
		return apply(ctx, &aql.FieldAccess{Base: lit(v), Field: x.Field})
	case *aql.IndexAccess:
		v, err := values(ctx, env, x.Base, x.Index)
		if err != nil {
			return nil, err
		}
		return apply(ctx, &aql.IndexAccess{Base: lit(v[0]), Index: lit(v[1])})
	case *aql.RecordConstructor:
		rec := &aql.RecordConstructor{Fields: make([]aql.RecordConstructorField, len(x.Fields))}
		for i, f := range x.Fields {
			v, err := Eval(ctx, env, f.Value)
			if err != nil {
				return nil, err
			}
			rec.Fields[i] = aql.RecordConstructorField{Name: f.Name, Value: lit(v)}
		}
		return apply(ctx, rec)
	case *aql.ListConstructor:
		items, err := values(ctx, env, x.Items...)
		if err != nil {
			return nil, err
		}
		return apply(ctx, &aql.ListConstructor{Ordered: x.Ordered, Items: lits(items)})
	case *aql.BinaryExpr:
		l, err := Eval(ctx, env, x.Left)
		if err != nil {
			return nil, err
		}
		if decides := x.Op == aql.OpOr; (decides || x.Op == aql.OpAnd) && adm.Truthy(l) == decides {
			return adm.Boolean(decides), nil
		}
		r, err := Eval(ctx, env, x.Right)
		if err != nil {
			return nil, err
		}
		return apply(ctx, &aql.BinaryExpr{Op: x.Op, Left: lit(l), Right: lit(r)})
	case *aql.UnaryExpr:
		v, err := Eval(ctx, env, x.Operand)
		if err != nil {
			return nil, err
		}
		return apply(ctx, &aql.UnaryExpr{Op: x.Op, Operand: lit(v)})
	case *aql.QuantifiedExpr:
		src, err := Eval(ctx, env, x.Source)
		if err != nil {
			return nil, err
		}
		for _, item := range expr.IterationItems(src) {
			sat, err := EvalBool(ctx, env.With(x.Var, item), x.Satisfies)
			if err != nil {
				return nil, err
			}
			if sat != x.Every {
				return adm.Boolean(sat), nil
			}
		}
		return adm.Boolean(x.Every), nil
	case *aql.IfExpr:
		cond, err := EvalBool(ctx, env, x.Cond)
		if err != nil {
			return nil, err
		}
		if cond {
			return Eval(ctx, env, x.Then)
		}
		return Eval(ctx, env, x.Else)
	case *aql.CallExpr:
		args, err := values(ctx, env, x.Args...)
		if err != nil {
			return nil, err
		}
		if ref, ok := aggregates[strings.ToLower(x.Func)]; ok {
			return ref(args), nil
		}
		if fn, ok := ctx.Functions[x.Func]; ok && !expr.IsBuiltin(x.Func) {
			return call(ctx, fn, args)
		}
		return apply(ctx, &aql.CallExpr{Func: x.Func, Args: lits(args)})
	case *aql.DatasetRef:
		if ctx.Datasets == nil {
			break
		}
		recs, err := ctx.Datasets(x.Dataverse, x.Name)
		if err != nil {
			return nil, err
		}
		items := make([]adm.Value, len(recs))
		for i, r := range recs {
			items[i] = r
		}
		return &adm.OrderedList{Items: items}, nil
	case *aql.FLWORExpr:
		items, err := evalFLWOR(ctx, env, x)
		if err != nil {
			return nil, err
		}
		return &adm.OrderedList{Items: items}, nil
	}
	return apply(ctx, e)
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

// values evaluates es in order.
func values(ctx *Context, env Env, es ...aql.Expr) ([]adm.Value, error) {
	out := make([]adm.Value, len(es))
	for i, e := range es {
		v, err := Eval(ctx, env, e)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func lit(v adm.Value) aql.Expr { return &aql.Literal{Value: v} }

func lits(vs []adm.Value) []aql.Expr {
	out := make([]aql.Expr, len(vs))
	for i, v := range vs {
		out[i] = lit(v)
	}
	return out
}

// apply runs one node whose children are literals through expr.Compile.
func apply(ctx *Context, e aql.Expr) (adm.Value, error) {
	return expr.Compile(ctx.Context, e, nil)(nil)
}

// call binds a user function's parameters to the evaluated arguments and
// evaluates its body in that environment alone.
func call(ctx *Context, fn *aql.CreateFunction, args []adm.Value) (adm.Value, error) {
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("expr: function %s expects %d arguments, got %d", fn.Name, len(fn.Params), len(args))
	}
	env := Env{}
	for i, p := range fn.Params {
		env[p] = args[i]
	}
	return Eval(ctx, env, fn.Body)
}

// evalFLWOR returns the sequence of values a FLWOR returns under env.
func evalFLWOR(ctx *Context, env Env, fl *aql.FLWORExpr) ([]adm.Value, error) {
	envs := []Env{env}
	for _, clause := range fl.Clauses {
		var err error
		if envs, err = ApplyClause(ctx, envs, clause); err != nil {
			return nil, err
		}
		if _, ok := clause.(*aql.GroupByClause); ok {
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

// ApplyClause applies one FLWOR clause to a set of bindings. The root
// package's plan interpreter also runs its group-by, order and limit
// operators through it.
func ApplyClause(ctx *Context, envs []Env, clause aql.FLWORClause) ([]Env, error) {
	switch c := clause.(type) {
	case *aql.ForClause:
		var out []Env
		for _, env := range envs {
			src, err := Eval(ctx, env, c.Source)
			if err != nil {
				return nil, err
			}
			for i, item := range expr.IterationItems(src) {
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
		return groupBy(ctx, envs, c)
	case *aql.OrderByClause:
		return orderBy(ctx, envs, c)
	case *aql.LimitClause:
		return limit(ctx, envs, c)
	}
	return nil, fmt.Errorf("expr: unsupported FLWOR clause %T", clause)
}

func groupBy(ctx *Context, envs []Env, c *aql.GroupByClause) ([]Env, error) {
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

func orderBy(ctx *Context, envs []Env, c *aql.OrderByClause) ([]Env, error) {
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

// limit evaluates limit and offset with no variables bound; a negative one
// is zero, as in the job's limit operator.
func limit(ctx *Context, envs []Env, c *aql.LimitClause) ([]Env, error) {
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
	envs = envs[max(offset, 0):]
	if lim < int64(len(envs)) {
		envs = envs[:max(lim, 0)]
	}
	return envs, nil
}
