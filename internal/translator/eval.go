package translator

import (
	"fmt"

	"asterixdb/internal/adm"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/hyracks"
)

// evaluator runs one expression against an operator's input tuples. It is
// the one place that knows how a tuple's columns become the expression's
// variables: a bare variable is a column projection, $x.field is one field
// lookup on the column (for a lazy record, one slot lookup in the byte slab)
// and anything else is the tree-walking interpreter over an environment the
// tuple is bound into. An operator builds it once from its input schema and
// parallelism; each instance reuses one environment (the interpreter never
// retains it beyond the call, Env.With copies), so streaming operators do not
// allocate a map per tuple.
type evaluator struct {
	ctx    *expr.Context
	schema Schema
	expr   aql.Expr
	// col >= 0 marks the two direct forms: the expression reads that column,
	// or, when field is set, that field of it.
	col   int
	field string
	envs  []expr.Env // per instance, made on first use
}

// evaluator compiles e (in its fold-rewritten form) for tuples laid out by
// schema, evaluated by par operator instances.
func (b *jobBuilder) evaluator(e aql.Expr, schema Schema, par int) *evaluator {
	if r, ok := b.exprRewrites[e]; ok {
		e = r
	}
	ev := &evaluator{ctx: b.ctx, schema: schema, expr: e, col: -1}
	base, field := e, ""
	if fa, ok := e.(*aql.FieldAccess); ok {
		base, field = fa.Base, fa.Field
	}
	if v, ok := base.(*aql.VariableRef); ok {
		if col, ok := schema.column(v.Name); ok {
			ev.col, ev.field = col, field
			return ev
		}
	}
	ev.envs = make([]expr.Env, par)
	return ev
}

// column reports the tuple column the expression's value already sits in,
// when the expression is a bare variable of the schema.
func (ev *evaluator) column() (int, bool) {
	return ev.col, ev.col >= 0 && ev.field == ""
}

// eval evaluates the expression against tuple t in operator instance p.
// Columns holding nil (synthetic columns a join or group-by left unset) are
// unbound, like a variable the schema does not have.
func (ev *evaluator) eval(p int, t hyracks.Tuple) (adm.Value, error) {
	if ev.col >= 0 {
		if ev.col >= len(t) || t[ev.col] == nil {
			return nil, fmt.Errorf("expr: unbound variable $%s", ev.schema[ev.col])
		}
		if ev.field == "" {
			return t[ev.col], nil
		}
		return expr.FieldOf(t[ev.col], ev.field), nil
	}
	env := ev.envs[p]
	if env == nil {
		env = make(expr.Env, len(ev.schema)+4)
		ev.envs[p] = env
	}
	for i, name := range ev.schema {
		if i < len(t) && t[i] != nil {
			env[name] = t[i]
		} else {
			delete(env, name)
		}
	}
	return expr.Eval(ev.ctx, env, ev.expr)
}

// constant evaluates an expression that sees no tuple — limit and offset,
// index probe bounds, a free-standing subplan source — in the empty
// environment.
func (b *jobBuilder) constant(e aql.Expr) (adm.Value, error) {
	return expr.Eval(b.ctx, expr.Env{}, e)
}

// assign is the one computed-column operator: it appends the value of each
// expression to the tuple as a trailing column named names[i], and an
// expression sees the columns appended before it. With dropUnknown a tuple is
// dropped as soon as a value is NULL or MISSING (equijoin keys: unknown keys
// never join).
func (b *jobBuilder) assign(in stream, label string, names []string, exprs []aql.Expr, dropUnknown bool) stream {
	outSchema := append(append(Schema{}, in.schema...), names...)
	evs := make([]*evaluator, len(exprs))
	for i, e := range exprs {
		evs[i] = b.evaluator(e, outSchema[:len(in.schema)+i], in.par)
	}
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      label,
		Partitions: in.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			out := make(hyracks.Tuple, len(t), len(t)+len(evs))
			copy(out, t)
			for _, ev := range evs {
				v, err := ev.eval(p, out)
				if err != nil {
					return err
				}
				if dropUnknown && adm.IsUnknown(v) {
					return nil
				}
				out = append(out, v)
			}
			emit(out)
			return nil
		},
	})
	return b.connect(in, op, in.par, outSchema, hyracks.Connector{Kind: hyracks.OneToOne})
}
