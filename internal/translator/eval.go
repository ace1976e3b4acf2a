package translator

import (
	"asterixdb/internal/adm"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/hyracks"
)

// evaluator runs one expression against an operator's input tuples. It is
// the one place that knows how a tuple's columns become the expression's
// variables: the operator builds it once from its input schema, and
// expr.Compile resolves every variable to its column then, so a tuple is
// evaluated without binding it into a name-keyed environment. The compiled
// closure keeps no state, so every instance of the operator shares it.
type evaluator struct {
	eval expr.Compiled
	// col is the column a bare variable of the schema already sits in, or -1.
	col int
}

// evaluator compiles e (in its fold-rewritten form) for tuples laid out by
// schema.
func (b *jobBuilder) evaluator(e aql.Expr, schema Schema) *evaluator {
	if r, ok := b.exprRewrites[e]; ok {
		e = r
	}
	ev := &evaluator{eval: expr.Compile(b.ctx, e, schema), col: -1}
	if v, ok := e.(*aql.VariableRef); ok {
		if col, ok := schema.column(v.Name); ok {
			ev.col = col
		}
	}
	return ev
}

// column reports the tuple column the expression's value already sits in,
// when the expression is a bare variable of the schema: an operator that
// needs the value as a column then uses that one instead of appending it.
func (ev *evaluator) column() (int, bool) {
	return ev.col, ev.col >= 0
}

// constant evaluates an expression that sees no tuple, an index probe
// bound, by compiling it against the empty schema and running it once.
func (b *jobBuilder) constant(e aql.Expr) (adm.Value, error) {
	return expr.Compile(b.ctx, e, nil)(nil)
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
		evs[i] = b.evaluator(e, outSchema[:len(in.schema)+i])
	}
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      label,
		Partitions: in.par,
		Fn: func(_ int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			out := make(hyracks.Tuple, len(t), len(t)+len(evs))
			copy(out, t)
			for _, ev := range evs {
				v, err := ev.eval(out)
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
