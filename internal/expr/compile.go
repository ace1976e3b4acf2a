package expr

import (
	"bytes"
	"cmp"
	"fmt"
	"strings"
	"unicode/utf8"

	"asterixdb/internal/adm"
	"asterixdb/internal/aql"
)

// Compiled is an expression compiled for one row layout: it evaluates the
// expression with each variable bound to its column of row. It keeps no
// state between calls, so operator instances share it.
type Compiled func(row []adm.Value) (adm.Value, error)

// Compile turns e into a closure over the columns of rows laid out by slots,
// where row[i] carries the value of variable slots[i]. It is Eval with the
// dispatch done once: each variable reference is resolved to a column (the
// last one of its name; a nil column, or a name slots lacks, is an unbound
// variable when evaluated, as in Eval), each builtin is looked up once, and
// every node reuses Eval's per-operator helpers, so the two evaluators differ
// only in how they find a variable and dispatch on a node. A quantified
// variable is one more slot past the row.
//
// A nested FLWOR, a dataset reference and a call of a function that is not a
// builtin (a user function) are not compiled: that subtree alone binds the
// row into an Env and runs Eval (see Interpreted).
func Compile(ctx *Context, e aql.Expr, slots []string) Compiled {
	c := &compiler{ctx: ctx}
	return c.compile(e, slots)
}

// Interpreted lists, outermost first, the subtrees of e that Compile leaves
// to Eval.
func Interpreted(e aql.Expr) []aql.Expr {
	c := &compiler{}
	c.compile(e, nil)
	return c.interpreted
}

type compiler struct {
	ctx         *Context
	interpreted []aql.Expr
}

func (c *compiler) compile(e aql.Expr, slots []string) Compiled {
	switch x := e.(type) {
	case *aql.Literal:
		v := x.Value
		return func([]adm.Value) (adm.Value, error) { return v, nil }
	case *aql.VariableRef:
		col := column(slots, x.Name)
		return func(row []adm.Value) (adm.Value, error) { return lookup(row, col, x.Name) }
	case *aql.FieldAccess:
		field := x.Field
		if v, ok := x.Base.(*aql.VariableRef); ok {
			// $v.field, the common path: one lookup on the column.
			col := column(slots, v.Name)
			return func(row []adm.Value) (adm.Value, error) {
				base, err := lookup(row, col, v.Name)
				if err != nil {
					return nil, err
				}
				return fieldOf(base, field), nil
			}
		}
		base := c.compile(x.Base, slots)
		return func(row []adm.Value) (adm.Value, error) {
			b, err := base(row)
			if err != nil {
				return nil, err
			}
			return fieldOf(b, field), nil
		}
	case *aql.IndexAccess:
		base, index := c.compile(x.Base, slots), c.compile(x.Index, slots)
		return func(row []adm.Value) (adm.Value, error) {
			b, err := base(row)
			if err != nil {
				return nil, err
			}
			i, err := index(row)
			if err != nil {
				return nil, err
			}
			return indexOf(b, i), nil
		}
	case *aql.RecordConstructor:
		names := make([]string, len(x.Fields))
		vals := make([]Compiled, len(x.Fields))
		for i, f := range x.Fields {
			names[i], vals[i] = f.Name, c.compile(f.Value, slots)
		}
		return func(row []adm.Value) (adm.Value, error) {
			rec := &adm.Record{Fields: make([]adm.Field, len(vals))}
			for i, val := range vals {
				v, err := val(row)
				if err != nil {
					return nil, err
				}
				rec.Fields[i] = adm.Field{Name: names[i], Value: v}
			}
			return rec, nil
		}
	case *aql.ListConstructor:
		items, ordered := c.all(x.Items, slots), x.Ordered
		return func(row []adm.Value) (adm.Value, error) {
			vals, err := evalAll(items, row)
			if err != nil {
				return nil, err
			}
			if ordered {
				return &adm.OrderedList{Items: vals}, nil
			}
			return &adm.UnorderedList{Items: vals}, nil
		}
	case *aql.BinaryExpr:
		return c.binary(x, slots)
	case *aql.UnaryExpr:
		operand, op := c.compile(x.Operand, slots), x.Op
		return func(row []adm.Value) (adm.Value, error) {
			v, err := operand(row)
			if err != nil {
				return nil, err
			}
			return unary(op, v)
		}
	case *aql.QuantifiedExpr:
		return c.quantified(x, slots)
	case *aql.IfExpr:
		cond, then, els := c.compile(x.Cond, slots), c.compile(x.Then, slots), c.compile(x.Else, slots)
		return func(row []adm.Value) (adm.Value, error) {
			v, err := cond(row)
			if err != nil {
				return nil, err
			}
			if adm.Truthy(v) {
				return then(row)
			}
			return els(row)
		}
	case *aql.CallExpr:
		fn, ok := builtins[strings.ToLower(x.Func)]
		if !ok {
			return c.interpret(x, slots)
		}
		args, ctx := c.all(x.Args, slots), c.ctx
		call := func(row []adm.Value) (adm.Value, error) {
			vals, err := evalAll(args, row)
			if err != nil {
				return nil, err
			}
			return fn(ctx, vals)
		}
		if strings.EqualFold(x.Func, "string-length") && len(x.Args) == 1 {
			return storedLength(x.Args[0], slots, call)
		}
		return call
	case *aql.DatasetRef, *aql.FLWORExpr:
		return c.interpret(x, slots)
	}
	err := fmt.Errorf("expr: cannot evaluate %T", e)
	return func([]adm.Value) (adm.Value, error) { return nil, err }
}

func (c *compiler) all(es []aql.Expr, slots []string) []Compiled {
	out := make([]Compiled, len(es))
	for i, e := range es {
		out[i] = c.compile(e, slots)
	}
	return out
}

func evalAll(cs []Compiled, row []adm.Value) ([]adm.Value, error) {
	vals := make([]adm.Value, len(cs))
	for i, c := range cs {
		v, err := c(row)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

func (c *compiler) binary(x *aql.BinaryExpr, slots []string) Compiled {
	left, right, op := c.compile(x.Left, slots), c.compile(x.Right, slots), x.Op
	if op == aql.OpAnd || op == aql.OpOr {
		// Short-circuit: the right side runs only when the left one does not
		// decide.
		decides := op == aql.OpOr
		return func(row []adm.Value) (adm.Value, error) {
			l, err := left(row)
			if err != nil {
				return nil, err
			}
			if adm.Truthy(l) == decides {
				return adm.Boolean(decides), nil
			}
			r, err := right(row)
			if err != nil {
				return nil, err
			}
			return adm.Boolean(adm.Truthy(r)), nil
		}
	}
	var apply func(l, r adm.Value) (adm.Value, error)
	comparison := false
	switch op {
	case aql.OpEq, aql.OpNeq, aql.OpLt, aql.OpLe, aql.OpGt, aql.OpGe:
		apply = func(l, r adm.Value) (adm.Value, error) { return evalComparison(op, l, r) }
		comparison = true
	case aql.OpAdd, aql.OpSub, aql.OpMul, aql.OpDiv, aql.OpMod:
		apply = func(l, r adm.Value) (adm.Value, error) { return evalArithmetic(op, l, r) }
	case aql.OpFuzzyEq:
		ctx := c.ctx
		apply = func(l, r adm.Value) (adm.Value, error) { return evalFuzzyEq(ctx, l, r) }
	default:
		err := fmt.Errorf("expr: unsupported operator %q", op)
		apply = func(adm.Value, adm.Value) (adm.Value, error) { return nil, err }
	}
	eval := func(row []adm.Value) (adm.Value, error) {
		l, err := left(row)
		if err != nil {
			return nil, err
		}
		r, err := right(row)
		if err != nil {
			return nil, err
		}
		return apply(l, r)
	}
	if comparison {
		return storedComparison(x, slots, eval)
	}
	return eval
}

// storedComparison is $v.f op L, or L op $v.f, with L an integer or a string
// literal, evaluated on the field's stored bytes: when $v holds a lazy record
// whose field f is stored as an integer of any width (L an integer) or as a
// string (L a string), the answer is adm.Compare's without decoding the
// field, so it allocates nothing. Every other case — another shape, a base
// that is not a lazy record, a null, missing or absent field, another stored
// kind — runs slow, the generic evaluation.
func storedComparison(x *aql.BinaryExpr, slots []string, slow Compiled) Compiled {
	fa, lit, flip := fieldAndLiteral(x.Left, x.Right)
	if fa == nil {
		return slow
	}
	col, field, op := column(slots, fa.Base.(*aql.VariableRef).Name), fa.Field, x.Op
	sign := 1
	if flip {
		sign = -1 // L op F: Compare(L, F) is -Compare(F, L)
	}
	var compare func(b []byte) (int, bool)
	if s, ok := lit.(adm.String); ok {
		sb := []byte(s)
		compare = func(b []byte) (int, bool) {
			body, ok := adm.EncodedString(b)
			return bytes.Compare(body, sb), ok
		}
	} else if k, ok := intLiteral(lit); ok {
		compare = func(b []byte) (int, bool) {
			i, ok := adm.EncodedInt64(b)
			return cmp.Compare(i, k), ok
		}
	} else {
		return slow
	}
	return func(row []adm.Value) (adm.Value, error) {
		if b, ok := storedField(row, col, field); ok {
			if c, ok := compare(b); ok {
				return comparisonResult(op, sign*c), nil
			}
		}
		return slow(row)
	}
}

// storedLength is string-length($v.f) on the field's stored bytes: the rune
// count of a string field of a lazy record, without copying the string out.
// Anything else runs slow, the builtin call.
func storedLength(arg aql.Expr, slots []string, slow Compiled) Compiled {
	fa := varField(arg)
	if fa == nil {
		return slow
	}
	col, field := column(slots, fa.Base.(*aql.VariableRef).Name), fa.Field
	return func(row []adm.Value) (adm.Value, error) {
		if b, ok := storedField(row, col, field); ok {
			if s, ok := adm.EncodedString(b); ok {
				return adm.Int64(utf8.RuneCount(s)), nil
			}
		}
		return slow(row)
	}
}

// varField is e when it is $v.f, a field of a variable, and nil otherwise.
func varField(e aql.Expr) *aql.FieldAccess {
	if fa, ok := e.(*aql.FieldAccess); ok {
		if _, ok := fa.Base.(*aql.VariableRef); ok {
			return fa
		}
	}
	return nil
}

// fieldAndLiteral matches a comparison's operands as $v.f and a literal, in
// either order; flip is set when the literal is on the left.
func fieldAndLiteral(l, r aql.Expr) (fa *aql.FieldAccess, lit adm.Value, flip bool) {
	if lv, ok := r.(*aql.Literal); ok {
		if fa := varField(l); fa != nil {
			return fa, lv.Value, false
		}
	}
	if lv, ok := l.(*aql.Literal); ok {
		if fa := varField(r); fa != nil {
			return fa, lv.Value, true
		}
	}
	return nil, nil, false
}

// intLiteral is an integer literal's value.
func intLiteral(v adm.Value) (int64, bool) {
	if !isIntTag(v.Tag()) {
		return 0, false
	}
	return adm.NumericAsInt64(v)
}

// storedField is the stored encoding of field of the lazy record in column
// col of row, and false when the column holds anything else or the field
// has no stored value.
func storedField(row []adm.Value, col int, field string) ([]byte, bool) {
	if col < 0 || col >= len(row) {
		return nil, false
	}
	rec, ok := row[col].(*adm.LazyRecord)
	if !ok {
		return nil, false
	}
	return rec.FieldBytes(field)
}

// quantified evaluates the satisfies clause over a frame one slot wider than
// the row, the quantified variable's.
func (c *compiler) quantified(x *aql.QuantifiedExpr, slots []string) Compiled {
	n := len(slots)
	src := c.compile(x.Source, slots)
	sat := c.compile(x.Satisfies, append(slots[:n:n], x.Var))
	every := x.Every
	return func(row []adm.Value) (adm.Value, error) {
		s, err := src(row)
		if err != nil {
			return nil, err
		}
		items := IterationItems(s)
		if len(items) == 0 {
			return adm.Boolean(every), nil
		}
		frame := make([]adm.Value, n+1)
		copy(frame, row)
		for _, item := range items {
			frame[n] = item
			v, err := sat(frame)
			if err != nil {
				return nil, err
			}
			if adm.Truthy(v) != every {
				return adm.Boolean(!every), nil
			}
		}
		return adm.Boolean(every), nil
	}
}

// interpret is the fallback for a subtree Compile leaves to Eval: the row's
// columns become an Env, a later column shadowing an earlier one of the same
// name and a nil column leaving its name unbound.
func (c *compiler) interpret(e aql.Expr, slots []string) Compiled {
	c.interpreted = append(c.interpreted, e)
	ctx := c.ctx
	return func(row []adm.Value) (adm.Value, error) {
		env := make(Env, len(slots))
		for i, name := range slots {
			if i < len(row) && row[i] != nil {
				env[name] = row[i]
			} else {
				delete(env, name)
			}
		}
		return Eval(ctx, env, e)
	}
}

// column is the last slot named name, or -1.
func column(slots []string, name string) int {
	for i := len(slots) - 1; i >= 0; i-- {
		if slots[i] == name {
			return i
		}
	}
	return -1
}

// lookup reads the variable in column col of row.
func lookup(row []adm.Value, col int, name string) (adm.Value, error) {
	if col >= 0 && col < len(row) && row[col] != nil {
		return row[col], nil
	}
	return nil, fmt.Errorf("expr: unbound variable $%s", name)
}
