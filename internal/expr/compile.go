package expr

import (
	"bytes"
	"cmp"
	"fmt"
	"sort"
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
// where row[i] carries the value of variable slots[i]. Each variable
// reference is resolved to a column once (the last one of its name; a nil
// column, or a name slots lacks, is an unbound variable when evaluated) and
// each builtin is looked up once. A quantified variable is one more slot past
// the row, and a nested FLWOR runs over frames that extend the row (flwor).
// A call of a name that is not a builtin is an unknown function, since the
// translator inlines every user function before compiling, and a dataset
// reference is an error when evaluated: the job reads every dataset with an
// operator.
func Compile(ctx *Context, e aql.Expr, slots []string) Compiled {
	c := &compiler{ctx: ctx}
	return c.compile(e, slots)
}

type compiler struct {
	ctx *Context
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
		args, ctx, fn := c.all(x.Args, slots), c.ctx, builtin(x.Func)
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
	case *aql.FLWORExpr:
		return c.flwor(x, slots)
	}
	err := fmt.Errorf("expr: cannot evaluate %T", e)
	return func([]adm.Value) (adm.Value, error) { return nil, err }
}

// builtin is the builtin a call of name runs. Any other name is an unknown
// function, since the translator inlines every user function before
// compiling; the call's arguments still run first, as a builtin's would.
func builtin(name string) builtinFunc {
	if fn, ok := builtins[strings.ToLower(name)]; ok {
		return fn
	}
	err := fmt.Errorf("expr: unknown function %q", name)
	return func(*Context, []adm.Value) (adm.Value, error) { return nil, err }
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

// clauseFn maps the frames one FLWOR clause receives to those it passes on.
type clauseFn func(frames [][]adm.Value) ([][]adm.Value, error)

// flwor compiles a nested FLWOR. A frame is the row's columns followed by the
// variables the clauses so far bind; each clause maps every frame of one
// evaluation before the next clause runs, so an error is the first one a
// clause-at-a-time evaluation meets. A group-by's frames keep the row's
// columns, then its keys and with-bags, so the variables the FLWOR was
// entered with stay visible after it, as aql.Rewrite scopes them. limit and
// offset see no variables.
func (c *compiler) flwor(x *aql.FLWORExpr, slots []string) Compiled {
	outer := len(slots)
	scope := slots[:outer:outer]
	clauses := make([]clauseFn, len(x.Clauses))
	for i, cl := range x.Clauses {
		clauses[i], scope = c.clause(cl, scope, outer)
	}
	ret := c.compile(x.Return, scope)
	return func(row []adm.Value) (adm.Value, error) {
		frame := make([]adm.Value, outer)
		copy(frame, row)
		frames := [][]adm.Value{frame}
		for _, cl := range clauses {
			var err error
			if frames, err = cl(frames); err != nil {
				return nil, err
			}
		}
		items := make([]adm.Value, len(frames))
		for i, f := range frames {
			v, err := ret(f)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &adm.OrderedList{Items: items}, nil
	}
}

// clause compiles one FLWOR clause over frames laid out by scope and returns
// it with the layout of the frames it passes on.
func (c *compiler) clause(cl aql.FLWORClause, scope []string, outer int) (clauseFn, []string) {
	switch x := cl.(type) {
	case *aql.ForClause:
		return c.bind(x.Source, IterationItems, x.Var, x.PosVar, scope)
	case *aql.LetClause:
		return c.bind(x.Expr, func(v adm.Value) []adm.Value { return []adm.Value{v} }, x.Var, "", scope)
	case *aql.WhereClause:
		cond := c.compile(x.Cond, scope)
		return func(frames [][]adm.Value) ([][]adm.Value, error) {
			var out [][]adm.Value
			for _, f := range frames {
				v, err := cond(f)
				if err != nil {
					return nil, err
				}
				if adm.Truthy(v) {
					out = append(out, f)
				}
			}
			return out, nil
		}, scope
	case *aql.GroupByClause:
		return c.groupBy(x, scope, outer)
	case *aql.OrderByClause:
		return c.orderBy(x, scope), scope
	case *aql.LimitClause:
		return c.limit(x), scope
	}
	err := fmt.Errorf("expr: unsupported FLWOR clause %T", cl)
	return func([][]adm.Value) ([][]adm.Value, error) { return nil, err }, scope
}

// bind extends each frame by every item items gives for e's value there, and
// by the item's 1-based position when posVar is set: a for-clause iterates
// its source's items, a let binds its value as the one item.
func (c *compiler) bind(e aql.Expr, items func(adm.Value) []adm.Value, v, posVar string, scope []string) (clauseFn, []string) {
	n, src := len(scope), c.compile(e, scope)
	next := append(scope[:n:n], v)
	if posVar != "" {
		next = append(next, posVar)
	}
	return func(frames [][]adm.Value) ([][]adm.Value, error) {
		var out [][]adm.Value
		for _, f := range frames {
			s, err := src(f)
			if err != nil {
				return nil, err
			}
			for i, item := range items(s) {
				g := append(f[:n:n], item)
				if posVar != "" {
					g = append(g, adm.Int64(i+1))
				}
				out = append(out, g)
			}
		}
		return out, nil
	}, next
}

// groupBy groups frames by their keys' encoded values, in first-encounter
// order. A group's frame is the row's columns, its keys, then one bag per
// with-variable of that variable's bound values across the group's frames.
func (c *compiler) groupBy(x *aql.GroupByClause, scope []string, outer int) (clauseFn, []string) {
	next := scope[:outer:outer]
	keys := make([]Compiled, len(x.Keys))
	for i, k := range x.Keys {
		keys[i], next = c.compile(k.Expr, scope), append(next, k.Var)
	}
	with := make([]int, len(x.With))
	for i, w := range x.With {
		with[i], next = column(scope, w), append(next, w)
	}
	return func(frames [][]adm.Value) ([][]adm.Value, error) {
		groups := map[string]int{}
		var out [][]adm.Value
		var members [][][]adm.Value
		var enc []byte
		for _, f := range frames {
			vals, err := evalAll(keys, f)
			if err != nil {
				return nil, err
			}
			enc = enc[:0]
			for _, v := range vals {
				enc = adm.EncodeKey(enc, v)
			}
			g, ok := groups[string(enc)]
			if !ok {
				g = len(out)
				groups[string(enc)] = g
				out = append(out, append(f[:outer:outer], vals...))
				members = append(members, nil)
			}
			members[g] = append(members[g], f)
		}
		for g := range out {
			for _, col := range with {
				items := make([]adm.Value, 0, len(members[g]))
				for _, m := range members[g] {
					if col >= 0 && m[col] != nil {
						items = append(items, m[col])
					}
				}
				out[g] = append(out[g], &adm.OrderedList{Items: items})
			}
		}
		return out, nil
	}, next
}

// orderBy sorts frames stably by their terms' values under adm.Compare.
func (c *compiler) orderBy(x *aql.OrderByClause, scope []string) clauseFn {
	terms := make([]Compiled, len(x.Terms))
	for i, t := range x.Terms {
		terms[i] = c.compile(t.Expr, scope)
	}
	type keyed struct{ frame, keys []adm.Value }
	return func(frames [][]adm.Value) ([][]adm.Value, error) {
		rows := make([]keyed, len(frames))
		for i, f := range frames {
			keys, err := evalAll(terms, f)
			if err != nil {
				return nil, err
			}
			rows[i] = keyed{f, keys}
		}
		var sortErr error
		sort.SliceStable(rows, func(a, b int) bool {
			for j, t := range x.Terms {
				d, err := adm.Compare(rows[a].keys[j], rows[b].keys[j])
				if err != nil {
					sortErr = err
					return false
				}
				if d != 0 {
					return (d < 0) != t.Desc
				}
			}
			return false
		})
		for i, r := range rows {
			frames[i] = r.frame
		}
		return frames, sortErr
	}
}

// limit keeps at most limit frames after skipping offset.
func (c *compiler) limit(x *aql.LimitClause) clauseFn {
	bounds := c.limitBounds(x.Limit, x.Offset)
	return func(frames [][]adm.Value) ([][]adm.Value, error) {
		n, skip, err := bounds()
		if err != nil {
			return nil, err
		}
		frames = frames[min(skip, int64(len(frames))):]
		return frames[:min(n, int64(len(frames)))], nil
	}
}

// LimitBounds evaluates a limit clause's limit and offset, which see no
// variables, into the number of items to keep and the number to skip; a
// negative one is zero and a missing offset is zero. The job's limit
// operator and a nested FLWOR's limit clause both take their bounds from it.
func LimitBounds(ctx *Context, limit, offset aql.Expr) (n, skip int64, err error) {
	c := &compiler{ctx: ctx}
	return c.limitBounds(limit, offset)()
}

// limitBounds is LimitBounds compiled once, for a clause that runs on every
// evaluation of its FLWOR.
func (c *compiler) limitBounds(limit, offset aql.Expr) func() (int64, int64, error) {
	lim, off := c.compile(limit, nil), Compiled(nil)
	if offset != nil {
		off = c.compile(offset, nil)
	}
	return func() (int64, int64, error) {
		v, err := lim(nil)
		if err != nil {
			return 0, 0, err
		}
		n, ok := adm.NumericAsInt64(v)
		if !ok {
			return 0, 0, fmt.Errorf("expr: limit must be numeric")
		}
		skip := int64(0)
		if off != nil {
			if v, err = off(nil); err != nil {
				return 0, 0, err
			}
			skip, _ = adm.NumericAsInt64(v)
		}
		return max(n, 0), max(skip, 0), nil
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
