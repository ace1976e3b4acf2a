package aql

// Scope is the set of variables bound around a sub-expression by the
// expression being walked: quantified variables and the for / at / let /
// group-by bindings of enclosing FLWORs. The nil Scope binds nothing.
type Scope struct {
	parent *Scope
	names  []string
}

// Bound reports whether a binding made inside the walked expression is in
// scope for name. A variable that is not bound is free: it refers to whatever
// the expression's environment supplies.
func (s *Scope) Bound(name string) bool {
	for ; s != nil; s = s.parent {
		for _, n := range s.names {
			if n == name {
				return true
			}
		}
	}
	return false
}

func (s *Scope) bind(names ...string) *Scope { return &Scope{parent: s, names: names} }

// Rewrite is the one traversal of an expression tree. It calls fn on every
// sub-expression, parents before children, together with the variables bound
// around it. When fn returns its argument the walk continues into the
// children; any other result replaces the sub-expression and is not walked.
// The input is never modified: a node is copied only when something below it
// changed, unchanged subtrees are shared, and an fn that always returns its
// argument gets back the pointer-identical expression.
//
// Scoping is the evaluator's (internal/expr): a quantified variable is bound
// in the satisfies predicate only; for, at and let variables are bound in the
// clauses after their own; a group-by evaluates its key expressions and reads
// its with-variables in the scope before it and leaves, of its FLWOR's own
// bindings, exactly its key and with variables bound (what was bound around
// the FLWOR stays bound); limit and offset are evaluated outside every
// binding.
// A with-variable has no expression node of its own, so fn sees it as a
// *VariableRef; returning a *VariableRef of another name renames it, in the
// clause and in the scope of the clauses after it.
func Rewrite(e Expr, fn func(Expr, *Scope) Expr) Expr {
	return (&rewriter{fn}).expr(e, nil)
}

type rewriter struct{ fn func(Expr, *Scope) Expr }

// mapSlice applies f to every element, copying the slice on the first change.
func mapSlice[T any](in []T, f func(T) (T, bool)) ([]T, bool) {
	out, changed := in, false
	for i, x := range in {
		if y, ok := f(x); ok {
			if !changed {
				out, changed = append([]T(nil), in...), true
			}
			out[i] = y
		}
	}
	return out, changed
}

func (r *rewriter) exprs(in []Expr, sc *Scope) ([]Expr, bool) {
	return mapSlice(in, func(e Expr) (Expr, bool) {
		n := r.expr(e, sc)
		return n, n != e
	})
}

func (r *rewriter) expr(e Expr, sc *Scope) Expr {
	if e == nil {
		return nil
	}
	if n := r.fn(e, sc); n != e {
		return n
	}
	switch x := e.(type) {
	case *FieldAccess:
		if base := r.expr(x.Base, sc); base != x.Base {
			return &FieldAccess{Base: base, Field: x.Field}
		}
	case *IndexAccess:
		base, idx := r.expr(x.Base, sc), r.expr(x.Index, sc)
		if base != x.Base || idx != x.Index {
			return &IndexAccess{Base: base, Index: idx}
		}
	case *BinaryExpr:
		l, rt := r.expr(x.Left, sc), r.expr(x.Right, sc)
		if l != x.Left || rt != x.Right {
			return &BinaryExpr{Op: x.Op, Left: l, Right: rt, Hint: x.Hint}
		}
	case *UnaryExpr:
		if op := r.expr(x.Operand, sc); op != x.Operand {
			return &UnaryExpr{Op: x.Op, Operand: op}
		}
	case *CallExpr:
		if args, changed := r.exprs(x.Args, sc); changed {
			return &CallExpr{Func: x.Func, Args: args}
		}
	case *RecordConstructor:
		fields, changed := mapSlice(x.Fields, func(f RecordConstructorField) (RecordConstructorField, bool) {
			v := r.expr(f.Value, sc)
			return RecordConstructorField{Name: f.Name, Value: v}, v != f.Value
		})
		if changed {
			return &RecordConstructor{Fields: fields}
		}
	case *ListConstructor:
		if items, changed := r.exprs(x.Items, sc); changed {
			return &ListConstructor{Ordered: x.Ordered, Items: items}
		}
	case *QuantifiedExpr:
		src, sat := r.expr(x.Source, sc), r.expr(x.Satisfies, sc.bind(x.Var))
		if src != x.Source || sat != x.Satisfies {
			return &QuantifiedExpr{Every: x.Every, Var: x.Var, Source: src, Satisfies: sat}
		}
	case *IfExpr:
		c, th, el := r.expr(x.Cond, sc), r.expr(x.Then, sc), r.expr(x.Else, sc)
		if c != x.Cond || th != x.Then || el != x.Else {
			return &IfExpr{Cond: c, Then: th, Else: el}
		}
	case *FLWORExpr:
		entry := sc
		clauses, changed := mapSlice(x.Clauses, func(c FLWORClause) (FLWORClause, bool) {
			var n FLWORClause
			n, sc = r.clause(c, sc, entry)
			return n, n != c
		})
		ret := r.expr(x.Return, sc)
		if changed || ret != x.Return {
			return &FLWORExpr{Clauses: clauses, Return: ret}
		}
	}
	return e
}

// clause rewrites one FLWOR clause and returns it (the same pointer when
// nothing changed) with the scope the clauses after it see; entry is the
// scope around the FLWOR.
func (r *rewriter) clause(c FLWORClause, sc, entry *Scope) (FLWORClause, *Scope) {
	switch cl := c.(type) {
	case *ForClause:
		after := sc.bind(cl.Var, cl.PosVar)
		if src := r.expr(cl.Source, sc); src != cl.Source {
			return &ForClause{Var: cl.Var, PosVar: cl.PosVar, Source: src}, after
		}
		return c, after
	case *LetClause:
		after := sc.bind(cl.Var)
		if v := r.expr(cl.Expr, sc); v != cl.Expr {
			return &LetClause{Var: cl.Var, Expr: v}, after
		}
		return c, after
	case *WhereClause:
		if cond := r.expr(cl.Cond, sc); cond != cl.Cond {
			return &WhereClause{Cond: cond}, sc
		}
	case *GroupByClause:
		keys, keysChanged := mapSlice(cl.Keys, func(k GroupKey) (GroupKey, bool) {
			v := r.expr(k.Expr, sc)
			return GroupKey{Var: k.Var, Expr: v}, v != k.Expr
		})
		with, withChanged := mapSlice(cl.With, func(w string) (string, bool) {
			if ref, ok := r.fn(&VariableRef{Name: w}, sc).(*VariableRef); ok {
				return ref.Name, ref.Name != w
			}
			panic("aql: a group-by with-variable can only be rewritten to a variable")
		})
		after := &Scope{parent: entry, names: append([]string(nil), with...)}
		for _, k := range keys {
			after.names = append(after.names, k.Var)
		}
		if keysChanged || withChanged {
			return &GroupByClause{Keys: keys, With: with}, after
		}
		return c, after
	case *OrderByClause:
		terms, changed := mapSlice(cl.Terms, func(t OrderTerm) (OrderTerm, bool) {
			v := r.expr(t.Expr, sc)
			return OrderTerm{Expr: v, Desc: t.Desc}, v != t.Expr
		})
		if changed {
			return &OrderByClause{Terms: terms}, sc
		}
	case *LimitClause:
		lim, off := r.expr(cl.Limit, nil), r.expr(cl.Offset, nil)
		if lim != cl.Limit || off != cl.Offset {
			return &LimitClause{Limit: lim, Offset: off}, sc
		}
	}
	return c, sc
}
