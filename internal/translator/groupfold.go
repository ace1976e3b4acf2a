package translator

import (
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/hyracks"
)

// This file decides when a group-by can run fold-as-you-go (the ROADMAP's
// incremental-aggregate follow-up) and rewrites the plan's consumer
// expressions accordingly. A with-variable whose every use above the group-by
// is an aggregate call — count($w), sum($w), avg($w), min($w), max($w), or
// their sql- variants — never needs its bag materialized: the group-by
// operator folds a constant-size accumulator per group instead, and the
// aggregate calls are rewritten to references to synthetic output columns
// carrying the folded results. A with-variable used any other way (iterated,
// returned whole, passed to another function) keeps the materializing path.
// The rewrite is all-or-nothing per group-by: one bag-like use means rows
// must be materialized anyway, so folding the rest would not save memory.

// foldable reports whether a call is an aggregate builtin with a one-pass
// accumulator applied to a single argument.
func foldable(x *aql.CallExpr) bool {
	_, ok := hyracks.ParseAggFn(x.Func)
	return ok && len(x.Args) == 1
}

// foldSpec is one (with-variable, aggregate) pair folded by the group-by.
type foldSpec struct {
	With string // the with-variable folded
	Func string // the aggregate function
	Name string // the synthetic output column carrying the result
}

// groupFold is the fold plan attached to a jobBuilder when its plan's
// group-by qualifies.
type groupFold struct {
	node  *algebra.Node
	specs []foldSpec
}

// spineFoldKinds are the operator kinds allowed between the plan root and
// the group-by for the analysis to proceed: their expressions are exactly
// the places a with-variable can be consumed.
var spineFoldKinds = map[algebra.OpKind]bool{
	algebra.OpDistribute: true, algebra.OpSelect: true, algebra.OpAssign: true,
	algebra.OpOrder: true, algebra.OpLimit: true, algebra.OpUnnest: true,
	algebra.OpLocalAgg: true, algebra.OpGlobalAgg: true, algebra.OpAggregate: true,
}

// prepareGroupFold inspects the plan for a group-by whose with-variables are
// consumed only by foldable aggregate calls. On success it records the fold
// plan (read by buildGroupBy) and the expression rewrites (read by the
// consumer build functions through b.rewritten).
func (b *jobBuilder) prepareGroupFold(plan *algebra.Plan) {
	var spine []*algebra.Node
	n := plan.Root
	var gb *algebra.Node
	for n != nil {
		if n.Kind == algebra.OpGroupBy {
			gb = n
			break
		}
		if !spineFoldKinds[n.Kind] || len(n.Inputs) != 1 {
			return
		}
		spine = append(spine, n)
		n = n.Inputs[0]
	}
	if gb == nil || len(gb.GroupWith) == 0 {
		return
	}

	// Consumers: every expression evaluated above the group-by. The query's
	// return expression is included unconditionally — distribute-result and
	// the aggregate operators evaluate it over post-group tuples.
	var consumers []aql.Expr
	for _, sn := range spine {
		switch sn.Kind {
		case algebra.OpSelect:
			consumers = append(consumers, sn.Condition)
		case algebra.OpAssign, algebra.OpUnnest:
			consumers = append(consumers, sn.Exprs...)
			// An assign or unnest rebinding a with-variable's name above the
			// group-by makes use-site scoping order-dependent; bail to the
			// materializing path.
			for _, v := range append(append([]string{}, sn.Vars...), sn.Variable) {
				for _, w := range gb.GroupWith {
					if v == w {
						return
					}
				}
			}
		case algebra.OpOrder:
			for _, term := range sn.OrderTerms {
				consumers = append(consumers, term.Expr)
			}
		}
	}
	if plan.Query != nil && plan.Query.Return != nil {
		consumers = append(consumers, plan.Query.Return)
	}

	targets := map[string]bool{}
	for _, w := range gb.GroupWith {
		targets[w] = true
	}
	funcsByVar := map[string][]string{}
	foldable := true
	for _, e := range consumers {
		scanFoldUses(e, targets, nil, func(w, fn string, ok bool) {
			if !ok {
				foldable = false
				return
			}
			for _, have := range funcsByVar[w] {
				if have == fn {
					return
				}
			}
			funcsByVar[w] = append(funcsByVar[w], fn)
		})
	}
	if !foldable {
		return
	}

	specs := []foldSpec{}
	repl := map[string]map[string]string{}
	for _, w := range gb.GroupWith {
		for _, fn := range funcsByVar[w] {
			name := "#agg:" + fn + ":" + w
			specs = append(specs, foldSpec{With: w, Func: fn, Name: name})
			if repl[w] == nil {
				repl[w] = map[string]string{}
			}
			repl[w][fn] = name
		}
	}
	b.exprRewrites = map[aql.Expr]aql.Expr{}
	for _, e := range consumers {
		if r := rewriteFoldCalls(e, repl, nil); r != e {
			b.exprRewrites[e] = r
		}
	}
	b.groupFold = &groupFold{node: gb, specs: specs}
}

// rewritten returns the fold-rewritten form of a consumer expression, or the
// expression unchanged when no rewrite applies.
func (b *jobBuilder) rewritten(e aql.Expr) aql.Expr {
	if r, ok := b.exprRewrites[e]; ok {
		return r
	}
	return e
}

// bindNames extends a shadow set (copy-on-write; nil means empty).
func bindNames(bound map[string]bool, names ...string) map[string]bool {
	next := make(map[string]bool, len(bound)+len(names))
	for k := range bound {
		next[k] = true
	}
	for _, n := range names {
		if n != "" {
			next[n] = true
		}
	}
	return next
}

// scanFoldUses reports every free use of a target with-variable in e: uses
// of the exact shape aggfn($w) come back with ok=true and the function name;
// any other use (bare reference, iteration source, nested with-collection)
// comes back with ok=false. The walk is scope-aware: a nested binding of the
// same name shadows the target.
func scanFoldUses(e aql.Expr, targets, bound map[string]bool, use func(w, fn string, ok bool)) {
	switch x := e.(type) {
	case nil:
		return
	case *aql.Literal, *aql.DatasetRef:
		return
	case *aql.VariableRef:
		if targets[x.Name] && !bound[x.Name] {
			use(x.Name, "", false)
		}
	case *aql.FieldAccess:
		scanFoldUses(x.Base, targets, bound, use)
	case *aql.IndexAccess:
		scanFoldUses(x.Base, targets, bound, use)
		scanFoldUses(x.Index, targets, bound, use)
	case *aql.BinaryExpr:
		scanFoldUses(x.Left, targets, bound, use)
		scanFoldUses(x.Right, targets, bound, use)
	case *aql.UnaryExpr:
		scanFoldUses(x.Operand, targets, bound, use)
	case *aql.CallExpr:
		if foldable(x) {
			if vr, ok := x.Args[0].(*aql.VariableRef); ok && targets[vr.Name] && !bound[vr.Name] {
				use(vr.Name, x.Func, true)
				return
			}
		}
		for _, a := range x.Args {
			scanFoldUses(a, targets, bound, use)
		}
	case *aql.RecordConstructor:
		for _, f := range x.Fields {
			scanFoldUses(f.Value, targets, bound, use)
		}
	case *aql.ListConstructor:
		for _, it := range x.Items {
			scanFoldUses(it, targets, bound, use)
		}
	case *aql.QuantifiedExpr:
		scanFoldUses(x.Source, targets, bound, use)
		scanFoldUses(x.Satisfies, targets, bindNames(bound, x.Var), use)
	case *aql.IfExpr:
		scanFoldUses(x.Cond, targets, bound, use)
		scanFoldUses(x.Then, targets, bound, use)
		scanFoldUses(x.Else, targets, bound, use)
	case *aql.FLWORExpr:
		inner := bound
		for _, c := range x.Clauses {
			switch cl := c.(type) {
			case *aql.ForClause:
				scanFoldUses(cl.Source, targets, inner, use)
				inner = bindNames(inner, cl.Var, cl.PosVar)
			case *aql.LetClause:
				scanFoldUses(cl.Expr, targets, inner, use)
				inner = bindNames(inner, cl.Var)
			case *aql.WhereClause:
				scanFoldUses(cl.Cond, targets, inner, use)
			case *aql.GroupByClause:
				var names []string
				for _, k := range cl.Keys {
					scanFoldUses(k.Expr, targets, inner, use)
					names = append(names, k.Var)
				}
				// "with $w" in a nested FLWOR collects the outer $w into a
				// bag — a non-foldable use of a target.
				for _, w := range cl.With {
					if targets[w] && !inner[w] {
						use(w, "", false)
					}
				}
				inner = bindNames(inner, append(names, cl.With...)...)
			case *aql.OrderByClause:
				for _, term := range cl.Terms {
					scanFoldUses(term.Expr, targets, inner, use)
				}
			case *aql.LimitClause:
				scanFoldUses(cl.Limit, targets, inner, use)
				scanFoldUses(cl.Offset, targets, inner, use)
			}
		}
		scanFoldUses(x.Return, targets, inner, use)
	default:
		// Unknown expression kind: assume it could reference anything.
		for w := range targets {
			if !bound[w] {
				use(w, "", false)
			}
		}
	}
}

// rewriteFoldCalls returns e with every foldable aggregate call over a
// variable in repl replaced by a reference to its synthetic column. Unchanged
// subtrees are shared; the original expression is never mutated (the same
// AST backs the plan the differential oracle interprets).
func rewriteFoldCalls(e aql.Expr, repl map[string]map[string]string, bound map[string]bool) aql.Expr {
	switch x := e.(type) {
	case nil:
		return e
	case *aql.Literal, *aql.VariableRef, *aql.DatasetRef:
		return e
	case *aql.FieldAccess:
		if base := rewriteFoldCalls(x.Base, repl, bound); base != x.Base {
			return &aql.FieldAccess{Base: base, Field: x.Field}
		}
		return e
	case *aql.IndexAccess:
		base := rewriteFoldCalls(x.Base, repl, bound)
		idx := rewriteFoldCalls(x.Index, repl, bound)
		if base != x.Base || idx != x.Index {
			return &aql.IndexAccess{Base: base, Index: idx}
		}
		return e
	case *aql.BinaryExpr:
		l := rewriteFoldCalls(x.Left, repl, bound)
		r := rewriteFoldCalls(x.Right, repl, bound)
		if l != x.Left || r != x.Right {
			return &aql.BinaryExpr{Op: x.Op, Left: l, Right: r, Hint: x.Hint}
		}
		return e
	case *aql.UnaryExpr:
		if op := rewriteFoldCalls(x.Operand, repl, bound); op != x.Operand {
			return &aql.UnaryExpr{Op: x.Op, Operand: op}
		}
		return e
	case *aql.CallExpr:
		if foldable(x) {
			if vr, ok := x.Args[0].(*aql.VariableRef); ok && !bound[vr.Name] {
				if name, ok := repl[vr.Name][x.Func]; ok {
					return &aql.VariableRef{Name: name}
				}
			}
		}
		args := x.Args
		changed := false
		for i, a := range x.Args {
			if r := rewriteFoldCalls(a, repl, bound); r != a {
				if !changed {
					args = append([]aql.Expr(nil), x.Args...)
					changed = true
				}
				args[i] = r
			}
		}
		if changed {
			return &aql.CallExpr{Func: x.Func, Args: args}
		}
		return e
	case *aql.RecordConstructor:
		fields := x.Fields
		changed := false
		for i, f := range x.Fields {
			if r := rewriteFoldCalls(f.Value, repl, bound); r != f.Value {
				if !changed {
					fields = append([]aql.RecordConstructorField(nil), x.Fields...)
					changed = true
				}
				fields[i] = aql.RecordConstructorField{Name: f.Name, Value: r}
			}
		}
		if changed {
			return &aql.RecordConstructor{Fields: fields}
		}
		return e
	case *aql.ListConstructor:
		items := x.Items
		changed := false
		for i, it := range x.Items {
			if r := rewriteFoldCalls(it, repl, bound); r != it {
				if !changed {
					items = append([]aql.Expr(nil), x.Items...)
					changed = true
				}
				items[i] = r
			}
		}
		if changed {
			return &aql.ListConstructor{Ordered: x.Ordered, Items: items}
		}
		return e
	case *aql.QuantifiedExpr:
		src := rewriteFoldCalls(x.Source, repl, bound)
		sat := rewriteFoldCalls(x.Satisfies, repl, bindNames(bound, x.Var))
		if src != x.Source || sat != x.Satisfies {
			return &aql.QuantifiedExpr{Every: x.Every, Var: x.Var, Source: src, Satisfies: sat}
		}
		return e
	case *aql.IfExpr:
		c := rewriteFoldCalls(x.Cond, repl, bound)
		th := rewriteFoldCalls(x.Then, repl, bound)
		el := rewriteFoldCalls(x.Else, repl, bound)
		if c != x.Cond || th != x.Then || el != x.Else {
			return &aql.IfExpr{Cond: c, Then: th, Else: el}
		}
		return e
	case *aql.FLWORExpr:
		inner := bound
		clauses := x.Clauses
		changed := false
		set := func(i int, c aql.FLWORClause) {
			if !changed {
				clauses = append([]aql.FLWORClause(nil), x.Clauses...)
				changed = true
			}
			clauses[i] = c
		}
		for i, c := range x.Clauses {
			switch cl := c.(type) {
			case *aql.ForClause:
				if r := rewriteFoldCalls(cl.Source, repl, inner); r != cl.Source {
					set(i, &aql.ForClause{Var: cl.Var, PosVar: cl.PosVar, Source: r})
				}
				inner = bindNames(inner, cl.Var, cl.PosVar)
			case *aql.LetClause:
				if r := rewriteFoldCalls(cl.Expr, repl, inner); r != cl.Expr {
					set(i, &aql.LetClause{Var: cl.Var, Expr: r})
				}
				inner = bindNames(inner, cl.Var)
			case *aql.WhereClause:
				if r := rewriteFoldCalls(cl.Cond, repl, inner); r != cl.Cond {
					set(i, &aql.WhereClause{Cond: r})
				}
			case *aql.GroupByClause:
				keys := cl.Keys
				kchanged := false
				var names []string
				for j, k := range cl.Keys {
					if r := rewriteFoldCalls(k.Expr, repl, inner); r != k.Expr {
						if !kchanged {
							keys = append([]aql.GroupKey(nil), cl.Keys...)
							kchanged = true
						}
						keys[j] = aql.GroupKey{Var: k.Var, Expr: r}
					}
					names = append(names, k.Var)
				}
				if kchanged {
					set(i, &aql.GroupByClause{Keys: keys, With: cl.With})
				}
				inner = bindNames(inner, append(names, cl.With...)...)
			case *aql.OrderByClause:
				terms := cl.Terms
				tchanged := false
				for j, term := range cl.Terms {
					if r := rewriteFoldCalls(term.Expr, repl, inner); r != term.Expr {
						if !tchanged {
							terms = append([]aql.OrderTerm(nil), cl.Terms...)
							tchanged = true
						}
						terms[j] = aql.OrderTerm{Expr: r, Desc: term.Desc}
					}
				}
				if tchanged {
					set(i, &aql.OrderByClause{Terms: terms})
				}
			case *aql.LimitClause:
				l := rewriteFoldCalls(cl.Limit, repl, inner)
				o := rewriteFoldCalls(cl.Offset, repl, inner)
				if l != cl.Limit || o != cl.Offset {
					set(i, &aql.LimitClause{Limit: l, Offset: o})
				}
			}
		}
		ret := rewriteFoldCalls(x.Return, repl, inner)
		if changed || ret != x.Return {
			return &aql.FLWORExpr{Clauses: clauses, Return: ret}
		}
		return e
	default:
		return e
	}
}
