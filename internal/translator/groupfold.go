package translator

import (
	"slices"

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
// plan (read by buildGroupBy) and the expression rewrites (every evaluator
// compiles the rewritten form of its expression).
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

	// One walk per consumer both decides and rewrites: a free reference to a
	// with-variable is foldable only as the sole argument of an aggregate call,
	// which becomes a reference to the synthetic column carrying that fold.
	// Any other reference — bare, iterated, collected by a nested group-by's
	// own with — needs the bag, and the rewrites are dropped.
	funcsByVar := map[string][]string{}
	needsBag := false
	target := func(e aql.Expr, sc *aql.Scope) (string, bool) {
		v, ok := e.(*aql.VariableRef)
		if !ok || sc.Bound(v.Name) || !slices.Contains(gb.GroupWith, v.Name) {
			return "", false
		}
		return v.Name, true
	}
	fold := func(e aql.Expr, sc *aql.Scope) aql.Expr {
		if call, ok := e.(*aql.CallExpr); ok && foldable(call) {
			if w, ok := target(call.Args[0], sc); ok {
				if !slices.Contains(funcsByVar[w], call.Func) {
					funcsByVar[w] = append(funcsByVar[w], call.Func)
				}
				return &aql.VariableRef{Name: foldColumn(call.Func, w)}
			}
		}
		if _, ok := target(e, sc); ok {
			needsBag = true
		}
		return e
	}
	rewrites := map[aql.Expr]aql.Expr{}
	for _, e := range consumers {
		if r := aql.Rewrite(e, fold); r != e {
			rewrites[e] = r
		}
	}
	if needsBag {
		return
	}
	var specs []foldSpec
	for _, w := range gb.GroupWith {
		for _, fn := range funcsByVar[w] {
			specs = append(specs, foldSpec{With: w, Func: fn, Name: foldColumn(fn, w)})
		}
	}
	b.exprRewrites = rewrites
	b.groupFold = &groupFold{node: gb, specs: specs}
}

// foldColumn names the synthetic group-by output column carrying fn folded
// over with-variable w; no AQL identifier can spell it.
func foldColumn(fn, w string) string { return "#agg:" + fn + ":" + w }
