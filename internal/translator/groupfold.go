package translator

import (
	"slices"

	"asterixdb/internal/agg"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
)

// This file decides, per with-variable of a group-by, what the group-by
// folds for it, and rewrites the plan's consumer expressions accordingly.
// Every aggregate call over a with-variable above the group-by — count($w),
// sum($w), avg($w), min($w), max($w), or their sql- variants — becomes a
// reference to a synthetic output column carrying that aggregate, folded per
// group in O(1) state. A with-variable with any other free reference left
// (iterated, returned whole, passed to another function) also gets its own
// column: its listify, the group's bag of it. Where the analysis cannot see
// every consumer, every with-variable is its listify and nothing is
// rewritten.

// foldable returns the canonical name of a call's aggregate when the call is
// an aggregate builtin with a one-pass accumulator applied to a single
// argument.
func foldable(x *aql.CallExpr) (string, bool) {
	fn, ok := agg.Parse(x.Func)
	return fn.Name(), ok && len(x.Args) == 1
}

// foldSpec is one aggregate a group-by folds for a with-variable.
type foldSpec struct {
	With string // the with-variable folded
	Func string // the aggregate function, or agg.Listify
	Name string // the output column carrying the result
}

// groupFold is the fold plan prepareGroupFold made for one group-by.
type groupFold struct {
	node  *algebra.Node
	specs []foldSpec
}

// foldSpecs is what the group-by n folds: the analysed plan when there is
// one, otherwise every with-variable's listify under its own name.
func (b *jobBuilder) foldSpecs(n *algebra.Node) []foldSpec {
	if b.groupFold != nil && b.groupFold.node == n {
		return b.groupFold.specs
	}
	specs := make([]foldSpec, len(n.GroupWith))
	for i, w := range n.GroupWith {
		specs[i] = foldSpec{With: w, Func: agg.Listify, Name: w}
	}
	return specs
}

// spineFoldKinds are the operator kinds allowed between the plan root and
// the group-by for the analysis to proceed: their expressions are exactly
// the places a with-variable can be consumed.
var spineFoldKinds = map[algebra.OpKind]bool{
	algebra.OpDistribute: true, algebra.OpSelect: true, algebra.OpAssign: true,
	algebra.OpOrder: true, algebra.OpLimit: true, algebra.OpUnnest: true,
	algebra.OpLocalAgg: true, algebra.OpGlobalAgg: true, algebra.OpAggregate: true,
}

// prepareGroupFold inspects the plan for the group-by nearest its root and
// records its fold plan (read by buildGroupBy through foldSpecs) and the
// expression rewrites (every evaluator compiles the rewritten form of its
// expression). It records nothing when an operator between the root and the
// group-by is not one whose expressions it can read, or rebinds a
// with-variable's name.
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
			// group-by makes use-site scoping order-dependent.
			for _, v := range append(append([]string{}, sn.Vars...), sn.Variable) {
				if slices.Contains(gb.GroupWith, v) {
					return
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
	// with-variable as the sole argument of an aggregate call becomes a
	// reference to the synthetic column carrying that fold. Any other
	// reference — bare, iterated, collected by a nested group-by's own with —
	// needs the bag.
	funcsByVar := map[string][]string{}
	bags := map[string]bool{}
	target := func(e aql.Expr, sc *aql.Scope) (string, bool) {
		v, ok := e.(*aql.VariableRef)
		if !ok || sc.Bound(v.Name) || !slices.Contains(gb.GroupWith, v.Name) {
			return "", false
		}
		return v.Name, true
	}
	fold := func(e aql.Expr, sc *aql.Scope) aql.Expr {
		if call, ok := e.(*aql.CallExpr); ok {
			if fn, ok := foldable(call); ok {
				if w, ok := target(call.Args[0], sc); ok {
					if !slices.Contains(funcsByVar[w], fn) {
						funcsByVar[w] = append(funcsByVar[w], fn)
					}
					return &aql.VariableRef{Name: foldColumn(fn, w)}
				}
			}
		}
		if w, ok := target(e, sc); ok {
			bags[w] = true
		}
		return e
	}
	rewrites := map[aql.Expr]aql.Expr{}
	for _, e := range consumers {
		if r := aql.Rewrite(e, fold); r != e {
			rewrites[e] = r
		}
	}
	var specs []foldSpec
	for _, w := range gb.GroupWith {
		for _, fn := range funcsByVar[w] {
			specs = append(specs, foldSpec{With: w, Func: fn, Name: foldColumn(fn, w)})
		}
		if bags[w] {
			specs = append(specs, foldSpec{With: w, Func: agg.Listify, Name: w})
		}
	}
	b.exprRewrites = rewrites
	b.groupFold = &groupFold{node: gb, specs: specs}
}

// foldColumn names the synthetic group-by output column carrying fn folded
// over with-variable w; no AQL identifier can spell it.
func foldColumn(fn, w string) string { return "#agg:" + fn + ":" + w }
