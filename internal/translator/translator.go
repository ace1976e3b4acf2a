// Package translator turns AQL query expressions into optimized algebra plans
// and executable Hyracks jobs (the code-generation step of Section 4.2).
//
// The pipeline is:
//
//	AQL query  --algebra.Build-->  logical plan
//	           --algebra.Optimize-->  physical plan (access paths, join
//	                                  methods, aggregation split)
//	           --BuildJob-->  hyracks.Job of runnable operator instances
//	           --hyracks.Execute-->  result tuples
//
// BuildJob maps every physical operator to a concrete Hyracks operator:
// datasource scans read storage partitions in parallel, selects and assigns
// evaluate AQL expressions against tuple schemas, joins are hybrid-hash
// (build side wired to input port 1 through a partitioning connector) or
// broadcast nested-loop, an index access path is one chain of per-partition
// stages (buildProbe) whether a constant probe or the outer side of an
// index nested-loop join feeds it, group-by hash-partitions on its keys, and
// aggregates split into per-partition local and single global halves exactly
// as in Figure 6. A Schema tracks which tuple column carries
// which plan variable so expressions compiled from the query can be evaluated
// against flowing tuples.
package translator

import (
	"fmt"
	"slices"
	"strings"

	"asterixdb/internal/adm"
	"asterixdb/internal/agg"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/storage"
)

// Runtime is what a compiled job needs from the hosting instance or request
// when it runs: dataset access for its sources and index probes, and the
// expression evaluation context (clock and similarity settings). Every
// dataset a query reads — one inside an expression too, through its nest
// join — is a source or probe in the job.
type Runtime interface {
	// EvalContext returns the context the job's expressions run under.
	EvalContext() *expr.Context
	// LookupDataset resolves an internal (stored, partitioned) dataset.
	// It reports false for external datasets and the Metadata dataverse,
	// which the job reads with ScanDataset.
	LookupDataset(dataverse, name string) (*storage.Dataset, bool)
	// LookupIndex resolves a secondary index the catalog lists. The job
	// keeps the handle, so the index stays readable to it after a drop.
	LookupIndex(dataverse, dataset, index string) (*storage.Index, bool)
	// ScanDataset streams the records of a dataset LookupDataset does not
	// resolve until visit returns false; an unknown dataset is an error.
	ScanDataset(dataverse, name string, visit func(*adm.Record) bool) error
}

// Catalog is what Compile reads from the hosting instance: the optimizer's
// dataset metadata, and the user functions it inlines.
type Catalog interface {
	algebra.Catalog
	// Function returns the user function created under name.
	Function(name string) (*aql.CreateFunction, bool)
}

// Schema maps plan variables to tuple columns: column i of a tuple carries
// the value bound to variable Schema[i]. It is the bridge between the
// algebra's named variables and the runtime's positional tuples.
type Schema []string

// column reports the tuple column that carries a variable; later columns
// shadow earlier ones of the same name.
func (s Schema) column(name string) (int, bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == name {
			return i, true
		}
	}
	return 0, false
}

// Compile builds and optimizes the algebra plan for a query expression. Every
// user function call is inlined first, and algebra.NestDatasets then plans
// every dataset reference left inside an expression as a nest join, before
// Optimize chooses access paths and join methods. When the query is a single
// aggregate call wrapped around a FLWOR (Query 10's shape), the aggregate is
// split into local and global halves.
// Any other non-FLWOR expression is a constant query: distribute-result
// evaluates it once over BuildJob's empty-tuple-source, so every query runs
// as a job. An error means a user function calls itself, directly or
// through others, a FLWOR has a clause shape algebra.Build rejects, or a
// dataset sits where no job can read it.
func Compile(e aql.Expr, cat Catalog, opts algebra.Options) (*algebra.Plan, error) {
	e, err := inline(e, cat, nil)
	if err != nil {
		return nil, err
	}
	plan := &algebra.Plan{Root: &algebra.Node{Kind: algebra.OpDistribute}, Query: &aql.FLWORExpr{Return: e}}
	fl, agg := flworOf(e)
	if fl != nil {
		if plan, err = algebra.Build(fl); err != nil {
			return nil, err
		}
	}
	if plan, err = algebra.NestDatasets(plan); err != nil {
		return nil, err
	}
	plan = algebra.Optimize(plan, cat, opts)
	if agg != "" {
		plan = algebra.WrapAggregate(plan, agg, opts.DisableAggSplit)
	}
	return plan, nil
}

// flworOf returns the FLWOR a query's plan is built from — the query itself,
// or the argument of an aggregate call around one FLWOR (Query 10's shape),
// with that aggregate — or nil for a constant query.
func flworOf(e aql.Expr) (*aql.FLWORExpr, string) {
	switch q := e.(type) {
	case *aql.FLWORExpr:
		return q, ""
	case *aql.CallExpr:
		if fn, isAgg := agg.Parse(q.Func); isAgg && len(q.Args) == 1 {
			if fl, ok := q.Args[0].(*aql.FLWORExpr); ok {
				return fl, fn.Name()
			}
		}
	}
	return nil, ""
}

// inline replaces each call of a user function by its body, as AsterixDB's
// AQL rewriter does, so the job compiles every expression whole and the
// datasets a body reads become operators of the job. The arguments are
// bound by let clauses to fresh names the body refers to: f(a, b) becomes
// (let $#f-0-0 := a let $#f-0-1 := b return body)[0], which evaluates the
// body once. A builtin shadows a user function of its name. A body's free
// variables are all parameters (create function refuses any other), so it
// sees only its arguments. stack holds the
// functions being inlined; a call of one of them is a cycle, which no
// inlining ends, and an error naming it.
func inline(e aql.Expr, cat Catalog, stack []string) (aql.Expr, error) {
	var err error
	out := aql.Rewrite(e, func(x aql.Expr, _ *aql.Scope) aql.Expr {
		call, ok := x.(*aql.CallExpr)
		if !ok || err != nil || expr.IsBuiltin(call.Func) {
			return x
		}
		fn, ok := cat.Function(call.Func)
		if !ok {
			return x
		}
		if i := slices.Index(stack, call.Func); i >= 0 {
			cycle := append(slices.Clone(stack[i:]), call.Func)
			err = fmt.Errorf("translator: recursive function call %s", strings.Join(cycle, " -> "))
			return x
		}
		if len(call.Args) != len(fn.Params) {
			err = fmt.Errorf("translator: function %s expects %d arguments, got %d", call.Func, len(fn.Params), len(call.Args))
			return x
		}
		var body aql.Expr
		if body, err = inline(fn.Body, cat, append(stack, call.Func)); err != nil {
			return x
		}
		args := make([]aql.Expr, len(call.Args))
		for i, a := range call.Args {
			if args[i], err = inline(a, cat, stack); err != nil {
				return x
			}
		}
		fl := &aql.FLWORExpr{}
		params := map[string]string{}
		for i, p := range fn.Params {
			name := fmt.Sprintf("#%s-%d-%d", call.Func, len(stack), i)
			params[p] = name
			fl.Clauses = append(fl.Clauses, &aql.LetClause{Var: name, Expr: args[i]})
		}
		fl.Return = aql.Rewrite(body, func(y aql.Expr, sc *aql.Scope) aql.Expr {
			if v, ok := y.(*aql.VariableRef); ok && params[v.Name] != "" && !sc.Bound(v.Name) {
				return &aql.VariableRef{Name: params[v.Name]}
			}
			return y
		})
		return &aql.IndexAccess{Base: fl, Index: &aql.Literal{Value: adm.Int64(0)}}
	})
	return out, err
}
