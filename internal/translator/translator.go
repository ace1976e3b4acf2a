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
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/storage"
)

// Runtime is what a compiled job needs from the hosting instance when it
// runs: dataset access for scans and index probes, plus the expression
// evaluation context (clock, similarity settings, user functions, and the
// dataset reader behind correlated subqueries and the datasets with no
// storage partitions).
type Runtime interface {
	// EvalContext returns the instance's expression evaluation context.
	EvalContext() *expr.Context
	// LookupDataset resolves an internal (stored, partitioned) dataset.
	// It reports false for external datasets and the Metadata dataverse,
	// which the job reads through EvalContext's dataset reader.
	LookupDataset(dataverse, name string) (*storage.Dataset, bool)
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

// Compile builds and optimizes the algebra plan for a query expression. When
// the query is a single aggregate call wrapped around a FLWOR (Query 10's
// shape), the aggregate is split into local and global halves. Any other
// non-FLWOR expression is a constant query: distribute-result evaluates it
// once over BuildJob's empty-tuple-source, so every query runs as a job. An
// error means a FLWOR has a clause shape algebra.Build rejects.
func Compile(e aql.Expr, cat algebra.Catalog, opts algebra.Options) (*algebra.Plan, error) {
	switch q := e.(type) {
	case *aql.FLWORExpr:
		plan, err := algebra.Build(q)
		if err != nil {
			return nil, err
		}
		return algebra.Optimize(plan, cat, opts), nil
	case *aql.CallExpr:
		if len(q.Args) == 1 {
			_, isAgg := hyracks.ParseAggFn(q.Func)
			if inner, ok := q.Args[0].(*aql.FLWORExpr); ok && isAgg {
				plan, err := algebra.Build(inner)
				if err != nil {
					return nil, err
				}
				plan = algebra.Optimize(plan, cat, opts)
				return algebra.WrapAggregate(plan, q.Func, opts.DisableAggSplit), nil
			}
		}
	}
	return &algebra.Plan{Root: &algebra.Node{Kind: algebra.OpDistribute}, Query: &aql.FLWORExpr{Return: e}}, nil
}
