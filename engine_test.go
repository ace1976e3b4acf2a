package asterixdb

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"asterixdb/internal/adm"
	"asterixdb/internal/agg"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/expr/oracle"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/storage"
)

// This file is the differential-testing oracle: a materializing interpreter
// over optimized plans in which every operator buffers its complete output as
// a set of variable bindings. It was the engine's first executor; it lives in
// a _test.go file so that no shipped binary contains a second way to evaluate
// a query, and the tests compare the Hyracks executor against it. It plans
// without algebra.NestDatasets: a dataset inside an expression stays there,
// and its context reads the whole dataset when the expression is evaluated,
// so each nest join a job runs is checked against that second
// implementation.

// interpret runs src's leading statements, compiles its trailing query under
// opts, and evaluates the plan with the interpreter instead of running the
// job. The oracle keeps its own join method: it drops every indexnl hint, so
// a hinted join the optimizer turns into an index probe chain is checked
// against an independent hash join, never against the optimizer's own choice
// of index.
func (in *Instance) interpret(src string, opts algebra.Options) ([]adm.Value, error) {
	ctx := context.Background()
	r, q, _, err := in.ExecuteForQuery(ctx, strings.ReplaceAll(src, "/*+ indexnl */", ""))
	if err != nil {
		return nil, err
	}
	plan, err := in.oraclePlan(q, opts)
	if err != nil {
		return nil, err
	}
	return r.interpreter().executePlanContext(ctx, plan)
}

// oraclePlan compiles as translator.Compile does, without inlining user
// functions and without algebra.NestDatasets.
func (in *Instance) oraclePlan(e aql.Expr, opts algebra.Options) (*algebra.Plan, error) {
	aggFn, inner := "", e
	if call, ok := e.(*aql.CallExpr); ok && len(call.Args) == 1 {
		if fn, isAgg := agg.Parse(call.Func); isAgg {
			aggFn, inner = fn.Name(), call.Args[0]
		}
	}
	fl, ok := inner.(*aql.FLWORExpr)
	if !ok {
		return &algebra.Plan{Root: &algebra.Node{Kind: algebra.OpDistribute}, Query: &aql.FLWORExpr{Return: e}}, nil
	}
	plan, err := algebra.Build(fl)
	if err != nil {
		return nil, err
	}
	plan = algebra.Optimize(plan, in, opts)
	if aggFn != "" {
		plan = algebra.WrapAggregate(plan, aggFn, opts.DisableAggSplit)
	}
	return plan, nil
}

// interpreter runs plans with the oracle's context of one request.
type interpreter struct {
	*Request
	octx *oracle.Context
}

func (r *Request) interpreter() *interpreter {
	return &interpreter{Request: r, octx: r.oracleContext()}
}

// oracleContext is the request's evaluation context with the catalog's user
// functions, as its catalog version lists them, and a dataset reader that reads any dataset
// whole, a stored one in partition-concatenation order.
func (r *Request) oracleContext() *oracle.Context {
	fns := map[string]*aql.CreateFunction{}
	for name, f := range r.cat.functions {
		fns[name] = f.def
	}
	read := func(dataverse, name string) ([]*adm.Record, error) {
		var out []*adm.Record
		visit := func(rec *adm.Record) bool {
			out = append(out, rec)
			return true
		}
		var err error
		if ds, ok := r.LookupDataset(dataverse, name); ok {
			err = ds.Scan(visit)
		} else {
			err = r.ScanDataset(dataverse, name, visit)
		}
		return out, err
	}
	return &oracle.Context{Context: r.EvalContext(), Datasets: read, Functions: fns}
}

// compileJob compiles src's trailing query (after running its leading
// statements) into the job QueryStream would execute.
func (in *Instance) compileJob(src string) (*hyracks.Job, *algebra.Plan, error) {
	r, q, _, err := in.ExecuteForQuery(context.Background(), src)
	if err != nil {
		return nil, nil, err
	}
	plan, job, err := r.CompileQuery(q, algebra.Options{})
	return job, plan, err
}

// runJob executes an already-built job to completion and returns its result
// column in the deterministic gather order.
func (in *Instance) runJob(job *hyracks.Job) ([]adm.Value, error) {
	res, err := in.materialize(context.Background(), job)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// executePlan runs an optimized physical plan with the interpreter. The
// query's return expression is applied at the distribute-result operator;
// aggregate-wrapped plans return the single aggregate value.
func (in *Instance) executePlan(plan *algebra.Plan) ([]adm.Value, error) {
	return in.newRequest().interpreter().executePlanContext(context.Background(), plan)
}

// executePlanContext is executePlan with cancellation checked at operator
// boundaries: because every interpreter operator materializes its whole
// output, that is the natural granularity.
func (in *interpreter) executePlanContext(ctx context.Context, plan *algebra.Plan) ([]adm.Value, error) {
	root := plan.Root
	if root.Kind != algebra.OpDistribute {
		return nil, fmt.Errorf("asterixdb: plan has no distribute-result root")
	}

	// Aggregate-wrapped plans (Query 10 shape).
	if len(root.Inputs) > 0 {
		child := root.Inputs[0]
		switch child.Kind {
		case algebra.OpGlobalAgg:
			local := child.Inputs[0]
			envs, err := in.executeNode(ctx, local.Inputs[0], plan.Query)
			if err != nil {
				return nil, err
			}
			v, err := in.applyAggregate(child.AggFunc, envs, plan.Query)
			if err != nil {
				return nil, err
			}
			return []adm.Value{v}, nil
		case algebra.OpAggregate:
			envs, err := in.executeNode(ctx, child.Inputs[0], plan.Query)
			if err != nil {
				return nil, err
			}
			v, err := in.applyAggregate(child.AggFunc, envs, plan.Query)
			if err != nil {
				return nil, err
			}
			return []adm.Value{v}, nil
		}
	}

	// childEnvs starts a constant query (input-less root) from one empty
	// binding.
	envs, err := in.childEnvs(ctx, root, plan.Query)
	if err != nil {
		return nil, err
	}
	out := make([]adm.Value, 0, len(envs))
	for _, env := range envs {
		v, err := oracle.Eval(in.octx, env, plan.Query.Return)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// applyAggregate evaluates the inner query's return expression for every
// binding and folds the values with the aggregate function (the local
// aggregation happens per partition inside executeNode's parallel scan; this
// is the global combine).
func (in *interpreter) applyAggregate(fn string, envs []oracle.Env, query *aql.FLWORExpr) (adm.Value, error) {
	items := make([]adm.Value, 0, len(envs))
	for _, env := range envs {
		v, err := oracle.Eval(in.octx, env, query.Return)
		if err != nil {
			return nil, err
		}
		items = append(items, v)
	}
	call := &aql.CallExpr{Func: fn, Args: []aql.Expr{&aql.Literal{Value: &adm.OrderedList{Items: items}}}}
	return oracle.Eval(in.octx, oracle.Env{}, call)
}

// executeNode evaluates one plan operator and returns the variable bindings
// it produces.
func (in *interpreter) executeNode(ctx context.Context, n *algebra.Node, query *aql.FLWORExpr) ([]oracle.Env, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch n.Kind {
	case algebra.OpScan:
		return in.execScan(n)
	case algebra.OpSubplan:
		return in.execSubplan(n)
	case algebra.OpUnnest:
		return in.execUnnest(ctx, n, query)
	case algebra.OpIndexSearch:
		return in.execIndexSearch(n)
	case algebra.OpSortPK, algebra.OpPrimarySearch:
		if n.LoExpr != nil && len(n.Inputs) > 0 {
			return nil, fmt.Errorf("asterixdb: the oracle runs no index-probed join (interpret drops the hint)")
		}
		if n.LoExpr != nil {
			// A key-equality source: the oracle scans, so the select above
			// alone decides what `=` matches.
			return in.execScan(n)
		}
		// The storage layer's materializing Search* calls already perform the
		// PK sort, primary lookup and fetch; these operators are structural.
		return in.executeNode(ctx, n.Inputs[0], query)
	case algebra.OpSelect:
		envs, err := in.childEnvs(ctx, n, query)
		if err != nil {
			return nil, err
		}
		var out []oracle.Env
		for _, env := range envs {
			keep, err := oracle.EvalBool(in.octx, env, n.Condition)
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, env)
			}
		}
		return out, nil
	case algebra.OpAssign:
		envs, err := in.childEnvs(ctx, n, query)
		if err != nil {
			return nil, err
		}
		out := make([]oracle.Env, 0, len(envs))
		for _, env := range envs {
			e := env
			for i, v := range n.Vars {
				val, err := oracle.Eval(in.octx, e, n.Exprs[i])
				if err != nil {
					return nil, err
				}
				e = e.With(v, val)
			}
			out = append(out, e)
		}
		return out, nil
	case algebra.OpJoin:
		return in.execJoin(ctx, n, query)
	case algebra.OpGroupBy:
		envs, err := in.childEnvs(ctx, n, query)
		if err != nil {
			return nil, err
		}
		return in.execClause(envs, &aql.GroupByClause{Keys: n.GroupKeys, With: n.GroupWith})
	case algebra.OpOrder:
		envs, err := in.childEnvs(ctx, n, query)
		if err != nil {
			return nil, err
		}
		return in.execClause(envs, &aql.OrderByClause{Terms: n.OrderTerms})
	case algebra.OpLimit:
		envs, err := in.childEnvs(ctx, n, query)
		if err != nil {
			return nil, err
		}
		return in.execClause(envs, &aql.LimitClause{Limit: n.LimitExpr, Offset: n.OffsetExpr})
	case algebra.OpLocalAgg, algebra.OpGlobalAgg, algebra.OpAggregate:
		return in.executeNode(ctx, n.Inputs[0], query)
	}
	return nil, fmt.Errorf("asterixdb: unsupported physical operator %s", n.Kind)
}

// childEnvs evaluates the node's input, or starts from a single empty binding
// when the node has no input (a query that begins with let clauses, or a
// constant query).
func (in *interpreter) childEnvs(ctx context.Context, n *algebra.Node, query *aql.FLWORExpr) ([]oracle.Env, error) {
	if len(n.Inputs) == 0 {
		return []oracle.Env{{}}, nil
	}
	return in.executeNode(ctx, n.Inputs[0], query)
}

// execClause reuses the interpreter's clause semantics for group-by, order-by
// and limit over already-materialized bindings.
func (in *interpreter) execClause(envs []oracle.Env, clause aql.FLWORClause) ([]oracle.Env, error) {
	return oracle.ApplyClause(in.octx, envs, clause)
}

// execScan scans every partition of a dataset in parallel (one goroutine per
// partition — the per-partition operator instances of the runtime) and binds
// each record to the scan variable.
func (in *interpreter) execScan(n *algebra.Node) ([]oracle.Env, error) {
	if n.Dataverse == "Metadata" {
		recs, err := in.cat.metadataRecords(n.Dataset)
		if err != nil {
			return nil, err
		}
		return withPositions(n.PosVar, bindRecords(n.Variable, recs)), nil
	}
	e, ok := in.cat.datasets[n.Dataset]
	if !ok {
		return nil, fmt.Errorf("asterixdb: dataset %q does not exist", n.Dataset)
	}
	if e.external != nil {
		recs, err := e.external.ReadAll()
		if err != nil {
			return nil, err
		}
		return withPositions(n.PosVar, bindRecords(n.Variable, recs)), nil
	}
	ds := e.internal
	parts := in.cfg.Partitions
	perPart := make([][]oracle.Env, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = ds.ScanPartition(p, func(v adm.Value) bool {
				// The interpreter is the materializing oracle: it always works
				// over fully-decoded records.
				rec, ok := adm.AsRecord(v)
				if !ok {
					return true
				}
				perPart[p] = append(perPart[p], oracle.Env{n.Variable: rec})
				return true
			})
		}(p)
	}
	wg.Wait()
	var out []oracle.Env
	for p := 0; p < parts; p++ {
		if errs[p] != nil {
			return nil, errs[p]
		}
		out = append(out, perPart[p]...)
	}
	// The partition-concatenation order above IS the scan's iteration order,
	// so positional bindings are the concatenated index.
	return withPositions(n.PosVar, out), nil
}

// withPositions binds the positional variable of a `for $v at $i in ...`
// source to each binding's 1-based index; the bindings must already be in the
// source's iteration order. A query without a positional variable passes
// through untouched.
func withPositions(posVar string, envs []oracle.Env) []oracle.Env {
	if posVar == "" {
		return envs
	}
	for i := range envs {
		envs[i] = envs[i].With(posVar, adm.Int64(i+1))
	}
	return envs
}

// execSubplan evaluates a non-dataset for-clause source with the interpreter
// and binds each resulting item.
func (in *interpreter) execSubplan(n *algebra.Node) ([]oracle.Env, error) {
	v, err := oracle.Eval(in.octx, oracle.Env{}, n.Exprs[0])
	if err != nil {
		return nil, err
	}
	items := expr.IterationItems(v)
	out := make([]oracle.Env, 0, len(items))
	for _, it := range items {
		out = append(out, oracle.Env{n.Variable: it})
	}
	return withPositions(n.PosVar, out), nil
}

// execIndexSearch runs the secondary-index access path through the storage
// layer's materializing whole-dataset calls (secondary search in every
// partition, PK sort, primary search). A B+-tree search post-validates its
// range; for the R-tree (the probe's MBR filters) and the inverted indexes
// (the probe's tokens or grams give a conservative candidate set) the select
// above re-applies the exact predicate. An unknown or wrongly typed probe
// matches nothing.
func (in *interpreter) execIndexSearch(n *algebra.Node) ([]oracle.Env, error) {
	ds, ok := in.Dataset(n.Dataset)
	if !ok {
		return nil, fmt.Errorf("asterixdb: dataset %q does not exist", n.Dataset)
	}
	if len(n.Inputs) > 0 {
		return nil, fmt.Errorf("asterixdb: the oracle runs no index-probed join (interpret drops the hint)")
	}
	var vals [3]adm.Value // lo, hi, probe
	for i, e := range []aql.Expr{n.LoExpr, n.HiExpr, n.ProbeExpr} {
		if e == nil {
			continue
		}
		v, err := oracle.Eval(in.octx, oracle.Env{}, e)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	var recs []*adm.Record
	var err error
	switch n.IndexKind {
	case algebra.BTreeIndex:
		recs, err = ds.SearchSecondaryRange(n.Index, vals[0], vals[1])
	case algebra.RTreeIndex:
		if mbr, ok := storage.SpatialProbeMBR(vals[2]); ok {
			recs, err = ds.SearchSecondaryRTree(n.Index, mbr)
		}
	default:
		if s, ok := storage.StringProbe(vals[2]); ok {
			recs, err = ds.SearchSecondaryConjunctive(n.Index, s)
		}
	}
	if err != nil {
		return nil, err
	}
	return bindRecords(n.Variable, recs), nil
}

// execUnnest evaluates a correlated subplan source (for $y in $x.list) under
// each input binding, mirroring the interpreter's for-clause semantics: an
// unknown source contributes nothing, a non-list source contributes itself.
func (in *interpreter) execUnnest(ctx context.Context, n *algebra.Node, query *aql.FLWORExpr) ([]oracle.Env, error) {
	envs, err := in.childEnvs(ctx, n, query)
	if err != nil {
		return nil, err
	}
	var out []oracle.Env
	for _, env := range envs {
		v, err := oracle.Eval(in.octx, env, n.Exprs[0])
		if err != nil {
			return nil, err
		}
		for i, it := range expr.IterationItems(v) {
			e := env.With(n.Variable, it)
			if n.PosVar != "" {
				// The position restarts at 1 for every input binding.
				e = e.With(n.PosVar, adm.Int64(i+1))
			}
			out = append(out, e)
		}
	}
	return out, nil
}

func bindRecords(variable string, recs []*adm.Record) []oracle.Env {
	out := make([]oracle.Env, len(recs))
	for i, r := range recs {
		out[i] = oracle.Env{variable: r}
	}
	return out
}

// execJoin executes a binary join. An equijoin pairs the bindings whose keys
// adm.Compare finds equal — the language's `=` — checked pair by pair, so the
// oracle shares no key encoding with the hash joins it checks; other joins
// fall back to a nested loop with the residual predicate applied by the select
// above them. (The oracle sees no index nested-loop join: interpret drops the
// hint, so a hinted equijoin is this join.)
func (in *interpreter) execJoin(ctx context.Context, n *algebra.Node, query *aql.FLWORExpr) ([]oracle.Env, error) {
	if n.Nest != "" {
		return nil, fmt.Errorf("asterixdb: the oracle runs no nest join (oraclePlan leaves datasets in expressions)")
	}
	left, err := in.executeNode(ctx, n.Inputs[0], query)
	if err != nil {
		return nil, err
	}
	if n.Method != algebra.HybridHashJoin || n.LeftKey == nil || n.RightKey == nil {
		return in.nestedLoopJoin(ctx, left, n, query)
	}
	right, err := in.executeNode(ctx, n.Inputs[1], query)
	if err != nil {
		return nil, err
	}
	rightKeys := make([]adm.Value, len(right))
	for i, env := range right {
		if rightKeys[i], err = oracle.Eval(in.octx, env, n.RightKey); err != nil {
			return nil, err
		}
	}
	var out []oracle.Env
	for _, env := range left {
		v, err := oracle.Eval(in.octx, env, n.LeftKey)
		if err != nil {
			return nil, err
		}
		if adm.IsUnknown(v) {
			continue
		}
		for i, k := range rightKeys {
			if !adm.IsUnknown(k) && adm.Equal(v, k) {
				out = append(out, mergeEnvs(env, right[i]))
			}
		}
	}
	return out, nil
}

// nestedLoopJoin is the cross product; the residual predicate above filters.
func (in *interpreter) nestedLoopJoin(ctx context.Context, left []oracle.Env, n *algebra.Node, query *aql.FLWORExpr) ([]oracle.Env, error) {
	right, err := in.executeNode(ctx, n.Inputs[1], query)
	if err != nil {
		return nil, err
	}
	var out []oracle.Env
	for _, l := range left {
		for _, r := range right {
			out = append(out, mergeEnvs(l, r))
		}
	}
	return out, nil
}

func mergeEnvs(a, b oracle.Env) oracle.Env {
	out := make(oracle.Env, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}
