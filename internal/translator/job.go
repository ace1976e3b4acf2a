package translator

import (
	"fmt"
	"sync"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/runfile"
	"asterixdb/internal/storage"
)

// JobOptions configures job generation.
type JobOptions struct {
	// Partitions is the storage partition count (job parallelism).
	Partitions int
	// MemoryBudget is the per-job memory budget in bytes for blocking
	// operators, divided evenly among the instances of the job's spillable
	// operators (sort, hybrid hash join, hash group-by): it decides when they
	// spill, not which algorithm they run. Zero means unconstrained — they
	// never spill. It also derives the job's frame size, so constrained jobs
	// ship proportionally smaller frames.
	MemoryBudget int64
	// SpillDir is the directory run files are created under when operators
	// spill (a job-private subdirectory is created lazily). Empty falls back
	// to the system temp directory.
	SpillDir string
	// DisableFusion skips the one-to-one operator fusion pass, leaving each
	// pipelined operator as its own goroutine-per-partition instance (the
	// pre-fusion execution shape, kept for differential testing and
	// benchmarking).
	DisableFusion bool
	// Distributed marks job generation for a multi-node cluster run, where an
	// operator instance sees only the storage partitions of the node it is
	// placed on. Plan shapes that probe the whole dataset from one instance —
	// the index nested-loop join's per-probe lookups — degrade to their
	// shuffled equivalents (hybrid hash join), which partition by key and
	// stay correct across nodes. Per-partition access paths (primary scans,
	// secondary index searches) are unaffected: their instances are placed on
	// the node owning the partition.
	Distributed bool
}

// BuildJob converts an optimized physical plan into an executable Hyracks
// job: every operator in the returned job carries a runnable closure over the
// runtime's storage partitions and the expression evaluator, wired with the
// connector structure of Figure 6. Every access path compiles to partitioned
// operators: B+-tree, R-tree, and inverted-index secondary searches each run
// as per-partition secondary-search -> PK-sort -> primary-search stages,
// correlated subplan sources (for $y in $x.list) compile to an unnest
// operator, and positional variables (for $v at $i in ...) compile to
// position-tagging sources (see buildPositionalScan). BuildJob reports an
// error only for plans that genuinely have no physical operator; the engine
// surfaces those as typed "unplannable" errors.
//
// opts.MemoryBudget is divided among the blocking operators' instances, each
// of which spills to run files (managed by the job's runfile.Manager, closed
// by the runtime on every termination path) instead of growing past its
// share; a zero budget is an unlimited share.
func BuildJob(plan *algebra.Plan, rt Runtime, opts JobOptions) (*hyracks.Job, error) {
	if opts.Partitions <= 0 {
		opts.Partitions = 1
	}
	if plan.Root == nil || plan.Root.Kind != algebra.OpDistribute {
		return nil, fmt.Errorf("translator: plan has no distribute-result root")
	}
	b := &jobBuilder{
		job:         &hyracks.Job{},
		rt:          rt,
		partitions:  opts.Partitions,
		ctx:         rt.EvalContext(),
		query:       plan.Query,
		distributed: opts.Distributed,
	}
	// Decide whether the plan's group-by can fold its aggregates
	// incrementally; the consumer build functions read the resulting
	// expression rewrites through b.rewritten.
	b.prepareGroupFold(plan)
	if _, err := b.buildDistribute(plan.Root); err != nil {
		return nil, err
	}
	assignMemoryBudget(b.job, opts)
	job := b.job
	if !opts.DisableFusion {
		// Collapse one-to-one pipelined chains (scan -> select -> assign ->
		// distribute, and limit tails at parallelism 1) into single fused
		// operators: one goroutine and zero frame handoffs per chain instance.
		job = hyracks.FuseJob(job)
	}
	return job, nil
}

// assignMemoryBudget divides the job's memory budget evenly among the
// instances of its spillable blocking operators (whichever implement
// hyracks.SpillBudgeted) and attaches the job's spill manager, which accounts
// their resident bytes whatever the budget (zero is an unlimited share:
// runfile never reports it full). It also derives the job frame size from
// the budget so channel buffering scales down with it.
func assignMemoryBudget(job *hyracks.Job, opts JobOptions) {
	job.FrameSize = hyracks.FrameSizeForBudget(opts.MemoryBudget)
	var budgeted []hyracks.SpillBudgeted
	instances := 0
	for _, op := range job.Operators {
		if sb, ok := op.(hyracks.SpillBudgeted); ok {
			budgeted = append(budgeted, sb)
			instances += op.Parallelism()
		}
	}
	if instances == 0 {
		return
	}
	mgr := runfile.NewManager(opts.SpillDir, opts.MemoryBudget)
	job.Spill = mgr
	share := opts.MemoryBudget / int64(instances)
	if share < 1 && opts.MemoryBudget > 0 {
		share = 1 // a budget smaller than the instance count is still a limit
	}
	// Each operator gets its own Budget (same manager and share) so its
	// SpillObserver attributes run files and resident peaks per operator
	// in job profiles.
	for _, sb := range budgeted {
		sb.SetSpillBudget(&runfile.Budget{M: mgr, PerInstance: share, Obs: &runfile.SpillObserver{}})
	}
}

// jobBuilder accumulates operators and connectors while walking a plan tree
// bottom-up.
type jobBuilder struct {
	job         *hyracks.Job
	rt          Runtime
	partitions  int
	ctx         *expr.Context
	query       *aql.FLWORExpr
	distributed bool
	// scanBounds holds per-scan emit bounds pushed down from a limit clause
	// (offset+limit per partition): buildLimit records them before building
	// its input, and buildScan caps each partition's scan accordingly.
	scanBounds map[*algebra.Node]int
	// groupFold is the incremental-aggregate plan for the job's group-by (nil
	// when the group-by materializes bags), and exprRewrites maps consumer
	// expressions to their fold-rewritten forms (agg calls over with-variables
	// replaced by synthetic column references). See groupfold.go.
	groupFold    *groupFold
	exprRewrites map[aql.Expr]aql.Expr
}

// stream describes the output of a built subtree: the producing operator,
// its parallelism, and the tuple schema it emits.
type stream struct {
	op     int
	par    int
	schema Schema
}

// connect wires prev -> op on port 0 with the given connector and returns the
// new stream.
func (b *jobBuilder) connect(prev stream, op int, par int, schema Schema, c hyracks.Connector) stream {
	b.job.Connect(prev.op, op, c)
	return stream{op: op, par: par, schema: schema}
}

// gatherConnector merges an N-way stream into a single consumer instance.
func gatherConnector(par int) hyracks.Connector {
	if par == 1 {
		return hyracks.Connector{Kind: hyracks.OneToOne}
	}
	return hyracks.Connector{Kind: hyracks.MToNPartitioningMerging}
}

// bindInto overwrites env with the tuple's bindings under the schema.
func bindInto(env expr.Env, schema Schema, t hyracks.Tuple) {
	for i, name := range schema {
		if i < len(t) && t[i] != nil {
			env[name] = t[i]
		} else {
			delete(env, name)
		}
	}
}

// tupleBlock is the number of single-column tuples that share one backing
// allocation in tupleAllocator and the datasource scan.
const tupleBlock = 512

// tupleAllocator returns a per-instance maker of one-column tuples packed
// into shared blocks: one backing allocation per tupleBlock tuples instead of
// one per tuple. Each slot is written exactly once and the three-index cap
// keeps a downstream append from aliasing the next tuple. Instances must call
// it only from their own partition p, which is the operator contract anyway.
func tupleAllocator(par int) func(p int, v adm.Value) hyracks.Tuple {
	blks := make([][]adm.Value, par)
	return func(p int, v adm.Value) hyracks.Tuple {
		blk := blks[p]
		if len(blk) == cap(blk) {
			blk = make([]adm.Value, 0, tupleBlock)
		}
		blk = append(blk, v)
		blks[p] = blk
		i := len(blk) - 1
		return hyracks.Tuple(blk[i : i+1 : i+1])
	}
}

// envBinder returns a per-partition tuple-to-environment binder that reuses
// one map per operator instance. The evaluator never retains an environment
// beyond the Eval call (Env.With copies), so streaming operators can
// overwrite the same map for every tuple instead of allocating one each —
// the dominant per-tuple cost otherwise. Operators that materialize
// environments (group-by, sort) must use Schema.Env instead.
func envBinder(schema Schema, par int) func(p int, t hyracks.Tuple) expr.Env {
	envs := make([]expr.Env, par)
	return func(p int, t hyracks.Tuple) expr.Env {
		env := envs[p]
		if env == nil {
			env = make(expr.Env, len(schema)+4)
			envs[p] = env
		}
		bindInto(env, schema, t)
		return env
	}
}

func (b *jobBuilder) build(n *algebra.Node) (stream, error) {
	switch n.Kind {
	case algebra.OpScan:
		return b.buildScan(n)
	case algebra.OpSubplan:
		return b.buildSubplan(n)
	case algebra.OpUnnest:
		return b.buildUnnest(n)
	case algebra.OpIndexSearch:
		return b.buildSecondarySearch(n, "btree-search")
	case algebra.OpRTreeSearch:
		return b.buildSecondarySearch(n, "rtree-search")
	case algebra.OpInvertedSearch:
		return b.buildSecondarySearch(n, "inverted-search")
	case algebra.OpSortPK:
		return b.buildSortPK(n)
	case algebra.OpPrimarySearch:
		return b.buildPrimarySearch(n)
	case algebra.OpSelect:
		return b.buildSelect(n)
	case algebra.OpAssign:
		return b.buildAssign(n)
	case algebra.OpJoin:
		return b.buildJoin(n)
	case algebra.OpGroupBy:
		return b.buildGroupBy(n)
	case algebra.OpOrder:
		return b.buildOrder(n)
	case algebra.OpLimit:
		return b.buildLimit(n)
	case algebra.OpLocalAgg:
		return b.buildLocalAgg(n)
	case algebra.OpGlobalAgg:
		return b.buildGlobalAgg(n)
	case algebra.OpAggregate:
		return b.buildAggregate(n)
	}
	return stream{}, fmt.Errorf("translator: no executable operator for %s", n.Kind)
}

// buildInput builds the node's primary input, or a constant single-empty-
// tuple source for input-less operators (queries that begin with let
// clauses, and constant queries with no clauses at all).
func (b *jobBuilder) buildInput(n *algebra.Node) (stream, error) {
	if len(n.Inputs) == 0 {
		op := b.job.Add(&hyracks.SourceOp{
			Label:      "empty-tuple-source",
			Partitions: 1,
			Produce: func(_ int, emit func(hyracks.Tuple) bool) error {
				emit(hyracks.Tuple{})
				return nil
			},
		})
		return stream{op: op, par: 1, schema: Schema{}}, nil
	}
	return b.build(n.Inputs[0])
}

// ----------------------------------------------------------------------------
// Sources
// ----------------------------------------------------------------------------

func (b *jobBuilder) buildScan(n *algebra.Node) (stream, error) {
	schema := Schema{n.Variable}
	bound, bounded := b.scanBounds[n]
	if ds, ok := b.rt.LookupDataset(n.Dataverse, n.Dataset); ok {
		if n.PosVar != "" {
			return b.buildPositionalScan(n, bound, bounded, ds)
		}
		// Internal dataset: one scan instance per storage partition. A
		// pushed-down limit bound stops each partition's scan at exactly
		// offset+limit emitted records, instead of overrunning by a frame
		// until the limit's upstream cancellation arrives.
		mk := tupleAllocator(b.partitions)
		op := b.job.Add(&hyracks.SourceOp{
			Label:      fmt.Sprintf("datasource-scan(%s)", n.Dataset),
			Partitions: b.partitions,
			Produce: func(p int, emit func(hyracks.Tuple) bool) error {
				emitted := 0
				return ds.ScanPartition(p, func(rec adm.Value) bool {
					if bounded && emitted >= bound {
						return false
					}
					emitted++
					return emit(mk(p, rec))
				})
			},
		})
		return stream{op: op, par: b.partitions, schema: schema}, nil
	}
	// Metadata and external datasets have no storage partitions; the runtime
	// materializes them into a single-instance source. Unknown datasets
	// surface their error when the job runs, like the interpreter. The
	// materialized order IS the iteration order, so a positional variable is
	// a plain counter here.
	if n.PosVar != "" {
		schema = Schema{n.Variable, n.PosVar}
	}
	posVar, dataverse, dataset := n.PosVar, n.Dataverse, n.Dataset
	op := b.job.Add(&hyracks.SourceOp{
		Label:      fmt.Sprintf("datasource-scan(%s)", n.Dataset),
		Partitions: 1,
		Produce: func(_ int, emit func(hyracks.Tuple) bool) error {
			recs, err := b.rt.ReadDatasetRecords(dataverse, dataset)
			if err != nil {
				return err
			}
			if bounded && bound < len(recs) {
				recs = recs[:bound]
			}
			for i, rec := range recs {
				t := hyracks.Tuple{rec}
				if posVar != "" {
					t = append(t, adm.Int64(i+1))
				}
				if !emit(t) {
					return nil
				}
			}
			return nil
		},
	})
	return stream{op: op, par: 1, schema: schema}, nil
}

// buildPositionalScan compiles `for $v at $i in dataset D`: the interpreter
// defines $i as the record's 1-based position in the concatenation of the
// partition scans (partition 0 first, each in scan order). The per-partition
// scan instances are kept — they stay aligned with storage ownership, which a
// distributed run relies on — and each tags its records with (partition,
// sequence); a single-instance stable sort on that pair reproduces the
// concatenation order, and a counter operator above it binds the positions.
// A pushed-down limit bound remains sound: each partition's first `bound`
// records are a superset of the global first `bound` in concatenation order.
func (b *jobBuilder) buildPositionalScan(n *algebra.Node, bound int, bounded bool, ds *storage.Dataset) (stream, error) {
	tagged := Schema{n.Variable, "#part", "#seq"}
	scanOp := b.job.Add(&hyracks.SourceOp{
		Label:      fmt.Sprintf("datasource-scan(%s)", n.Dataset),
		Partitions: b.partitions,
		Produce: func(p int, emit func(hyracks.Tuple) bool) error {
			emitted := 0
			return ds.ScanPartition(p, func(rec adm.Value) bool {
				if bounded && emitted >= bound {
					return false
				}
				emitted++
				return emit(hyracks.Tuple{rec, adm.Int64(p), adm.Int64(emitted)})
			})
		},
	})
	scan := stream{op: scanOp, par: b.partitions, schema: tagged}
	sortOp := b.job.Add(&hyracks.SortOp{
		Label:      "sort(partition, seq)",
		Partitions: 1,
		Columns:    []int{1, 2},
	})
	sorted := b.connect(scan, sortOp, 1, tagged, gatherConnector(scan.par))
	// Single instance, run once per job: the closure counter is safe.
	pos := 0
	posVar := n.PosVar
	asg := b.job.Add(&hyracks.FlatMapOp{
		Label:      fmt.Sprintf("assign-positions($%s)", posVar),
		Partitions: 1,
		Fn: func(_ int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			pos++
			emit(hyracks.Tuple{t[0], adm.Int64(pos)})
			return nil
		},
	})
	return b.connect(sorted, asg, 1, Schema{n.Variable, posVar}, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

func (b *jobBuilder) buildSubplan(n *algebra.Node) (stream, error) {
	src := n.Exprs[0]
	if vars := algebra.FreeVarsOf(src); len(vars) > 0 {
		// A source with free variable references (e.g. iterating a field of an
		// outer binding) cannot run as a standalone datasource; algebra.Build
		// compiles those as unnest operators, so this is only a safety net.
		return stream{}, fmt.Errorf("translator: correlated subplan source references $%s", vars[0])
	}
	schema := Schema{n.Variable}
	if n.PosVar != "" {
		schema = Schema{n.Variable, n.PosVar}
	}
	posVar := n.PosVar
	op := b.job.Add(&hyracks.SourceOp{
		Label:      "subplan",
		Partitions: 1,
		Produce: func(_ int, emit func(hyracks.Tuple) bool) error {
			v, err := expr.Eval(b.ctx, expr.Env{}, src)
			if err != nil {
				return err
			}
			for i, it := range expr.IterationItems(v) {
				t := hyracks.Tuple{it}
				if posVar != "" {
					t = append(t, adm.Int64(i+1))
				}
				if !emit(t) {
					return nil
				}
			}
			return nil
		},
	})
	return stream{op: op, par: 1, schema: schema}, nil
}

// buildUnnest compiles a correlated subplan source (for $y in $x.list): for
// every input tuple it evaluates the source expression under the tuple's
// bindings and emits one widened tuple per item, mirroring the interpreter's
// for-clause semantics (an unknown source contributes nothing; a non-list
// source contributes itself).
func (b *jobBuilder) buildUnnest(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	src, inSchema := b.rewritten(n.Exprs[0]), in.schema
	outSchema := append(append(Schema{}, inSchema...), n.Variable)
	if n.PosVar != "" {
		// `for $y at $i in $x.list`: the position restarts at 1 for every
		// input tuple, exactly the interpreter's per-binding iteration.
		outSchema = append(outSchema, n.PosVar)
	}
	posVar := n.PosVar
	bind := envBinder(inSchema, in.par)
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      fmt.Sprintf("unnest($%s)", n.Variable),
		Partitions: in.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			v, err := expr.Eval(b.ctx, bind(p, t), src)
			if err != nil {
				return err
			}
			for i, it := range expr.IterationItems(v) {
				out := make(hyracks.Tuple, len(t), len(t)+2)
				copy(out, t)
				out = append(out, it)
				if posVar != "" {
					out = append(out, adm.Int64(i+1))
				}
				if !emit(out) {
					return nil
				}
			}
			return nil
		},
	})
	return b.connect(in, op, in.par, outSchema, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

// pkSchema is the synthetic single-column schema that encoded primary keys
// flow in between the stages of the secondary-index access path.
var pkSchema = Schema{"#pk"}

// buildSecondarySearch is the first stage of the compiled secondary-index
// access path for every index kind: one search instance per storage
// partition, each searching its partition-local index and emitting the
// candidate encoded primary keys (for an R-tree or inverted index a
// conservative superset; the select above post-validates the exact
// predicate). The PK sort and primary search stages above run per-partition
// too, so the whole access path executes at full parallelism. How a probe
// value maps to candidates — and that an unknown or wrongly typed one matches
// nothing — is the storage layer's knowledge.
func (b *jobBuilder) buildSecondarySearch(n *algebra.Node, label string) (stream, error) {
	ds, ok := b.rt.LookupDataset(n.Dataverse, n.Dataset)
	if !ok {
		return stream{}, fmt.Errorf("translator: dataset %q has no stored partitions for %s", n.Dataset, label)
	}
	index, probeExprs := n.Index, [3]aql.Expr{n.LoExpr, n.HiExpr, n.ProbeExpr}
	// The probe is evaluated once per job and shared by every partition
	// instance: a volatile bound such as current-datetime() must not make the
	// instances search different ranges.
	probe := sync.OnceValues(func() (storage.Probe, error) {
		var vals [3]adm.Value
		for i, e := range probeExprs {
			if e == nil {
				continue
			}
			v, err := expr.Eval(b.ctx, expr.Env{}, e)
			if err != nil {
				return storage.Probe{}, err
			}
			vals[i] = v
		}
		return storage.Probe{Lo: vals[0], Hi: vals[1], Value: vals[2]}, nil
	})
	op := b.job.Add(&hyracks.SourceOp{
		Label:      fmt.Sprintf("%s(%s)", label, index),
		Partitions: b.partitions,
		Produce: func(p int, emit func(hyracks.Tuple) bool) error {
			pr, err := probe()
			if err != nil {
				return err
			}
			return ds.SearchIndexPartition(p, index, pr, func(pk []byte) bool {
				return emit(hyracks.Tuple{adm.Binary(pk)})
			})
		},
	})
	return stream{op: op, par: b.partitions, schema: pkSchema}, nil
}

// buildSortPK compiles the sort between the secondary and primary index
// searches: a per-partition blocking sort of the encoded primary keys, which
// turns the primary-search stage's lookups into a sequential access pattern.
func (b *jobBuilder) buildSortPK(n *algebra.Node) (stream, error) {
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return stream{}, err
	}
	op := b.job.Add(&hyracks.SortOp{
		Label:      "sort(primary-keys)",
		Partitions: in.par,
		Columns:    []int{0},
	})
	return b.connect(in, op, in.par, in.schema, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

// buildPrimarySearch compiles the primary-index search stage: each instance
// resolves the encoded primary keys flowing from its partition's secondary
// search against the same partition's primary B+-tree (secondary indexes are
// co-located with their records, so instance p only ever touches partition p)
// and emits the fetched records.
func (b *jobBuilder) buildPrimarySearch(n *algebra.Node) (stream, error) {
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return stream{}, err
	}
	ds, ok := b.rt.LookupDataset(n.Dataverse, n.Dataset)
	if !ok {
		return stream{}, fmt.Errorf("translator: dataset %q has no stored partitions for primary search", n.Dataset)
	}
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      fmt.Sprintf("btree-search(%s)", n.Dataset),
		Partitions: in.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			pk, ok := t[0].(adm.Binary)
			if !ok {
				return fmt.Errorf("translator: primary search expected an encoded key, got %s", t[0].Tag())
			}
			rec, found, err := ds.FetchPKPartition(p, pk)
			if err != nil {
				return err
			}
			if found {
				emit(hyracks.Tuple{rec})
			}
			return nil
		},
	})
	return b.connect(in, op, in.par, Schema{n.Variable}, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

// ----------------------------------------------------------------------------
// Pipelined operators
// ----------------------------------------------------------------------------

func (b *jobBuilder) buildSelect(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	cond, schema := b.rewritten(n.Condition), in.schema
	bind := envBinder(schema, in.par)
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      "select",
		Partitions: in.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			keep, err := expr.EvalBool(b.ctx, bind(p, t), cond)
			if err != nil {
				return err
			}
			if keep {
				emit(t)
			}
			return nil
		},
	})
	return b.connect(in, op, in.par, schema, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

func (b *jobBuilder) buildAssign(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	vars, inSchema := n.Vars, in.schema
	exprs := make([]aql.Expr, len(n.Exprs))
	for i, e := range n.Exprs {
		exprs[i] = b.rewritten(e)
	}
	outSchema := append(append(Schema{}, inSchema...), vars...)
	bind := envBinder(inSchema, in.par)
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      "assign",
		Partitions: in.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			env := bind(p, t)
			out := make(hyracks.Tuple, len(t), len(t)+len(vars))
			copy(out, t)
			for i, v := range vars {
				val, err := expr.Eval(b.ctx, env, exprs[i])
				if err != nil {
					return err
				}
				env[v] = val // later expressions see earlier assignments
				out = append(out, val)
			}
			emit(out)
			return nil
		},
	})
	return b.connect(in, op, in.par, outSchema, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

// ----------------------------------------------------------------------------
// Joins
// ----------------------------------------------------------------------------

func (b *jobBuilder) buildJoin(n *algebra.Node) (stream, error) {
	left, err := b.build(n.Inputs[0])
	if err != nil {
		return stream{}, err
	}
	method := n.Method
	if (method == algebra.HybridHashJoin || method == algebra.IndexNestedLoop) &&
		(n.LeftKey == nil || n.RightKey == nil) {
		method = algebra.NestedLoopJoin
	}
	if method == algebra.IndexNestedLoop && b.distributed {
		// An index nested-loop probe looks the key up in the locally visible
		// partitions only; on a cluster node that is a subset of the dataset,
		// so degrade to the hybrid hash join, which shuffles both sides by
		// key and stays correct across nodes.
		method = algebra.HybridHashJoin
	}
	if method == algebra.IndexNestedLoop {
		if s, ok, err := b.buildIndexNLJoin(n, left); err != nil || ok {
			return s, err
		}
		// The right side has no usable primary key or index: degrade to a
		// hybrid hash join, like the interpreter's fallback.
		method = algebra.HybridHashJoin
	}
	if method == algebra.HybridHashJoin {
		return b.buildHashJoin(n, left)
	}
	return b.buildNestedLoopJoin(n, left)
}

// keyAssign appends the evaluated join key as a synthetic trailing column so
// partitioning connectors can hash on it. Tuples whose key is NULL or MISSING
// are dropped, matching equijoin semantics.
func (b *jobBuilder) keyAssign(in stream, key aql.Expr, label string) stream {
	inSchema := in.schema
	outSchema := append(append(Schema{}, inSchema...), "#join-key")
	bind := envBinder(inSchema, in.par)
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      label,
		Partitions: in.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			v, err := expr.Eval(b.ctx, bind(p, t), key)
			if err != nil {
				return err
			}
			if adm.IsUnknown(v) {
				return nil // drop: unknown keys never join
			}
			out := make(hyracks.Tuple, len(t), len(t)+1)
			copy(out, t)
			emit(append(out, v))
			return nil
		},
	})
	return b.connect(in, op, in.par, outSchema, hyracks.Connector{Kind: hyracks.OneToOne})
}

// buildHashJoin wires the paper's hybrid hash join: both sides are hash-
// partitioned on the join key (the probe into port 0, the build into port 1)
// so equal keys meet in the same join instance.
func (b *jobBuilder) buildHashJoin(n *algebra.Node, left stream) (stream, error) {
	right, err := b.build(n.Inputs[1])
	if err != nil {
		return stream{}, err
	}
	probe := b.keyAssign(left, n.LeftKey, "assign(probe-key)")
	build := b.keyAssign(right, n.RightKey, "assign(build-key)")
	probeCol, buildCol := len(left.schema), len(right.schema)
	outSchema := append(append(Schema{}, left.schema...), right.schema...)
	join := b.job.Add(&hyracks.HybridHashJoinOp{
		Label:      fmt.Sprintf("join(%s)", algebra.HybridHashJoin),
		Partitions: b.partitions,
		ProbeKey:   func(t hyracks.Tuple) adm.Value { return t[probeCol] },
		BuildKey:   func(t hyracks.Tuple) adm.Value { return t[buildCol] },
		Combine: func(p, bd hyracks.Tuple) hyracks.Tuple {
			out := make(hyracks.Tuple, 0, probeCol+buildCol)
			out = append(out, p[:probeCol]...)
			return append(out, bd[:buildCol]...)
		},
	})
	b.job.Connect(probe.op, join, hyracks.Connector{Kind: hyracks.MToNPartitioning, HashColumns: []int{probeCol}})
	b.job.ConnectPort(build.op, join, 1, hyracks.Connector{Kind: hyracks.MToNPartitioning, HashColumns: []int{buildCol}})
	return stream{op: join, par: b.partitions, schema: outSchema}, nil
}

// buildIndexNLJoin compiles the /*+ indexnl */ join: for every probe tuple it
// looks the join key up in the right dataset's primary index or a secondary
// B+-tree index. It reports ok=false when the right side is not index-
// probeable, in which case the caller degrades to a hash join.
func (b *jobBuilder) buildIndexNLJoin(n *algebra.Node, left stream) (stream, bool, error) {
	rightNode := n.Inputs[1]
	// A positional right scan cannot be replaced by index probes: they emit
	// only matching records, losing the full-scan positions.
	if rightNode.Kind != algebra.OpScan || rightNode.PosVar != "" {
		return stream{}, false, nil
	}
	ds, ok := b.rt.LookupDataset(rightNode.Dataverse, rightNode.Dataset)
	if !ok {
		return stream{}, false, nil
	}
	field, ok := fieldOfVar(n.RightKey, rightNode.Variable)
	if !ok {
		return stream{}, false, nil
	}
	spec := ds.Spec()
	pkProbe := len(spec.PrimaryKey) == 1 && spec.PrimaryKey[0] == field
	indexName := ""
	if !pkProbe {
		ix, found := ds.IndexOnField(field, storage.BTreeIndex)
		if !found {
			return stream{}, false, nil
		}
		indexName = ix.Name
	}
	leftKey, leftSchema := n.LeftKey, left.schema
	outSchema := append(append(Schema{}, left.schema...), rightNode.Variable)
	bind := envBinder(leftSchema, left.par)
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      fmt.Sprintf("join(%s)", algebra.IndexNestedLoop),
		Partitions: left.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			v, err := expr.Eval(b.ctx, bind(p, t), leftKey)
			if err != nil {
				return err
			}
			if adm.IsUnknown(v) {
				return nil
			}
			var matches []*adm.Record
			if pkProbe {
				rec, found, err := ds.LookupPK(v)
				if err != nil {
					return err
				}
				if found {
					matches = []*adm.Record{rec}
				}
			} else {
				matches, err = ds.SearchSecondaryRange(indexName, v, v)
				if err != nil {
					return err
				}
			}
			for _, m := range matches {
				out := make(hyracks.Tuple, len(t), len(t)+1)
				copy(out, t)
				if !emit(append(out, m)) {
					return nil
				}
			}
			return nil
		},
	})
	s := b.connect(left, op, left.par, outSchema, hyracks.Connector{Kind: hyracks.OneToOne})
	return s, true, nil
}

// buildNestedLoopJoin wires the nested-loop (cross product) join: the hybrid
// hash join with no key, so every pair matches. The right side is broadcast
// to every instance as the build input; a residual select above applies any
// non-equi predicate.
func (b *jobBuilder) buildNestedLoopJoin(n *algebra.Node, left stream) (stream, error) {
	right, err := b.build(n.Inputs[1])
	if err != nil {
		return stream{}, err
	}
	outSchema := append(append(Schema{}, left.schema...), right.schema...)
	join := b.job.Add(&hyracks.HybridHashJoinOp{
		Label:      fmt.Sprintf("join(%s)", algebra.NestedLoopJoin),
		Partitions: left.par,
		Combine: func(l, r hyracks.Tuple) hyracks.Tuple {
			out := make(hyracks.Tuple, 0, len(l)+len(r))
			out = append(out, l...)
			return append(out, r...)
		},
	})
	b.job.Connect(left.op, join, hyracks.Connector{Kind: hyracks.OneToOne})
	b.job.ConnectPort(right.op, join, 1, hyracks.Connector{Kind: hyracks.MToNReplicating})
	return stream{op: join, par: left.par, schema: outSchema}, nil
}

// ----------------------------------------------------------------------------
// Group, order, limit
// ----------------------------------------------------------------------------

// buildGroupBy hash-partitions the input on its grouping keys and applies the
// interpreter's group-by semantics within each partition; co-partitioning
// guarantees each group is complete in exactly one instance.
func (b *jobBuilder) buildGroupBy(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	keys := n.GroupKeys
	inSchema := in.schema
	// Synthetic key columns for the shuffle.
	shuffleSchema := append(Schema{}, inSchema...)
	cols := make([]int, len(keys))
	for i := range keys {
		cols[i] = len(inSchema) + i
		shuffleSchema = append(shuffleSchema, fmt.Sprintf("#group-key-%d", i))
	}
	bind := envBinder(inSchema, in.par)
	keyOp := b.job.Add(&hyracks.FlatMapOp{
		Label:      "assign(group-keys)",
		Partitions: in.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			env := bind(p, t)
			out := make(hyracks.Tuple, len(t), len(t)+len(keys))
			copy(out, t)
			for _, k := range keys {
				v, err := expr.Eval(b.ctx, env, k.Expr)
				if err != nil {
					return err
				}
				out = append(out, v)
			}
			emit(out)
			return nil
		},
	})
	keyed := b.connect(in, keyOp, in.par, shuffleSchema, hyracks.Connector{Kind: hyracks.OneToOne})

	// A single-partition input needs no repartitioning: every group is
	// already complete in the one instance, so skip the shuffle.
	groupPar := b.partitions
	groupConn := hyracks.Connector{Kind: hyracks.HashPartitioningShuffle, HashColumns: cols}
	if in.par == 1 {
		groupPar = 1
		groupConn = hyracks.Connector{Kind: hyracks.OneToOne}
	}

	// Fold-as-you-go path: every with-variable consumer is an aggregate call
	// (prepareGroupFold proved it and rewrote the consumers to read the
	// synthetic columns), so the group-by keeps one accumulator per (group,
	// aggregate) and never materializes a bag.
	if b.groupFold != nil && b.groupFold.node == n {
		aggs := make([]hyracks.GroupAgg, 0, len(b.groupFold.specs))
		outSchema := Schema{}
		for _, k := range keys {
			outSchema = append(outSchema, k.Var)
		}
		for _, sp := range b.groupFold.specs {
			col, ok := columnOfVariable(&aql.VariableRef{Name: sp.With}, inSchema)
			if !ok {
				return stream{}, fmt.Errorf("translator: group-by with-variable $%s is not bound", sp.With)
			}
			aggs = append(aggs, hyracks.GroupAgg{Func: sp.Func, Col: col})
			outSchema = append(outSchema, sp.Name)
		}
		groupOp := b.job.Add(&hyracks.HashGroupOp{
			Label:      "hash-group-by(incremental)",
			Partitions: groupPar,
			KeyColumns: cols,
			Aggs:       aggs,
		})
		return b.connect(keyed, groupOp, groupPar, outSchema, groupConn), nil
	}

	// The with-variables' tuple columns, resolved against the input schema.
	withCols := make([]int, len(n.GroupWith))
	for i, w := range n.GroupWith {
		col, ok := columnOfVariable(&aql.VariableRef{Name: w}, inSchema)
		if !ok {
			return stream{}, fmt.Errorf("translator: group-by with-variable $%s is not bound", w)
		}
		withCols[i] = col
	}
	outSchema := Schema{}
	for _, k := range keys {
		outSchema = append(outSchema, k.Var)
	}
	outSchema = append(outSchema, n.GroupWith...)
	// Group over tuples with the library's HashGroupOp: the key values were
	// computed by the assign above (so the shuffle and the grouping agree),
	// and each with-variable becomes the bag of its column's values across
	// the group, exactly the interpreter's applyGroupBy semantics in
	// first-encounter order.
	groupOp := b.job.Add(&hyracks.HashGroupOp{
		Label:      "hash-group-by",
		Partitions: groupPar,
		KeyColumns: cols,
		Reduce: func(key hyracks.Tuple, rows []hyracks.Tuple) (hyracks.Tuple, error) {
			out := make(hyracks.Tuple, 0, len(keys)+len(withCols))
			out = append(out, key...)
			for _, c := range withCols {
				items := make([]adm.Value, len(rows))
				for i, r := range rows {
					items[i] = r[c]
				}
				out = append(out, &adm.OrderedList{Items: items})
			}
			return out, nil
		},
	})
	return b.connect(keyed, groupOp, groupPar, outSchema, groupConn), nil
}

// buildOrder compiles order-by onto the library's SortOp so every sort —
// bare-variable and computed terms alike — gets the external merge sort
// under a memory budget. Bare-variable terms sort existing tuple columns
// directly; other terms are evaluated once per tuple into synthetic trailing
// columns by an assign below the sort, mirroring the interpreter's
// applyOrderBy (keys evaluated once, then a stable adm.Compare sort).
func (b *jobBuilder) buildOrder(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	schema := in.schema
	orderTerms := make([]aql.OrderTerm, len(n.OrderTerms))
	for i, term := range n.OrderTerms {
		orderTerms[i] = aql.OrderTerm{Expr: b.rewritten(term.Expr), Desc: term.Desc}
	}
	colSort := true
	sortCols := make([]int, len(orderTerms))
	sortDesc := make([]bool, len(orderTerms))
	for i, term := range orderTerms {
		col, ok := columnOfVariable(term.Expr, schema)
		if !ok {
			colSort = false
			break
		}
		sortCols[i], sortDesc[i] = col, term.Desc
	}
	sortIn, outSchema := in, schema
	if !colSort {
		terms := orderTerms
		outSchema = append(Schema{}, schema...)
		for i, term := range terms {
			sortCols[i], sortDesc[i] = len(schema)+i, term.Desc
			outSchema = append(outSchema, fmt.Sprintf("#order-key-%d", i))
		}
		bind := envBinder(schema, in.par)
		keyOp := b.job.Add(&hyracks.FlatMapOp{
			Label:      "assign(order-keys)",
			Partitions: in.par,
			Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
				env := bind(p, t)
				out := make(hyracks.Tuple, len(t), len(t)+len(terms))
				copy(out, t)
				for _, term := range terms {
					v, err := expr.Eval(b.ctx, env, term.Expr)
					if err != nil {
						return err
					}
					out = append(out, v)
				}
				emit(out)
				return nil
			},
		})
		sortIn = b.connect(in, keyOp, in.par, outSchema, hyracks.Connector{Kind: hyracks.OneToOne})
	}
	op := b.job.Add(&hyracks.SortOp{
		Label:      "sort",
		Partitions: 1,
		Columns:    sortCols,
		Desc:       sortDesc,
	})
	// The synthetic key columns ride along in the output schema; downstream
	// operators resolve variables by name, so the extra trailing columns are
	// inert.
	return b.connect(sortIn, op, 1, outSchema, gatherConnector(sortIn.par)), nil
}

// buildLimit compiles the limit clause onto the library's cancelling
// LimitOp. Limit and offset expressions never see tuple bindings (the
// interpreter's applyLimit evaluates them in an empty environment too), so
// they are folded to constants here at build time.
//
// When the limit sits directly above a scan (possibly through assign
// operators, which are exactly one-to-one), the bound offset+limit is pushed
// into the scan itself: each partition's scan stops emitting at the bound
// instead of overrunning by a frame until cancellation propagates back.
// Selects, unnests, joins and blocking operators between the limit and the
// scan block the pushdown — they change cardinality, so the scan cannot know
// how many records the limit needs.
func (b *jobBuilder) buildLimit(n *algebra.Node) (stream, error) {
	limV, err := expr.Eval(b.ctx, expr.Env{}, n.LimitExpr)
	if err != nil {
		return stream{}, err
	}
	lim, ok := adm.NumericAsInt64(limV)
	if !ok {
		return stream{}, fmt.Errorf("translator: limit must be numeric")
	}
	offset := int64(0)
	if n.OffsetExpr != nil {
		offV, err := expr.Eval(b.ctx, expr.Env{}, n.OffsetExpr)
		if err != nil {
			return stream{}, err
		}
		offset, _ = adm.NumericAsInt64(offV)
	}
	// Push the bound down only when offset+limit is sane: a huge limit used
	// as an "unbounded" idiom could overflow the sum (or an int on 32-bit
	// platforms) into a scan-nothing bound, and gains nothing from pushdown.
	if bound := max(lim, 0) + max(offset, 0); bound >= 0 && bound <= 1<<31-1 {
		if scan := limitPushdownScan(n); scan != nil {
			if b.scanBounds == nil {
				b.scanBounds = map[*algebra.Node]int{}
			}
			b.scanBounds[scan] = int(bound)
		}
	}
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	op := b.job.Add(&hyracks.LimitOp{
		Label:      "limit",
		Partitions: 1,
		N:          int(max(lim, 0)),
		Offset:     int(max(offset, 0)),
	})
	return b.connect(in, op, 1, in.schema, gatherConnector(in.par)), nil
}

// limitPushdownScan walks from a limit node toward its source and returns
// the scan the bound may be pushed into, or nil when any operator on the way
// is not exactly one-to-one (a select drops tuples, an unnest multiplies
// them, joins and blocking operators reshape the stream entirely).
func limitPushdownScan(n *algebra.Node) *algebra.Node {
	if len(n.Inputs) != 1 {
		return nil
	}
	cur := n.Inputs[0]
	for cur != nil {
		switch cur.Kind {
		case algebra.OpAssign:
			if len(cur.Inputs) != 1 {
				return nil
			}
			cur = cur.Inputs[0]
		case algebra.OpScan:
			return cur
		default:
			return nil
		}
	}
	return nil
}

// ----------------------------------------------------------------------------
// Aggregation
// ----------------------------------------------------------------------------

// aggSchema is the synthetic single-column schema aggregate results flow in.
var aggSchema = Schema{"#agg"}

// aggFold builds an AggregateOp's streaming fold on the hyracks aggregate
// kernel, the same accumulator HashGroupOp folds per group. With a return
// expression the step evaluates it over each binding tuple and folds the
// value (the local half of the split, and the unsplit aggregate); without one
// the input tuples are the partitions' encoded partials and the step merges
// them (the global half). finish emits the encoded accumulator when the fold
// is a partial, the finished value otherwise. Each instance run gets fresh
// state and its own binding environment, so parallel partitions never share.
func (b *jobBuilder) aggFold(name string, ret aql.Expr, schema Schema, partial bool) func() (func(hyracks.Tuple) error, func() (hyracks.Tuple, error)) {
	fn, _ := hyracks.ParseAggFn(name) // Compile wraps only the names it accepts
	return func() (func(hyracks.Tuple) error, func() (hyracks.Tuple, error)) {
		var acc hyracks.AggAccum
		step := func(t hyracks.Tuple) error {
			part, err := hyracks.DecodeAccum(t)
			if err != nil {
				return err
			}
			acc.Merge(fn, &part)
			return nil
		}
		if ret != nil {
			env := make(expr.Env, len(schema)+1)
			step = func(t hyracks.Tuple) error {
				bindInto(env, schema, t)
				v, err := expr.Eval(b.ctx, env, ret)
				if err != nil {
					return err
				}
				acc.Fold(fn, v)
				return nil
			}
		}
		finish := func() (hyracks.Tuple, error) {
			if partial {
				return acc.Encode(nil), nil
			}
			return hyracks.Tuple{acc.Finish(fn)}, nil
		}
		return step, finish
	}
}

func (b *jobBuilder) buildLocalAgg(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	if b.query == nil {
		return stream{}, fmt.Errorf("translator: aggregate plan has no source query")
	}
	op := b.job.Add(&hyracks.AggregateOp{
		Label:      fmt.Sprintf("aggregate(local-%s)", n.AggFunc),
		Partitions: in.par,
		NewFold:    b.aggFold(n.AggFunc, b.rewritten(b.query.Return), in.schema, true),
	})
	return b.connect(in, op, in.par, aggSchema, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

func (b *jobBuilder) buildGlobalAgg(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	op := b.job.Add(&hyracks.AggregateOp{
		Label:      fmt.Sprintf("aggregate(global-%s)", n.AggFunc),
		Partitions: 1,
		NewFold:    b.aggFold(n.AggFunc, nil, nil, false),
	})
	// The n:1 replicating connector of Figure 6 gathers the partials.
	return b.connect(in, op, 1, aggSchema, hyracks.Connector{Kind: hyracks.MToNReplicating}), nil
}

// buildAggregate is the unsplit aggregate (ablation path): gather everything
// into one instance and fold it there.
func (b *jobBuilder) buildAggregate(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	if b.query == nil {
		return stream{}, fmt.Errorf("translator: aggregate plan has no source query")
	}
	op := b.job.Add(&hyracks.AggregateOp{
		Label:      fmt.Sprintf("aggregate(%s)", n.AggFunc),
		Partitions: 1,
		NewFold:    b.aggFold(n.AggFunc, b.rewritten(b.query.Return), in.schema, false),
	})
	return b.connect(in, op, 1, aggSchema, gatherConnector(in.par)), nil
}

// ----------------------------------------------------------------------------
// Distribute
// ----------------------------------------------------------------------------

// buildDistribute caps the job: for ordinary queries it evaluates the FLWOR's
// return expression over each binding tuple; for aggregate-wrapped plans the
// aggregate value passes through unchanged. An input-less distribute is a
// constant query: its expression is evaluated once over the empty tuple.
func (b *jobBuilder) buildDistribute(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	aggregated := len(n.Inputs) > 0 &&
		(n.Inputs[0].Kind == algebra.OpGlobalAgg || n.Inputs[0].Kind == algebra.OpAggregate)
	if !aggregated && b.query == nil {
		return stream{}, fmt.Errorf("translator: plan has no source query for distribute-result")
	}
	var fn func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error
	switch {
	case aggregated:
		// The aggregate value already sits alone in column 0.
	default:
		ret, schema := b.rewritten(b.query.Return), in.schema
		if col, ok := columnOfVariable(ret, schema); ok {
			// "return $m" needs no evaluation: project the column. A width-1
			// tuple is already in result layout and passes through untouched.
			if col != 0 || len(schema) != 1 {
				fn = func(_ int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
					emit(hyracks.Tuple{t[col]})
					return nil
				}
			}
			break
		}
		if fa, ok := ret.(*aql.FieldAccess); ok {
			if col, ok := columnOfVariable(fa.Base, schema); ok {
				// "return $x.field" resolves the field straight off the tuple
				// column — for a lazy record, one slot lookup in the byte slab
				// — skipping environment binding and expression dispatch.
				mk := tupleAllocator(in.par)
				name, field := schema[col], fa.Field
				fn = func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
					if col >= len(t) || t[col] == nil {
						return fmt.Errorf("expr: unbound variable $%s", name)
					}
					emit(mk(p, expr.FieldOf(t[col], field)))
					return nil
				}
				break
			}
		}
		bind := envBinder(schema, in.par)
		mk := tupleAllocator(in.par)
		fn = func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			v, err := expr.Eval(b.ctx, bind(p, t), ret)
			if err != nil {
				return err
			}
			emit(mk(p, v))
			return nil
		}
	}
	var op int
	if fn == nil {
		op = b.job.Add(&hyracks.PassthroughOp{Label: "distribute-result", Partitions: in.par})
	} else {
		op = b.job.Add(&hyracks.FlatMapOp{
			Label:      "distribute-result",
			Partitions: in.par,
			Fn:         fn,
		})
	}
	return b.connect(in, op, in.par, Schema{"#result"}, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

// columnOfVariable reports the tuple column a bare variable-reference
// expression reads from; later schema columns shadow earlier ones, like
// environment binding order.
func columnOfVariable(e aql.Expr, schema Schema) (int, bool) {
	vr, ok := e.(*aql.VariableRef)
	if !ok {
		return 0, false
	}
	for i := len(schema) - 1; i >= 0; i-- {
		if schema[i] == vr.Name {
			return i, true
		}
	}
	return 0, false
}

// fieldOfVar recognizes expressions of the form $var.field and returns the
// field name.
func fieldOfVar(e aql.Expr, variable string) (string, bool) {
	fa, ok := e.(*aql.FieldAccess)
	if !ok {
		return "", false
	}
	vr, ok := fa.Base.(*aql.VariableRef)
	if !ok || vr.Name != variable {
		return "", false
	}
	return fa.Field, true
}
