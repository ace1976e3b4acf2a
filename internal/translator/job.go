package translator

import (
	"fmt"
	"math"
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
	// operator, the secondary-index path's primary-key sort included, as its
	// own goroutine-per-partition instance (the pre-fusion execution shape,
	// kept for differential testing and benchmarking).
	DisableFusion bool
}

// BuildJob converts an optimized physical plan into an executable Hyracks
// job: every operator in the returned job carries a runnable closure over the
// runtime's storage partitions and the expression evaluator, wired with the
// connector structure of Figure 6. Every access path compiles to partitioned
// operators: B+-tree, R-tree, and inverted-index secondary searches each run
// as per-partition secondary-search -> PK-sort -> primary-search stages whose
// instance p touches only storage partition p (see buildProbe), so the same
// job is correct in one process and on a cluster; a Metadata or external
// dataset is one source instance, correlated subplan sources (for $y in
// $x.list) compile to an unnest operator, and positional variables (for $v at
// $i in ...) compile to position-tagging sources (see buildScan). BuildJob
// reports an error only for plans that genuinely have no physical operator;
// the engine surfaces those as typed "unplannable" errors.
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
		job:        &hyracks.Job{},
		rt:         rt,
		partitions: opts.Partitions,
		ctx:        rt.EvalContext(),
		query:      plan.Query,
	}
	// Decide which of the plan's group-by with-variables fold to aggregates
	// and which are listify bags; the consumers' evaluators pick up the
	// resulting expression rewrites.
	b.prepareGroupFold(plan)
	if _, err := b.buildDistribute(plan.Root); err != nil {
		return nil, err
	}
	assignMemoryBudget(b.job, opts)
	job := b.job
	if !opts.DisableFusion {
		// Collapse one-to-one chains (scan -> select -> assign -> distribute,
		// limit tails at parallelism 1, and the secondary-index path through
		// its primary-key sort) into single fused operators: one goroutine
		// and zero frame handoffs per chain instance.
		job = hyracks.FuseJob(job)
	}
	return job, nil
}

// assignMemoryBudget divides the job's memory budget evenly among the
// instances of its spillable blocking operators (whichever hyracks.NeedsShare
// names) and attaches the job's spill manager, which accounts their resident
// bytes whatever the budget (zero is an unlimited share: runfile never
// reports it full). It also derives the job frame size from the budget so
// channel buffering scales down with it.
func assignMemoryBudget(job *hyracks.Job, opts JobOptions) {
	job.FrameSize = hyracks.FrameSizeForBudget(opts.MemoryBudget)
	var budgeted []hyracks.SpillBudgeted
	instances := 0
	for _, op := range job.Operators {
		if sb, ok := hyracks.NeedsShare(op); ok {
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
	job        *hyracks.Job
	rt         Runtime
	partitions int
	ctx        *expr.Context
	query      *aql.FLWORExpr
	// scanBounds holds per-scan emit bounds pushed down from a limit clause
	// (offset+limit per partition): buildLimit records them before building
	// its input, and buildScan caps each partition's scan accordingly.
	scanBounds map[*algebra.Node]int
	// groupFold is the aggregate plan for the group-by nearest the plan's
	// root (nil when no such group-by was analysed), and exprRewrites maps
	// consumer expressions to their fold-rewritten forms (agg calls over
	// with-variables replaced by synthetic column references). See
	// groupfold.go.
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

// tupleBlock is the number of single-column tuples that share one backing
// allocation in tupleAllocator and the datasource scan.
const tupleBlock = 512

// tupleBlockMin is the size of a partition's first tupleAllocator block; each
// later block doubles it up to tupleBlock, so a partition that emits one row
// pays for a few slots, not 512.
const tupleBlockMin = 8

// tupleAllocator returns a per-instance maker of one-column tuples packed
// into shared blocks: one backing allocation per block of tuples instead of
// one per tuple. Each slot is written exactly once and the three-index cap
// keeps a downstream append from aliasing the next tuple. Instances must call
// it only from their own partition p, which is the operator contract anyway.
func tupleAllocator(par int) func(p int, v adm.Value) hyracks.Tuple {
	blks := make([][]adm.Value, par)
	return func(p int, v adm.Value) hyracks.Tuple {
		blk := blks[p]
		if len(blk) == cap(blk) {
			blk = make([]adm.Value, 0, max(tupleBlockMin, min(2*cap(blk), tupleBlock)))
		}
		blk = append(blk, v)
		blks[p] = blk
		i := len(blk) - 1
		return hyracks.Tuple(blk[i : i+1 : i+1])
	}
}

func (b *jobBuilder) build(n *algebra.Node) (stream, error) {
	switch n.Kind {
	case algebra.OpScan:
		return b.buildScan(n)
	case algebra.OpSubplan, algebra.OpUnnest:
		return b.buildUnnest(n, fmt.Sprintf("unnest($%s)", n.Variable))
	case algebra.OpIndexSearch:
		return b.buildIndexSearch(n)
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
		return b.buildOrder(n, 0)
	case algebra.OpLimit:
		return b.buildLimit(n)
	case algebra.OpLocalAgg, algebra.OpGlobalAgg, algebra.OpAggregate:
		return b.buildAggregate(n)
	}
	return stream{}, fmt.Errorf("translator: no executable operator for %s", n.Kind)
}

// buildInput builds the node's primary input, or a constant single-empty-
// tuple source for input-less operators (queries that begin with let
// clauses, and constant queries with no clauses at all).
func (b *jobBuilder) buildInput(n *algebra.Node) (stream, error) {
	if len(n.Inputs) == 0 || n.Inputs[0] == nil {
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

// buildScan compiles a dataset source. A stored dataset is one scan instance
// per storage partition. A Metadata or external dataset has no storage
// partitions: one source instance streams its records when the job runs,
// numbering them for a positional variable, and an unknown one surfaces its
// error then, as in the oracle evaluator (internal/expr/oracle). A
// pushed-down limit bound stops each instance at exactly offset+limit emitted
// records, instead of overrunning by a frame until the limit's upstream
// cancellation arrives.
func (b *jobBuilder) buildScan(n *algebra.Node) (stream, error) {
	bound, bounded := b.scanBounds[n]
	ds, stored := b.rt.LookupDataset(n.Dataverse, n.Dataset)
	if stored && n.PosVar != "" {
		return b.buildPositionalScan(n, bound, bounded, ds)
	}
	par, schema := b.partitions, Schema{n.Variable}
	scan := func(p int, visit func(adm.Value) bool) error { return ds.ScanPartition(p, visit) }
	if !stored {
		rt, dataverse, name := b.rt, n.Dataverse, n.Dataset
		scan = func(_ int, visit func(adm.Value) bool) error {
			return rt.ScanDataset(dataverse, name, func(rec *adm.Record) bool { return visit(rec) })
		}
		par = 1
		if n.PosVar != "" {
			schema = append(schema, n.PosVar)
		}
	}
	mk := tupleAllocator(par)
	op := b.job.Add(&hyracks.SourceOp{
		Label:      fmt.Sprintf("datasource-scan(%s)", n.Dataset),
		Partitions: par,
		Produce: func(p int, emit func(hyracks.Tuple) bool) error {
			emitted := 0
			return scan(p, func(rec adm.Value) bool {
				if bounded && emitted >= bound {
					return false
				}
				emitted++
				if len(schema) > 1 {
					return emit(hyracks.Tuple{rec, adm.Int64(emitted)})
				}
				return emit(mk(p, rec))
			})
		},
	})
	return stream{op: op, par: par, schema: schema}, nil
}

// buildPositionalScan compiles `for $v at $i in dataset D`: the oracle
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

// buildUnnest compiles a subplan source (for $y in $x.list): for every
// input tuple it evaluates the source expression under the tuple's bindings
// and emits one widened tuple per item, mirroring the oracle's for-clause
// semantics (an unknown source contributes nothing; a non-list source
// contributes itself). A source with no input unnests the one empty tuple, so
// it is evaluated once and a positional variable counts its items.
func (b *jobBuilder) buildUnnest(n *algebra.Node, label string) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	outSchema := append(append(Schema{}, in.schema...), n.Variable)
	if n.PosVar != "" {
		// `for $y at $i in $x.list`: the position restarts at 1 for every
		// input tuple, exactly the oracle's per-binding iteration.
		outSchema = append(outSchema, n.PosVar)
	}
	posVar := n.PosVar
	src := b.evaluator(n.Exprs[0], in.schema)
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      label,
		Partitions: in.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			v, err := src.eval(t)
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

// pkColumn is the synthetic column encoded primary keys flow in between the
// stages of the secondary-index access path.
const pkColumn = "#pk"

// buildProbe builds the probing stage of an access path: one instance per
// storage partition, each evaluating the probe expressions and handing the
// values to search, which probes its own partition p of the dataset and emits
// what it finds in a trailing column named out. Instance p only ever touches
// partition p, so the stage is placed with its data on a cluster.
//
// A node with no input is a source: the probe is evaluated once per job, in
// the empty environment, and shared by every instance (a volatile bound such
// as current-datetime() must not make the instances search different ranges).
// A node with an input (the index nested-loop join) evaluates the probe
// against each input tuple and carries the tuple's columns along. The input
// is replicated to every instance, the paper's broadcast index join, because
// the matches of one outer tuple may live in any partition — unless the probe
// is keyed: probes[0] is then the inner primary key, and the tuple is hash-
// routed on it to the one instance whose partition owns that key. The
// partitioning connector hashes adm.EncodeKey of the column, which is how
// storage places a record by its one-field primary key.
func (b *jobBuilder) buildProbe(n *algebra.Node, label, out string, probes []aql.Expr, keyed bool,
	search func(ds *storage.Dataset, p int, vals []adm.Value, emit func(adm.Value) bool) error) (stream, error) {
	ds, ok := b.rt.LookupDataset(n.Dataverse, n.Dataset)
	if !ok {
		return stream{}, fmt.Errorf("translator: dataset %q has no stored partitions for %s", n.Dataset, label)
	}
	// evalProbes evaluates the present probe expressions with eval.
	evalProbes := func(eval func(i int) (adm.Value, error)) ([]adm.Value, error) {
		vals := make([]adm.Value, len(probes))
		for i, e := range probes {
			if e == nil {
				continue
			}
			var err error
			if vals[i], err = eval(i); err != nil {
				return nil, err
			}
		}
		return vals, nil
	}
	if len(n.Inputs) == 0 {
		constants := sync.OnceValues(func() ([]adm.Value, error) {
			return evalProbes(func(i int) (adm.Value, error) { return b.constant(probes[i]) })
		})
		op := b.job.Add(&hyracks.SourceOp{
			Label:      label,
			Partitions: b.partitions,
			Produce: func(p int, emit func(hyracks.Tuple) bool) error {
				vals, err := constants()
				if err != nil {
					return err
				}
				return search(ds, p, vals, func(v adm.Value) bool { return emit(hyracks.Tuple{v}) })
			},
		})
		return stream{op: op, par: b.partitions, schema: Schema{out}}, nil
	}
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return stream{}, err
	}
	keep := len(in.schema) // the outer tuple's columns, carried along
	conn := hyracks.Connector{Kind: hyracks.MToNReplicating}
	if keyed {
		// As in the hash join, the evaluated key rides as a synthetic trailing
		// column the connector hashes on; an unknown key joins nothing.
		in = b.assign(in, "assign(probe-key)", []string{"#probe-key"}, probes[:1], true)
		probes = []aql.Expr{&aql.VariableRef{Name: "#probe-key"}}
		conn = hyracks.Connector{Kind: hyracks.MToNPartitioning, HashColumns: []int{keep}}
	}
	evs := make([]*evaluator, len(probes))
	for i, e := range probes {
		if e != nil {
			evs[i] = b.evaluator(e, in.schema)
		}
	}
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      label,
		Partitions: b.partitions,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			vals, err := evalProbes(func(i int) (adm.Value, error) { return evs[i].eval(t) })
			if err != nil {
				return err
			}
			return search(ds, p, vals, func(v adm.Value) bool {
				row := make(hyracks.Tuple, keep, keep+1)
				copy(row, t)
				return emit(append(row, v))
			})
		},
	})
	schema := append(append(Schema{}, in.schema[:keep]...), out)
	return b.connect(in, op, b.partitions, schema, conn), nil
}

// buildIndexSearch is the first stage of the compiled secondary-index access
// path for every index kind: each instance searches its partition-local index
// and emits the candidate encoded primary keys (for an R-tree or inverted
// index a conservative superset; the select above post-validates the exact
// predicate). The PK sort and primary search stages above run per-partition
// too, so the whole access path executes at full parallelism. How a probe
// value maps to candidates — and that an unknown or wrongly typed one matches
// nothing — is the storage layer's knowledge.
func (b *jobBuilder) buildIndexSearch(n *algebra.Node) (stream, error) {
	index, ok := b.rt.LookupIndex(n.Dataverse, n.Dataset, n.Index)
	if !ok {
		return stream{}, fmt.Errorf("translator: no index %q on %q", n.Index, n.Dataset)
	}
	label := fmt.Sprintf("%s(%s)", n.IndexKind.SearchName(), n.Index)
	return b.buildProbe(n, label, pkColumn, []aql.Expr{n.LoExpr, n.HiExpr, n.ProbeExpr}, false,
		func(_ *storage.Dataset, p int, vals []adm.Value, emit func(adm.Value) bool) error {
			probe := storage.Probe{Lo: vals[0], Hi: vals[1], Value: vals[2]}
			return index.SearchPartition(p, probe, func(pk []byte) bool { return emit(adm.Binary(pk)) })
		})
}

// buildSortPK compiles the sort between the secondary and primary index
// searches: a per-partition blocking sort on the encoded primary keys, which
// turns the primary-search stage's lookups into a sequential access pattern.
// Its one-to-one edges let FuseJob run it inside the access path's chain:
// the secondary search, the sort and the primary search share one
// goroutine per partition.
func (b *jobBuilder) buildSortPK(n *algebra.Node) (stream, error) {
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return stream{}, err
	}
	col, _ := in.schema.column(pkColumn) // the search below always emits it
	op := b.job.Add(&hyracks.SortOp{
		Label:      "sort(primary-keys)",
		Partitions: in.par,
		Columns:    []int{col},
	})
	return b.connect(in, op, in.par, in.schema, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

// buildPrimarySearch compiles the primary-index search stage. Above a
// secondary search each instance resolves the encoded primary keys flowing
// from its partition's secondary index against the same partition's primary
// B+-tree (secondary indexes are co-located with their records, so instance p
// only ever touches partition p) and replaces the key column by the fetched
// record. A primary search that carries its own probe is a probing stage
// itself. With no input it is a select's key-equality source: each instance
// fetches the one key `=` can match if its partition owns it. Below a join on
// the inner primary key it is keyed: each outer tuple reaches the partition
// that owns its key value and costs one fetch there.
func (b *jobBuilder) buildPrimarySearch(n *algebra.Node) (stream, error) {
	label := fmt.Sprintf("btree-search(%s)", n.Dataset)
	if n.LoExpr != nil && len(n.Inputs) == 0 {
		return b.buildProbe(n, label, n.Variable, []aql.Expr{n.LoExpr}, false,
			func(ds *storage.Dataset, p int, vals []adm.Value, emit func(adm.Value) bool) error {
				return ds.FetchEqualPartition(p, vals[0], emit)
			})
	}
	if n.LoExpr != nil {
		return b.buildProbe(n, label, n.Variable, []aql.Expr{n.LoExpr}, true,
			func(ds *storage.Dataset, p int, vals []adm.Value, emit func(adm.Value) bool) error {
				rec, found, err := ds.FetchPKPartition(p, adm.EncodeKey(nil, vals[0]))
				if found {
					emit(rec)
				}
				return err
			})
	}
	in, err := b.build(n.Inputs[0])
	if err != nil {
		return stream{}, err
	}
	ds, ok := b.rt.LookupDataset(n.Dataverse, n.Dataset)
	if !ok {
		return stream{}, fmt.Errorf("translator: dataset %q has no stored partitions for primary search", n.Dataset)
	}
	col, _ := in.schema.column(pkColumn)
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      label,
		Partitions: in.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			pk, ok := t[col].(adm.Binary)
			if !ok {
				return fmt.Errorf("translator: primary search expected an encoded key, got %s", t[col].Tag())
			}
			rec, found, err := ds.FetchPKPartition(p, pk)
			if err != nil {
				return err
			}
			if found {
				// The tuple is this operator's alone (the search or the sort
				// below made it), so the key column is overwritten in place.
				t[col] = rec
				emit(t)
			}
			return nil
		},
	})
	schema := append(append(Schema{}, in.schema[:col]...), n.Variable)
	return b.connect(in, op, in.par, schema, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

// ----------------------------------------------------------------------------
// Pipelined operators
// ----------------------------------------------------------------------------

func (b *jobBuilder) buildSelect(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	cond := b.evaluator(n.Condition, in.schema)
	op := b.job.Add(&hyracks.FlatMapOp{
		Label:      "select",
		Partitions: in.par,
		Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
			v, err := cond.eval(t)
			if err != nil {
				return err
			}
			// NULL, MISSING and non-booleans are false: where-clause semantics.
			if adm.Truthy(v) {
				emit(t)
			}
			return nil
		},
	})
	return b.connect(in, op, in.par, in.schema, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}

func (b *jobBuilder) buildAssign(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	return b.assign(in, "assign", n.Vars, n.Exprs, false), nil
}

// ----------------------------------------------------------------------------
// Joins
// ----------------------------------------------------------------------------

// buildJoin wires the one join operator. An equijoin is the paper's hybrid
// hash join: both sides are hash-partitioned on the join key (the probe into
// port 0, the build into port 1) so equal keys meet in the same join
// instance; the evaluated key rides as a synthetic trailing column the
// partitioning connectors hash on, and a build tuple whose key is unknown
// never joins. Any other join is the nested-loop (cross product) join, the
// same operator with no key, so every pair matches: the right side is
// broadcast to every instance as the build input, and a residual select
// above applies any non-equi predicate.
//
// A nest join (n.Nest) is the same operator in its nest mode: each probe
// tuple leaves once, extended by the Nest column, an ordered list of its
// matches' values of the build column of that name. Its probe tuples keep an
// unknown key, which matches nothing and so gets the empty list; a nil probe
// input is the one empty tuple.
func (b *jobBuilder) buildJoin(n *algebra.Node) (stream, error) {
	left, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	right, err := b.build(n.Inputs[1])
	if err != nil {
		return stream{}, err
	}
	probeCol, buildCol := len(left.schema), len(right.schema)
	outSchema := append(append(Schema{}, left.schema...), right.schema...)
	kind := "join"
	join := &hyracks.HybridHashJoinOp{
		Partitions: left.par,
		Combine: func(p, bd hyracks.Tuple) hyracks.Tuple {
			out := make(hyracks.Tuple, 0, probeCol+buildCol)
			out = append(out, p[:probeCol]...)
			return append(out, bd[:buildCol]...)
		},
	}
	if n.Nest != "" {
		kind, join.Combine = "nest-join", nil
		outSchema = append(append(Schema{}, left.schema...), n.Nest)
		col, _ := right.schema.column(n.Nest)
		join.Nest = func(p hyracks.Tuple, matches []hyracks.Tuple) hyracks.Tuple {
			items := make([]adm.Value, len(matches))
			for i, m := range matches {
				items[i] = m[col]
			}
			out := make(hyracks.Tuple, 0, probeCol+1)
			out = append(out, p[:probeCol]...)
			return append(out, &adm.OrderedList{Items: items})
		}
	}
	method := algebra.NestedLoopJoin
	probeConn := hyracks.Connector{Kind: hyracks.OneToOne}
	buildConn := hyracks.Connector{Kind: hyracks.MToNReplicating}
	if n.Method == algebra.HybridHashJoin && n.LeftKey != nil && n.RightKey != nil {
		method = algebra.HybridHashJoin
		left = b.assign(left, "assign(probe-key)", []string{"#join-key"}, []aql.Expr{n.LeftKey}, n.Nest == "")
		right = b.assign(right, "assign(build-key)", []string{"#join-key"}, []aql.Expr{n.RightKey}, true)
		join.Partitions = b.partitions
		join.ProbeKey = func(t hyracks.Tuple) adm.Value { return t[probeCol] }
		join.BuildKey = func(t hyracks.Tuple) adm.Value { return t[buildCol] }
		probeConn = hyracks.Connector{Kind: hyracks.MToNPartitioning, HashColumns: []int{probeCol}}
		buildConn = hyracks.Connector{Kind: hyracks.MToNPartitioning, HashColumns: []int{buildCol}}
	}
	join.Label = fmt.Sprintf("%s(%s)", kind, method)
	op := b.job.Add(join)
	b.job.Connect(left.op, op, probeConn)
	b.job.ConnectPort(right.op, op, 1, buildConn)
	return stream{op: op, par: join.Partitions, schema: outSchema}, nil
}

// ----------------------------------------------------------------------------
// Group, order, limit
// ----------------------------------------------------------------------------

// buildGroupBy hash-partitions the input on its grouping keys and folds each
// group: co-partitioning guarantees each group is complete in exactly one
// instance. Each output column after the keys is one of the group's
// aggregates — an aggregate call over a with-variable that prepareGroupFold
// rewrote to read it, or the with-variable itself as its listify bag, in
// first-encounter order as the oracle's group-by clause builds it.
func (b *jobBuilder) buildGroupBy(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	keys, inSchema := n.GroupKeys, in.schema
	// The evaluated keys ride as synthetic trailing columns, so the shuffle
	// and the grouping agree on them.
	cols := make([]int, len(keys))
	names := make([]string, len(keys))
	exprs := make([]aql.Expr, len(keys))
	outSchema := Schema{}
	for i, k := range keys {
		cols[i] = len(inSchema) + i
		names[i] = fmt.Sprintf("#group-key-%d", i)
		exprs[i] = k.Expr
		outSchema = append(outSchema, k.Var)
	}
	keyed := b.assign(in, "assign(group-keys)", names, exprs, false)
	var aggs []hyracks.GroupAgg
	for _, sp := range b.foldSpecs(n) {
		col, ok := inSchema.column(sp.With)
		if !ok {
			return stream{}, fmt.Errorf("translator: group-by with-variable $%s is not bound", sp.With)
		}
		aggs = append(aggs, hyracks.GroupAgg{Func: sp.Func, Col: col})
		outSchema = append(outSchema, sp.Name)
	}

	// A single-partition input needs no repartitioning: every group is
	// already complete in the one instance, so skip the shuffle.
	groupPar := b.partitions
	groupConn := hyracks.Connector{Kind: hyracks.MToNPartitioning, HashColumns: cols}
	if in.par == 1 {
		groupPar = 1
		groupConn = hyracks.Connector{Kind: hyracks.OneToOne}
	}
	groupOp := b.job.Add(&hyracks.HashGroupOp{
		Label:      "hash-group-by",
		Partitions: groupPar,
		KeyColumns: cols,
		Aggs:       aggs,
	})
	return b.connect(keyed, groupOp, groupPar, outSchema, groupConn), nil
}

// buildOrder compiles order-by onto the library's SortOp so every sort —
// bare-variable and computed terms alike — gets the external merge sort
// under a memory budget. Bare-variable terms sort existing tuple columns
// directly; other terms are evaluated once per tuple into synthetic trailing
// columns by an assign below the sort, mirroring the oracle's order-by
// clause (keys evaluated once, then a stable adm.Compare sort). A
// positive limit is the bound of a limit clause directly above: the sort
// keeps and emits only that many rows.
func (b *jobBuilder) buildOrder(n *algebra.Node, limit int) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	schema := in.schema
	colSort := true
	sortCols := make([]int, len(n.OrderTerms))
	sortDesc := make([]bool, len(n.OrderTerms))
	for i, term := range n.OrderTerms {
		col, ok := b.evaluator(term.Expr, schema).column()
		colSort = colSort && ok
		sortCols[i], sortDesc[i] = col, term.Desc
	}
	sortIn := in
	if !colSort {
		names := make([]string, len(n.OrderTerms))
		exprs := make([]aql.Expr, len(n.OrderTerms))
		for i, term := range n.OrderTerms {
			sortCols[i] = len(schema) + i
			names[i] = fmt.Sprintf("#order-key-%d", i)
			exprs[i] = term.Expr
		}
		sortIn = b.assign(in, "assign(order-keys)", names, exprs, false)
	}
	label := "sort"
	if limit > 0 {
		label = fmt.Sprintf("sort (limit %d)", limit)
	}
	op := b.job.Add(&hyracks.SortOp{
		Label:      label,
		Partitions: 1,
		Columns:    sortCols,
		Desc:       sortDesc,
		Limit:      limit,
	})
	// The synthetic key columns ride along in the output schema; downstream
	// operators resolve variables by name, so the extra trailing columns are
	// inert.
	return b.connect(sortIn, op, 1, sortIn.schema, gatherConnector(sortIn.par)), nil
}

// buildLimit compiles the limit clause onto the library's cancelling
// LimitOp. Limit and offset expressions never see tuple bindings, so
// expr.LimitBounds folds them to constants here at build time, as a nested
// FLWOR's limit clause folds its own.
//
// When the limit sits directly above a scan (possibly through assign
// operators, which are exactly one-to-one), the bound offset+limit is pushed
// into the scan itself: each partition's scan stops emitting at the bound
// instead of overrunning by a frame until cancellation propagates back.
// Selects, unnests, joins and blocking operators between the limit and the
// scan block the pushdown — they change cardinality, so the scan cannot know
// how many records the limit needs.
func (b *jobBuilder) buildLimit(n *algebra.Node) (stream, error) {
	lim, offset, err := expr.LimitBounds(b.ctx, n.LimitExpr, n.OffsetExpr)
	if err != nil {
		return stream{}, err
	}
	// Push the bound down only when offset+limit is sane: a huge limit used
	// as an "unbounded" idiom could overflow the sum (or an int on 32-bit
	// platforms) into a scan-nothing bound, and gains nothing from pushdown.
	// An order directly below keeps only the bound's rows; the limit above it
	// still skips the offset.
	bound := lim + offset
	sane := bound >= 0 && bound <= 1<<31-1
	if scan := limitPushdownScan(n); scan != nil && sane {
		if b.scanBounds == nil {
			b.scanBounds = map[*algebra.Node]int{}
		}
		b.scanBounds[scan] = int(bound)
	}
	var in stream
	if len(n.Inputs) == 1 && n.Inputs[0].Kind == algebra.OpOrder && sane && bound > 0 {
		in, err = b.buildOrder(n.Inputs[0], int(bound))
	} else {
		in, err = b.buildInput(n)
	}
	if err != nil {
		return stream{}, err
	}
	op := b.job.Add(&hyracks.LimitOp{
		Label:      "limit",
		Partitions: 1,
		N:          int(min(lim, math.MaxInt)),
		Offset:     int(min(offset, math.MaxInt)),
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

// aggSchema is the synthetic single-column schema aggregate results flow in
// (a local stage's accumulator tuples are read by position, not by name).
var aggSchema = Schema{"#agg"}

// buildAggregate compiles a scalar aggregate as a keyless fold, in the node's
// stage of Figure 6's split: the return expression's value is assigned to a
// column (unless it already is one) and a keyless HashGroupOp folds it. The
// local stage runs per partition and emits its accumulator; the n:1
// replicating connector gathers the partials into the one global instance,
// which merges them. The unsplit aggregate gathers every value into one
// whole fold.
func (b *jobBuilder) buildAggregate(n *algebra.Node) (stream, error) {
	in, err := b.buildInput(n)
	if err != nil {
		return stream{}, err
	}
	op := &hyracks.HashGroupOp{
		Label:      fmt.Sprintf("aggregate(%s)", n.AggFunc),
		Partitions: 1,
		Aggs:       []hyracks.GroupAgg{{Func: n.AggFunc}},
	}
	conn := gatherConnector(in.par)
	switch n.Kind {
	case algebra.OpLocalAgg:
		op.Label, op.Split, op.Partitions = fmt.Sprintf("aggregate(local-%s)", n.AggFunc), hyracks.Local, in.par
		conn = hyracks.Connector{Kind: hyracks.OneToOne}
	case algebra.OpGlobalAgg:
		op.Label, op.Split = fmt.Sprintf("aggregate(global-%s)", n.AggFunc), hyracks.Global
		conn = hyracks.Connector{Kind: hyracks.MToNReplicating}
	}
	if op.Split != hyracks.Global {
		if b.query == nil {
			return stream{}, fmt.Errorf("translator: aggregate plan has no source query")
		}
		col, ok := b.evaluator(b.query.Return, in.schema).column()
		if !ok {
			in = b.assign(in, "assign", []string{"#agg-input"}, []aql.Expr{b.query.Return}, false)
			col = len(in.schema) - 1
		}
		op.Aggs[0].Col = col
	}
	return b.connect(in, b.job.Add(op), op.Partitions, aggSchema, conn), nil
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
	// A width-1 tuple that already is the result — the aggregate value, or the
	// sole column returned as is ("return $m" over a scan) — passes through
	// untouched.
	var ret *evaluator
	passthrough := aggregated
	if !aggregated {
		ret = b.evaluator(b.query.Return, in.schema)
		_, bare := ret.column()
		passthrough = bare && len(in.schema) == 1
	}
	var op int
	if passthrough {
		op = b.job.Add(&hyracks.PassthroughOp{Label: "distribute-result", Partitions: in.par})
	} else {
		mk := tupleAllocator(in.par)
		op = b.job.Add(&hyracks.FlatMapOp{
			Label:      "distribute-result",
			Partitions: in.par,
			Fn: func(p int, t hyracks.Tuple, emit func(hyracks.Tuple) bool) error {
				v, err := ret.eval(t)
				if err != nil {
					return err
				}
				emit(mk(p, v))
				return nil
			},
		})
	}
	return b.connect(in, op, in.par, Schema{"#result"}, hyracks.Connector{Kind: hyracks.OneToOne}), nil
}
