// Package asterixdb is a Go implementation of the AsterixDB Big Data
// Management System described in "AsterixDB: A Scalable, Open Source BDMS"
// (VLDB 2014). An Instance owns the metadata catalog, the partitioned LSM
// storage layer, the AQL compiler (parser, Algebricks-style optimizer,
// Hyracks job generation) and the runtime.
//
// # Executing statements
//
// The primary entry points are context-aware. ExecuteContext runs one or
// more AQL statements and materializes the result of the last one;
// QueryStream runs a query and returns a pull-based Cursor whose rows stream
// out of the executing Hyracks job as they are produced, holding only a
// bounded number of tuples in flight:
//
//	inst, _ := asterixdb.Open(asterixdb.Config{DataDir: dir})
//	defer inst.Close()
//	inst.ExecuteContext(ctx, `create dataverse TinySocial;`)
//
//	cur, _ := inst.QueryStream(ctx, `for $u in dataset MugshotUsers return $u.name`)
//	defer cur.Close()
//	for cur.Next() {
//		fmt.Println(cur.Value())
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Closing a cursor early — or cancelling its context — propagates through
// the runtime's upstream-cancellation machinery and stops the scans feeding
// the job. Every query — FLWOR, aggregate or bare expression — compiles to
// a Hyracks job; Execute, Query and QueryWithOptions drain the same cursor
// to completion and return the materialized values.
//
// Errors returned by the API are typed: sentinels ErrNotFound and ErrExists
// match via errors.Is, and *Error carries a stable Code (see errors.go).
//
// The internal/server package exposes an Instance over HTTP with the paper's
// synchronous, asynchronous and deferred result-delivery modes, and
// cmd/asterixd is the server binary.
package asterixdb

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/external"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/storage"
	"asterixdb/internal/translator"
)

// Config configures an Instance.
type Config struct {
	// DataDir is the directory holding storage partitions and the WAL.
	DataDir string
	// Partitions is the number of storage partitions (default 4).
	Partitions int
	// Journaled forces the WAL on every commit (Table 4 durability).
	Journaled bool
	// MemBudget is the in-memory component budget in bytes of each LSM tree:
	// the primary index and every secondary index of every partition has its
	// own.
	MemBudget int
	// MemoryBudget is the per-query memory budget in bytes for blocking
	// runtime operators (sort, hybrid hash join, hash group-by). When a
	// query's working set exceeds it the operators spill to run files under
	// DataDir and complete out-of-core instead of growing without bound.
	// Zero means unconstrained; when zero, the ASTERIXDB_MEMORY_BUDGET
	// environment variable (bytes) applies if set.
	MemoryBudget int64
	// OwnsPartition restricts which storage partitions this instance stores
	// records for. In a cluster, each node controller owns a subset of the
	// hash space: inserts and loads silently skip records whose primary key
	// hashes to a partition owned elsewhere (another node stores them), and
	// scans of non-owned partitions see empty trees. Nil means the instance
	// owns every partition (the single-process default).
	OwnsPartition func(partition int) bool
}

// Instance is one AsterixDB node-group: a Cluster Controller front-end plus
// the storage partitions of its Node Controllers, all within one process.
type Instance struct {
	cfg     Config
	unfused bool // see variant
	store   *storage.Manager

	mu sync.RWMutex
	// the catalog
	dataverses map[string]bool
	types      map[string]*adm.RecordType
	datasets   map[string]*datasetEntry
	functions  map[string]*aql.CreateFunction
	// typeDataverse / functionDataverse record which dataverse each type and
	// function was created in, so drop dataverse can clean them up.
	typeDataverse     map[string]string
	functionDataverse map[string]string
	// evalCtx is the default context every request copies (see Request).
	evalCtx *expr.Context
}

// datasetEntry tracks one dataset: either an internal (stored) dataset or an
// external one backed by the localfs adaptor.
type datasetEntry struct {
	name      string
	typeName  string
	dataverse string
	internal  *storage.Dataset
	external  *external.Dataset
}

// Result is the outcome of executing one AQL statement.
type Result struct {
	// Kind is "query", "ddl", "insert", "delete" or "load".
	Kind string
	// Values holds the query results (for queries).
	Values []adm.Value
	// Count reports affected records for DML statements.
	Count int
}

// Open creates or reopens an AsterixDB instance rooted at cfg.DataDir.
func Open(cfg Config) (*Instance, error) { return open(cfg, variant{}) }

// variant selects the reference execution shapes the differential tests and
// the read-path benchmark compare the default against: jobs without the
// operator fusion pass, and scans that decode every record up front instead
// of viewing it lazily. It is deliberately not part of Config — only this
// package's own tests can reach open, so no embedder or shipped binary can
// select a second way to run a query.
type variant struct{ unfused, eagerDecode bool }

func open(cfg Config, v variant) (*Instance, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = storage.DefaultPartitions
	}
	if cfg.MemoryBudget == 0 {
		if env := os.Getenv("ASTERIXDB_MEMORY_BUDGET"); env != "" {
			n, err := strconv.ParseInt(env, 10, 64)
			if err != nil || n <= 0 {
				return nil, errf(CodeInvalid, "asterixdb: ASTERIXDB_MEMORY_BUDGET=%q is not a positive byte count", env)
			}
			cfg.MemoryBudget = n
		}
	}
	store, err := storage.NewManager(cfg.DataDir, storage.Options{
		Partitions:  cfg.Partitions,
		Journaled:   cfg.Journaled,
		MemBudget:   cfg.MemBudget,
		EagerDecode: v.eagerDecode,
		Owns:        cfg.OwnsPartition,
	})
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		cfg:               cfg,
		unfused:           v.unfused,
		store:             store,
		dataverses:        map[string]bool{"Metadata": true, "Default": true},
		types:             map[string]*adm.RecordType{},
		datasets:          map[string]*datasetEntry{},
		functions:         map[string]*aql.CreateFunction{},
		typeDataverse:     map[string]string{},
		functionDataverse: map[string]string{},
		evalCtx:           expr.NewContext(),
	}
	return inst, nil
}

// Close shuts the instance down: the background flush/merge scheduler is
// drained, then the write-ahead log is closed.
func (in *Instance) Close() error { return in.store.Close() }

// Recover replays the write-ahead log into the instance's datasets. DDL is
// not journaled, so callers re-run their DDL (create type / dataset / index)
// against the reopened instance first, then call Recover before serving
// queries; every access path — primary and secondary — is restored to the
// last acknowledged committed write.
func (in *Instance) Recover() error { return in.store.Recover() }

// Store exposes the storage manager (used by the metrics collectors and
// tools).
func (in *Instance) Store() *storage.Manager { return in.store }

// Dataset returns the stored dataset with the given name.
func (in *Instance) Dataset(name string) (*storage.Dataset, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if e, ok := in.datasets[name]; ok && e.internal != nil {
		return e.internal, true
	}
	return nil, false
}

// ExecuteContext parses and executes one or more AQL statements under ctx
// and returns the materialized result of the last one. Query results drain
// through the streaming execution path; cancelling ctx mid-query terminates
// the running job and returns ctx's error.
func (in *Instance) ExecuteContext(ctx context.Context, src string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, q, res, err := in.ExecuteForQuery(ctx, src)
	if err != nil || q == nil {
		return res, err
	}
	return r.evaluateQuery(ctx, q, algebra.Options{})
}

// Execute is ExecuteContext without cancellation.
func (in *Instance) Execute(src string) (*Result, error) {
	return in.ExecuteContext(context.Background(), src)
}

// Query executes a single query expression and returns its result values.
func (in *Instance) Query(src string) ([]adm.Value, error) {
	return in.QueryWithOptions(src, algebra.Options{})
}

// QueryWithOptions executes a query under per-call optimizer options (Query
// uses the defaults); the benchmarks use it to compare indexed and
// non-indexed access paths on the same instance. The options apply to the
// trailing query only, so it is safe to call concurrently with Query.
func (in *Instance) QueryWithOptions(src string, opts algebra.Options) ([]adm.Value, error) {
	ctx := context.Background()
	r, q, res, err := in.ExecuteForQuery(ctx, src)
	if err == nil && q != nil {
		res, err = r.evaluateQuery(ctx, q, opts)
	}
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// jobOptions assembles the job-generation options from the instance config:
// parallelism, the per-query memory budget, and the spill directory (under
// DataDir, so run files live next to the data they spill).
func (in *Instance) jobOptions() translator.JobOptions {
	return translator.JobOptions{
		Partitions:    in.cfg.Partitions,
		MemoryBudget:  in.cfg.MemoryBudget,
		SpillDir:      in.SpillDir(),
		DisableFusion: in.unfused,
	}
}

// SpillDir returns the directory under which queries create their run files
// when blocking operators exceed the configured MemoryBudget. Each job uses
// a private subdirectory that is removed when the job ends. The dot-name
// keeps it out of the dataset namespace: datasets store under
// DataDir/<name>, and AQL identifiers cannot begin with a dot, so a dataset
// can never collide with (or be dropped onto) the spill tree.
func (in *Instance) SpillDir() string {
	return filepath.Join(in.cfg.DataDir, ".spill")
}

// MemoryBudget returns the per-query memory budget the instance resolved at
// Open (zero when unconstrained). The HTTP server registers its handle-result
// spill manager against it.
func (in *Instance) MemoryBudget() int64 {
	return in.cfg.MemoryBudget
}

// Explain compiles a query and returns the optimized algebra plan and the
// Hyracks job description (Figure 6's shape for Query 10). Session statements
// ahead of the query (use dataverse, set) apply to the explain's own request,
// as to any request's; any other leading statement is a CodeInvalid error,
// so explaining never touches data or the catalog.
func (in *Instance) Explain(src string) (string, error) {
	r, q, _, err := in.prelude(context.Background(), src, true, nil)
	if err != nil {
		return "", err
	}
	if q == nil {
		return "", errf(CodeInvalid, "asterixdb: explain needs a statement ending in a query")
	}
	plan, job, err := r.CompileQuery(q, algebra.Options{})
	if err != nil {
		return "", err
	}
	return algebra.Explain(plan) + "\n\n" + job.Describe(), nil
}

// ExecuteForQuery parses src and executes every statement ahead of a trailing
// query under a new Request, returning the request and that query's
// expression for the request's CompileQuery. When src does not end in a
// query everything was executed: the expression is nil and the Result is the
// last statement's. The cluster runtime calls it on the coordinator and on
// every node controller, so a multi-statement request applies its leading
// DDL/DML identically everywhere before the final query compiles against the
// updated catalog under the request's own use dataverse and set.
func (in *Instance) ExecuteForQuery(ctx context.Context, src string) (*Request, aql.Expr, *Result, error) {
	return in.prelude(ctx, src, false, nil)
}

// prelude is the one statement prelude behind ExecuteForQuery and Explain:
// it starts the request its statements run under. With explainOnly set it
// runs only session statements, which write nothing but the request, and
// rejects anything else. A non-nil ph receives the parse time.
func (in *Instance) prelude(ctx context.Context, src string, explainOnly bool, ph *Phases) (*Request, aql.Expr, *Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	stmts, err := aql.Parse(src)
	if ph != nil {
		ph.ParseNanos = int64(time.Since(start))
	}
	if err != nil {
		return nil, nil, nil, syntaxError(err)
	}
	var q aql.Expr
	if n := len(stmts); n > 0 {
		if last, ok := stmts[n-1].(*aql.QueryStatement); ok {
			q, stmts = last.Body, stmts[:n-1]
		}
	}
	r, res := in.newRequest(), &Result{Kind: "ddl"}
	for _, stmt := range stmts {
		switch stmt.(type) {
		case *aql.DataverseDecl, *aql.SetStatement:
			// They write only the request.
		default:
			if explainOnly {
				return nil, nil, nil, errf(CodeInvalid, "asterixdb: explain does not execute statements; only use dataverse / set may precede the query")
			}
		}
		if res, err = r.executeStatement(ctx, stmt); err != nil {
			return nil, nil, nil, err
		}
	}
	return r, q, res, nil
}

// CompileQuery is the one compile entry point: it turns a query expression
// into its optimized plan and the executable Hyracks job under the given
// optimizer options and the request's session. Every node of a distributed
// run compiles the same expression under the same options and the same
// request prologue against its replicated catalog, which yields an identical
// job — the property the frame wire protocol's edge indexes rely on. A query
// the compiler cannot plan is a typed CodeInvalid error; there is no other
// way to evaluate it.
func (r *Request) CompileQuery(e aql.Expr, opts algebra.Options) (*algebra.Plan, *hyracks.Job, error) {
	return r.compile(e, opts, nil)
}

// compile is CompileQuery timing its two steps into a non-nil ph.
func (r *Request) compile(e aql.Expr, opts algebra.Options, ph *Phases) (*algebra.Plan, *hyracks.Job, error) {
	var job *hyracks.Job
	start := time.Now()
	plan, err := translator.Compile(e, r, opts)
	built := time.Now()
	if err == nil {
		job, err = translator.BuildJob(plan, r, r.jobOptions())
	}
	if ph != nil {
		ph.CompileNanos = int64(built.Sub(start))
		ph.JobBuildNanos = int64(time.Since(built))
	}
	if err != nil {
		return nil, nil, errf(CodeInvalid, "asterixdb: unplannable query: %v", err)
	}
	return plan, job, nil
}

// DatasetInfo implements algebra.Catalog: the optimizer's view of a dataset
// is its primary key and its secondary indexes in creation order.
func (in *Instance) DatasetInfo(dataverse, name string) algebra.DatasetInfo {
	in.mu.RLock()
	defer in.mu.RUnlock()
	e, ok := in.datasets[name]
	if !ok || e.internal == nil {
		return algebra.DatasetInfo{}
	}
	info := algebra.DatasetInfo{PrimaryKey: e.internal.Spec().PrimaryKey}
	for _, ix := range e.internal.Indexes() {
		info.Indexes = append(info.Indexes, algebra.IndexInfo{
			Name: ix.Name, Kind: algebra.IndexKind(ix.Kind), Field: ix.Fields[0], GramLength: ix.GramLength})
	}
	return info
}

// ----------------------------------------------------------------------------
// Statement execution
// ----------------------------------------------------------------------------

func (r *Request) executeStatement(ctx context.Context, stmt aql.Statement) (*Result, error) {
	in := r.Instance
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *aql.DataverseDecl:
		in.mu.RLock()
		defer in.mu.RUnlock()
		if !in.dataverses[s.Name] {
			return nil, errf(CodeNotFound, "asterixdb: dataverse %q does not exist", s.Name)
		}
		r.dataverse = s.Name
		return &Result{Kind: "ddl"}, nil
	case *aql.CreateDataverse:
		in.mu.Lock()
		defer in.mu.Unlock()
		if in.dataverses[s.Name] && !s.IfNotExists {
			return nil, errf(CodeExists, "asterixdb: dataverse %q already exists", s.Name)
		}
		in.dataverses[s.Name] = true
		return &Result{Kind: "ddl"}, nil
	case *aql.DropDataverse:
		return r.dropDataverse(s)
	case *aql.CreateType:
		return r.createType(s)
	case *aql.DropType:
		in.mu.Lock()
		defer in.mu.Unlock()
		if _, ok := in.types[s.Name]; !ok {
			if s.IfExists {
				return &Result{Kind: "ddl"}, nil
			}
			return nil, errf(CodeNotFound, "asterixdb: type %q does not exist", s.Name)
		}
		delete(in.types, s.Name)
		delete(in.typeDataverse, s.Name)
		return &Result{Kind: "ddl"}, nil
	case *aql.CreateDataset:
		return r.createDataset(s)
	case *aql.DropDataset:
		return in.dropDataset(s)
	case *aql.CreateIndex:
		return in.createIndex(s)
	case *aql.DropIndex:
		ds, ok := in.Dataset(s.Dataset)
		if !ok {
			return nil, errf(CodeNotFound, "asterixdb: dataset %q does not exist", s.Dataset)
		}
		if err := ds.DropIndex(s.Name); err != nil && !(s.IfExists && errors.Is(err, storage.ErrNotFound)) {
			return nil, err
		}
		return &Result{Kind: "ddl"}, nil
	case *aql.CreateFunction:
		// A call is inlined into its caller, so a free variable that is not a
		// parameter would be bound by whatever the caller has in scope.
		for _, v := range algebra.FreeVarsOf(s.Body) {
			if !slices.Contains(s.Params, v) {
				return nil, errf(CodeInvalid, "asterixdb: function %s: $%s is not a parameter; a function body sees only its parameters", s.Name, v)
			}
		}
		// A limit is evaluated outside every binding, so it could not see
		// the argument a parameter is inlined as either.
		if v := limitVar(s.Body); v != "" {
			return nil, errf(CodeInvalid, "asterixdb: function %s: a limit or offset reads $%s; it is evaluated outside every binding, parameters included", s.Name, v)
		}
		in.mu.Lock()
		defer in.mu.Unlock()
		in.functions[s.Name] = s
		in.functionDataverse[s.Name] = r.dataverse
		return &Result{Kind: "ddl"}, nil
	case *aql.DropFunction:
		in.mu.Lock()
		defer in.mu.Unlock()
		if _, ok := in.functions[s.Name]; !ok {
			if s.IfExists {
				return &Result{Kind: "ddl"}, nil
			}
			return nil, errf(CodeNotFound, "asterixdb: function %q does not exist", s.Name)
		}
		delete(in.functions, s.Name)
		delete(in.functionDataverse, s.Name)
		return &Result{Kind: "ddl"}, nil
	case *aql.CreateFeed, *aql.DropFeed, *aql.ConnectFeed, *aql.DisconnectFeed:
		// The statements parse (scripts from the paper load), but nothing
		// would ever ingest: say so instead of reporting a connected feed.
		return nil, errf(CodeInvalid, "asterixdb: feeds are not supported by this build")
	case *aql.SetStatement:
		return r.setParameter(s)
	case *aql.InsertStatement:
		return r.executeInsert(ctx, s)
	case *aql.DeleteStatement:
		return r.executeDelete(ctx, s)
	case *aql.LoadStatement:
		return in.executeLoad(s)
	case *aql.QueryStatement:
		return r.evaluateQuery(ctx, s.Body, algebra.Options{})
	}
	return nil, errf(CodeInvalid, "asterixdb: unsupported statement %T", stmt)
}

// limitVar returns a variable some limit or offset in e reads, or "".
func limitVar(e aql.Expr) string {
	var v string
	aql.Rewrite(e, func(x aql.Expr, _ *aql.Scope) aql.Expr {
		if fl, ok := x.(*aql.FLWORExpr); ok {
			for _, c := range fl.Clauses {
				if lc, ok := c.(*aql.LimitClause); ok {
					for _, bound := range []aql.Expr{lc.Limit, lc.Offset} {
						if free := algebra.FreeVarsOf(bound); len(free) > 0 && v == "" {
							v = free[0]
						}
					}
				}
			}
		}
		return x
	})
	return v
}

// dropDataverse removes a dataverse and everything scoped to it: its
// datasets (and their storage), its types and its functions. Dropping a
// dataverse another object's dataverse merely referenced does not touch
// objects created elsewhere. A request that was using it goes back to
// Default.
func (r *Request) dropDataverse(s *aql.DropDataverse) (*Result, error) {
	in := r.Instance
	in.mu.Lock()
	exists := in.dataverses[s.Name]
	if !exists && !s.IfExists {
		in.mu.Unlock()
		return nil, errf(CodeNotFound, "asterixdb: dataverse %q does not exist", s.Name)
	}
	var toDrop []string
	for name, e := range in.datasets {
		if e.dataverse == s.Name {
			toDrop = append(toDrop, name)
		}
	}
	for _, name := range toDrop {
		delete(in.datasets, name)
	}
	for name, dv := range in.typeDataverse {
		if dv == s.Name {
			delete(in.types, name)
			delete(in.typeDataverse, name)
		}
	}
	for name, dv := range in.functionDataverse {
		if dv == s.Name {
			delete(in.functions, name)
			delete(in.functionDataverse, name)
		}
	}
	if s.Name != "Default" && s.Name != "Metadata" {
		delete(in.dataverses, s.Name)
	}
	if r.dataverse == s.Name {
		r.dataverse = "Default"
	}
	in.mu.Unlock()
	for _, name := range toDrop {
		if _, ok := in.store.Dataset(name); ok {
			if err := in.store.DropDataset(name); err != nil {
				return nil, err
			}
		}
	}
	return &Result{Kind: "ddl"}, nil
}

func (r *Request) createType(s *aql.CreateType) (*Result, error) {
	in := r.Instance
	rt, err := in.resolveRecordType(s.Name, &s.Definition)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, exists := in.types[s.Name]; exists {
		if s.IfNotExists {
			// A genuine no-op: the existing definition and its dataverse
			// scoping are untouched.
			return &Result{Kind: "ddl"}, nil
		}
		return nil, errf(CodeExists, "asterixdb: type %q already exists", s.Name)
	}
	in.types[s.Name] = rt
	in.typeDataverse[s.Name] = r.dataverse
	return &Result{Kind: "ddl"}, nil
}

// resolveRecordType converts a DDL type expression into an adm.RecordType,
// resolving named types against the catalog.
func (in *Instance) resolveRecordType(name string, def *aql.RecordTypeExpr) (*adm.RecordType, error) {
	rt := &adm.RecordType{Name: name, Open: def.Open}
	for _, f := range def.Fields {
		ft, err := in.resolveTypeExpr(&f.Type)
		if err != nil {
			return nil, fmt.Errorf("asterixdb: type %q field %q: %w", name, f.Name, err)
		}
		rt.Fields = append(rt.Fields, adm.FieldType{Name: f.Name, Type: ft, Optional: f.Optional})
	}
	return rt, nil
}

func (in *Instance) resolveTypeExpr(te *aql.TypeExpr) (adm.Type, error) {
	switch {
	case te.Record != nil:
		return in.resolveRecordType("", te.Record)
	case te.OrderedItem != nil:
		item, err := in.resolveTypeExpr(te.OrderedItem)
		if err != nil {
			return nil, err
		}
		return &adm.OrderedListType{Item: item}, nil
	case te.UnorderedItem != nil:
		item, err := in.resolveTypeExpr(te.UnorderedItem)
		if err != nil {
			return nil, err
		}
		return &adm.UnorderedListType{Item: item}, nil
	default:
		if tag, ok := adm.TagFromTypeName(te.Name); ok {
			if tag == adm.TagAny {
				return adm.Any(), nil
			}
			return adm.Prim(tag), nil
		}
		in.mu.RLock()
		named, ok := in.types[te.Name]
		in.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("unknown type %q", te.Name)
		}
		return named, nil
	}
}

func (r *Request) createDataset(s *aql.CreateDataset) (*Result, error) {
	in := r.Instance
	in.mu.RLock()
	rt, typeOK := in.types[s.TypeName]
	_, exists := in.datasets[s.Name]
	in.mu.RUnlock()
	if exists {
		if s.IfNotExists {
			return &Result{Kind: "ddl"}, nil
		}
		return nil, errf(CodeExists, "asterixdb: dataset %q already exists", s.Name)
	}
	if !typeOK {
		return nil, errf(CodeNotFound, "asterixdb: unknown type %q", s.TypeName)
	}
	entry := &datasetEntry{name: s.Name, typeName: s.TypeName, dataverse: r.dataverse}
	if s.External {
		ext, err := external.NewDataset(rt, s.Adaptor, s.Properties)
		if err != nil {
			return nil, err
		}
		entry.external = ext
	} else {
		ds, err := in.store.CreateDataset(storage.DatasetSpec{
			Name:       s.Name,
			Type:       rt,
			PrimaryKey: s.PrimaryKey,
		})
		if err != nil {
			return nil, err
		}
		entry.internal = ds
	}
	in.mu.Lock()
	in.datasets[s.Name] = entry
	in.mu.Unlock()
	return &Result{Kind: "ddl"}, nil
}

func (in *Instance) dropDataset(s *aql.DropDataset) (*Result, error) {
	in.mu.Lock()
	e, ok := in.datasets[s.Name]
	if !ok {
		in.mu.Unlock()
		if s.IfExists {
			return &Result{Kind: "ddl"}, nil
		}
		return nil, errf(CodeNotFound, "asterixdb: dataset %q does not exist", s.Name)
	}
	delete(in.datasets, s.Name)
	in.mu.Unlock()
	if e.internal != nil {
		if err := in.store.DropDataset(s.Name); err != nil {
			return nil, err
		}
	}
	return &Result{Kind: "ddl"}, nil
}

func (in *Instance) createIndex(s *aql.CreateIndex) (*Result, error) {
	ds, ok := in.Dataset(s.Dataset)
	if !ok {
		return nil, errf(CodeNotFound, "asterixdb: dataset %q does not exist", s.Dataset)
	}
	kind := storage.BTreeIndex
	switch s.Kind {
	case aql.IndexRTree:
		kind = storage.RTreeIndex
	case aql.IndexKeyword:
		kind = storage.KeywordIndex
	case aql.IndexNGram:
		kind = storage.NGramIndex
	}
	err := ds.CreateIndex(storage.IndexSpec{Name: s.Name, Fields: s.Fields, Kind: kind, GramLength: s.GramLength})
	if err != nil && s.IfNotExists && errors.Is(err, storage.ErrExists) {
		return &Result{Kind: "ddl"}, nil
	}
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "ddl"}, nil
}

// setParameter writes the request's own context: a set lasts for its
// request.
func (r *Request) setParameter(s *aql.SetStatement) (*Result, error) {
	switch s.Name {
	case "simfunction":
		if !slices.Contains(expr.SimFunctions, s.Value) {
			return nil, errf(CodeInvalid, "asterixdb: unknown simfunction %q; use one of %q", s.Value, expr.SimFunctions)
		}
		r.eval.SimFunction = s.Value
	case "simthreshold":
		f, err := strconv.ParseFloat(s.Value, 64)
		if err != nil {
			return nil, errf(CodeInvalid, "asterixdb: bad simthreshold %q", s.Value)
		}
		r.eval.SimThreshold = f
	default:
		// Unknown parameters are accepted and ignored, as in the real system.
	}
	return &Result{Kind: "ddl"}, nil
}

// executeInsert evaluates its body as a query, as delete selects its victims,
// and stores the records it produces: each value that is a record, and the
// records of each value that is a list. An instance that owns a subset of
// the partitions refuses a body that reads a stored dataset: it would see
// only its own slice, and every node would insert what its slice produced.
func (r *Request) executeInsert(ctx context.Context, s *aql.InsertStatement) (*Result, error) {
	ds, ok := r.Dataset(s.Dataset)
	if !ok {
		return nil, errf(CodeNotFound, "asterixdb: dataset %q does not exist", s.Dataset)
	}
	plan, job, err := r.CompileQuery(s.Body, algebra.Options{})
	if err != nil {
		return nil, err
	}
	if err := r.refusePartialRead(s, plan, ""); err != nil {
		return nil, err
	}
	res, err := r.materialize(ctx, job)
	if err != nil {
		return nil, err
	}
	var v adm.Value = &adm.OrderedList{Items: res.Values}
	if _, isFLWOR := s.Body.(*aql.FLWORExpr); !isFLWOR && len(res.Values) == 1 {
		v = res.Values[0]
	}
	var recs []*adm.Record
	switch x := v.(type) {
	case *adm.Record:
		recs = []*adm.Record{x}
	case *adm.OrderedList:
		recs = appendRecords(recs, x.Items)
	case *adm.UnorderedList:
		recs = appendRecords(recs, x.Items)
	default:
		return nil, errf(CodeInvalid, "asterixdb: insert body must produce a record, got %s", v.Tag())
	}
	stored, err := ds.InsertBatch(recs)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "insert", Count: stored}, nil
}

// appendRecords appends the items that are records, decoded.
func appendRecords(recs []*adm.Record, items []adm.Value) []*adm.Record {
	for _, it := range items {
		if r, ok := adm.AsRecord(it); ok {
			recs = append(recs, r)
		}
	}
	return recs
}

// refusePartialRead is the one place a partial owner refuses a statement: on
// an instance that owns a subset of the partitions, every node runs an
// update statement on its own slice, so an insert body or a delete condition
// that reads a stored dataset would see only that slice. own is the
// variable of the delete's own scan of its target, which its slice is
// exactly right for.
func (in *Instance) refusePartialRead(stmt aql.Statement, plan *algebra.Plan, own string) error {
	if in.cfg.OwnsPartition == nil {
		return nil
	}
	var read func(n *algebra.Node) string
	read = func(n *algebra.Node) string {
		if n == nil {
			return ""
		}
		if _, stored := in.LookupDataset(n.Dataverse, n.Dataset); stored && n.Variable != own {
			return n.Dataset
		}
		for _, c := range n.Inputs {
			if name := read(c); name != "" {
				return name
			}
		}
		return ""
	}
	if name := read(plan.Root); name != "" {
		return errf(CodeInvalid, "asterixdb: %s reads dataset %q, of which this instance owns only some partitions", stmt, name)
	}
	return nil
}

// executeDelete selects its victims with an ordinary query — `for $v in
// dataset D where <cond> return [$v.<pk>, ...]` — so the predicate fails, and
// uses secondary-index access paths, exactly as it would in a query. Only
// the primary keys are held while the victims are deleted.
func (r *Request) executeDelete(ctx context.Context, s *aql.DeleteStatement) (*Result, error) {
	ds, ok := r.Dataset(s.Dataset)
	if !ok {
		return nil, errf(CodeNotFound, "asterixdb: dataset %q does not exist", s.Dataset)
	}
	pk := &aql.ListConstructor{Ordered: true}
	for _, f := range ds.Spec().PrimaryKey {
		pk.Items = append(pk.Items, &aql.FieldAccess{Base: &aql.VariableRef{Name: s.Var}, Field: f})
	}
	victims := &aql.FLWORExpr{
		Clauses: []aql.FLWORClause{&aql.ForClause{Var: s.Var, Source: &aql.DatasetRef{Name: s.Dataset}}},
		Return:  pk,
	}
	if s.Where != nil {
		victims.Clauses = append(victims.Clauses, &aql.WhereClause{Cond: s.Where})
	}
	plan, job, err := r.CompileQuery(victims, algebra.Options{})
	if err != nil {
		return nil, err
	}
	if err := r.refusePartialRead(s, plan, s.Var); err != nil {
		return nil, err
	}
	res, err := r.materialize(ctx, job)
	if err != nil {
		return nil, err
	}
	keys := make([][]adm.Value, len(res.Values))
	for i, v := range res.Values {
		keys[i] = v.(*adm.OrderedList).Items
	}
	deleted, err := ds.DeleteBatch(keys)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "delete", Count: deleted}, nil
}

func (in *Instance) executeLoad(s *aql.LoadStatement) (*Result, error) {
	ds, ok := in.Dataset(s.Dataset)
	if !ok {
		return nil, errf(CodeNotFound, "asterixdb: dataset %q does not exist", s.Dataset)
	}
	ext, err := external.NewDataset(ds.Spec().Type, s.Adaptor, s.Properties)
	if err != nil {
		return nil, err
	}
	recs, err := ext.ReadAll()
	if err != nil {
		return nil, err
	}
	stored, err := ds.InsertBatch(recs)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "load", Count: stored}, nil
}

// ----------------------------------------------------------------------------
// Query evaluation
// ----------------------------------------------------------------------------

// metadataRecords implements the "AsterixDB metadata is AsterixDB data"
// property (Query 1): Metadata.Dataset, Metadata.Index, Metadata.Datatype,
// Metadata.Dataverse and Metadata.Function are queryable datasets.
func (in *Instance) metadataRecords(name string) ([]*adm.Record, error) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	var out []*adm.Record
	switch name {
	case "Dataverse":
		for _, dv := range slices.Sorted(maps.Keys(in.dataverses)) {
			out = append(out, adm.NewRecord(adm.Field{Name: "DataverseName", Value: adm.String(dv)}))
		}
	case "Dataset":
		for _, n := range slices.Sorted(maps.Keys(in.datasets)) {
			e := in.datasets[n]
			kind := "INTERNAL"
			if e.external != nil {
				kind = "EXTERNAL"
			}
			out = append(out, adm.NewRecord(
				adm.Field{Name: "DataverseName", Value: adm.String(e.dataverse)},
				adm.Field{Name: "DatasetName", Value: adm.String(n)},
				adm.Field{Name: "DatatypeName", Value: adm.String(e.typeName)},
				adm.Field{Name: "DatasetType", Value: adm.String(kind)},
			))
		}
	case "Index":
		for _, n := range slices.Sorted(maps.Keys(in.datasets)) {
			e := in.datasets[n]
			if e.internal == nil {
				continue
			}
			spec := e.internal.Spec()
			out = append(out, adm.NewRecord(
				adm.Field{Name: "DataverseName", Value: adm.String(e.dataverse)},
				adm.Field{Name: "DatasetName", Value: adm.String(n)},
				adm.Field{Name: "IndexName", Value: adm.String(n)},
				adm.Field{Name: "IndexStructure", Value: adm.String("BTREE")},
				adm.Field{Name: "IsPrimary", Value: adm.Boolean(true)},
				adm.Field{Name: "SearchKey", Value: stringList(spec.PrimaryKey)},
			))
			for _, ix := range e.internal.Indexes() {
				fields := []adm.Field{
					{Name: "DataverseName", Value: adm.String(e.dataverse)},
					{Name: "DatasetName", Value: adm.String(n)},
					{Name: "IndexName", Value: adm.String(ix.Name)},
					{Name: "IndexStructure", Value: adm.String(strings.ToUpper(string(ix.Kind)))},
					{Name: "IsPrimary", Value: adm.Boolean(false)},
					{Name: "SearchKey", Value: stringList(ix.Fields)},
				}
				if ix.Kind == storage.NGramIndex {
					fields = append(fields, adm.Field{Name: "GramLength", Value: adm.Int32(int32(ix.GramLength))})
				}
				out = append(out, adm.NewRecord(fields...))
			}
		}
	case "Datatype":
		for _, n := range slices.Sorted(maps.Keys(in.types)) {
			out = append(out, adm.NewRecord(
				adm.Field{Name: "DataverseName", Value: adm.String(in.typeDataverse[n])},
				adm.Field{Name: "DatatypeName", Value: adm.String(n)},
				adm.Field{Name: "Derived", Value: adm.String(in.types[n].Describe())},
			))
		}
	case "Function":
		for _, n := range slices.Sorted(maps.Keys(in.functions)) {
			fn := in.functions[n]
			out = append(out, adm.NewRecord(
				adm.Field{Name: "DataverseName", Value: adm.String(in.functionDataverse[n])},
				adm.Field{Name: "Name", Value: adm.String(n)},
				adm.Field{Name: "Arity", Value: adm.Int32(int32(len(fn.Params)))},
			))
		}
	default:
		return nil, errf(CodeNotFound, "asterixdb: unknown Metadata dataset %q", name)
	}
	return out, nil
}

func stringList(ss []string) *adm.OrderedList {
	items := make([]adm.Value, len(ss))
	for i, s := range ss {
		items[i] = adm.String(s)
	}
	return &adm.OrderedList{Items: items}
}

// evaluateQuery materializes a query expression's result by opening its
// cursor and draining it. Streaming consumers use Instance.QueryStream.
func (r *Request) evaluateQuery(ctx context.Context, e aql.Expr, opts algebra.Options) (*Result, error) {
	_, job, err := r.CompileQuery(e, opts)
	if err != nil {
		return nil, err
	}
	return r.materialize(ctx, job)
}

// materialize runs a compiled job to completion and collects its result.
func (in *Instance) materialize(ctx context.Context, job *hyracks.Job) (*Result, error) {
	cur, err := in.startJob(ctx, job, Phases{})
	if err != nil {
		return nil, err
	}
	// drain finishes the cursor on every path; the deferred Close
	// (idempotent) keeps the job torn down even if drain panics.
	defer cur.Close()
	values, err := cur.drain()
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "query", Values: values, Count: len(values)}, nil
}
