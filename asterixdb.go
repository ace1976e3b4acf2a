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
	"sync/atomic"
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
	// MemoryBudget is the memory budget in bytes of each job's blocking
	// operators (sort, hybrid hash join, hash group-by), past which they spill
	// to run files under DataDir. It is not shared: every job and the HTTP
	// server's handle table each get all of it, so N concurrent queries may
	// hold N times it. Zero means unconstrained; when zero, the
	// ASTERIXDB_MEMORY_BUDGET environment variable (bytes) applies if set.
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

	// current is the catalog's current version; ddlMu serializes the DDL
	// statements that build the next one (see catalog).
	current atomic.Pointer[catalog]
	ddlMu   sync.Mutex
	// evalCtx is the default context every request copies (see Request).
	evalCtx *expr.Context
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
	inst := &Instance{cfg: cfg, unfused: v.unfused, store: store, evalCtx: expr.NewContext()}
	inst.current.Store(&catalog{
		dataverses: map[string]bool{"Metadata": true, "Default": true},
		types:      map[string]scoped[*adm.RecordType]{},
		datasets:   map[string]*datasetEntry{},
		functions:  map[string]scoped[*aql.CreateFunction]{},
	})
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
// parallelism, the job's memory budget, and the spill directory (under
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

// MemoryBudget returns the memory budget the instance resolved at Open (zero
// when unconstrained), which each job gets whole. The HTTP server registers
// its handle-result spill manager against all of it too.
func (in *Instance) MemoryBudget() int64 {
	return in.cfg.MemoryBudget
}

// Explain compiles a query and returns the optimized algebra plan and the
// Hyracks job description (Figure 6's shape for Query 10). Session statements
// ahead of the query (use dataverse, set) apply to the explain's own request,
// as to any request's; any other leading statement is a CodeInvalid error,
// so explaining never touches data or the catalog.
func (in *Instance) Explain(src string) (string, error) {
	stmts, err := Parse(src)
	if err != nil {
		return "", err
	}
	r, q, _, err := in.prelude(context.Background(), stmts, true)
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
// last statement's. The cluster runtime runs it once on the coordinator
// (as ExecuteStatements) and once per job message on every node controller,
// so a multi-statement
// request applies its leading DDL/DML everywhere before the final query
// compiles against the updated catalog under the request's own use
// dataverse and set.
func (in *Instance) ExecuteForQuery(ctx context.Context, src string) (*Request, aql.Expr, *Result, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, nil, nil, err
	}
	return in.ExecuteStatements(ctx, stmts)
}

// ExecuteStatements is ExecuteForQuery of a request already parsed: the
// cluster controller parses a request once, to learn whether it holds DDL
// (IsDDL), and runs the statements it parsed.
func (in *Instance) ExecuteStatements(ctx context.Context, stmts []aql.Statement) (*Request, aql.Expr, *Result, error) {
	return in.prelude(ctx, stmts, false)
}

// Parse parses a request's source into its statements; a syntax error is
// CodeSyntax.
func Parse(src string) ([]aql.Statement, error) {
	stmts, err := aql.Parse(src)
	return stmts, syntaxError(err)
}

// prelude is the one statement prelude behind ExecuteStatements and Explain:
// it starts the request its statements run under. With explainOnly set it
// runs only session statements, which write nothing but the request, and
// rejects anything else.
func (in *Instance) prelude(ctx context.Context, stmts []aql.Statement, explainOnly bool) (*Request, aql.Expr, *Result, error) {
	if ctx == nil {
		ctx = context.Background()
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
		var err error
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
// request prologue against its replicated catalog, expecting an identical
// job — the property the frame wire protocol's edge indexes rely on, which
// the cluster controller checks against a hash of its own job's shape. A
// query the compiler cannot plan is a typed CodeInvalid error; there is no
// other way to evaluate it.
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

// ----------------------------------------------------------------------------
// Statement execution
// ----------------------------------------------------------------------------

func (r *Request) executeStatement(ctx context.Context, stmt aql.Statement) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if IsDDL(stmt) {
		return r.ddl(stmt)
	}
	switch s := stmt.(type) {
	case *aql.DataverseDecl:
		if !r.cat.dataverses[s.Name] {
			return nil, errf(CodeNotFound, "asterixdb: dataverse %q does not exist", s.Name)
		}
		r.dataverse = s.Name
		return &Result{Kind: "ddl"}, nil
	case *aql.SetStatement:
		return r.setParameter(s)
	case *aql.InsertStatement:
		return r.executeInsert(ctx, s)
	case *aql.DeleteStatement:
		return r.executeDelete(ctx, s)
	case *aql.LoadStatement:
		return r.executeLoad(s)
	case *aql.QueryStatement:
		return r.evaluateQuery(ctx, s.Body, algebra.Options{})
	}
	// The feed statements parse (scripts from the paper load), but nothing
	// would ever ingest: say so instead of reporting a connected feed.
	return nil, errf(CodeInvalid, "asterixdb: feeds are not supported by this build")
}

// IsDDL reports whether stmt edits the catalog, and so runs under the DDL
// mutex (Request.ddl): every statement but a query, use dataverse, set,
// insert, delete, load and the feed statements. executeStatement dispatches
// on it, and the cluster controller orders the requests that hold one.
func IsDDL(stmt aql.Statement) bool {
	switch stmt.(type) {
	case *aql.QueryStatement, *aql.DataverseDecl, *aql.SetStatement,
		*aql.InsertStatement, *aql.DeleteStatement, *aql.LoadStatement,
		*aql.CreateFeed, *aql.DropFeed, *aql.ConnectFeed, *aql.DisconnectFeed:
		return false
	}
	return true
}

// ddl runs one DDL statement under the instance's DDL mutex: the statement
// edits a copy of the current catalog, which unless it fails is published
// with one swap. The request then reads the catalog as of its own DDL.
func (r *Request) ddl(stmt aql.Statement) (*Result, error) {
	r.ddlMu.Lock()
	defer r.ddlMu.Unlock()
	defer func() { r.cat = r.current.Load() }()
	next := r.current.Load().clone()
	if err := r.edit(next, stmt); err != nil {
		return nil, err
	}
	r.current.Store(next)
	return &Result{Kind: "ddl"}, nil
}

// edit applies one DDL statement to next. A drop publishes next itself
// before it deletes storage, so the object leaves the catalog first; no
// statement can create its name again until the files are gone, because the
// DDL mutex is held throughout.
func (r *Request) edit(next *catalog, stmt aql.Statement) error {
	switch s := stmt.(type) {
	case *aql.CreateDataverse:
		if next.dataverses[s.Name] && !s.IfNotExists {
			return errf(CodeExists, "asterixdb: dataverse %q already exists", s.Name)
		}
		next.dataverses[s.Name] = true
	case *aql.DropDataverse:
		return r.dropDataverse(next, s)
	case *aql.CreateType:
		rt, err := next.resolveRecordType(s.Name, &s.Definition)
		if err != nil {
			return err
		}
		if _, exists := next.types[s.Name]; exists {
			if s.IfNotExists {
				return nil // the existing definition and its dataverse stay
			}
			return errf(CodeExists, "asterixdb: type %q already exists", s.Name)
		}
		next.types[s.Name] = scoped[*adm.RecordType]{r.dataverse, rt}
	case *aql.DropType:
		if _, ok := next.types[s.Name]; !ok && !s.IfExists {
			return errf(CodeNotFound, "asterixdb: type %q does not exist", s.Name)
		}
		delete(next.types, s.Name)
	case *aql.CreateDataset:
		return r.createDataset(next, s)
	case *aql.DropDataset:
		e, ok := next.datasets[s.Name]
		if !ok && !s.IfExists {
			return errf(CodeNotFound, "asterixdb: dataset %q does not exist", s.Name)
		}
		delete(next.datasets, s.Name)
		if ok && e.internal != nil {
			r.current.Store(next)
			return r.store.DropDataset(s.Name)
		}
	case *aql.CreateIndex:
		return r.createIndex(next, s)
	case *aql.DropIndex:
		return r.dropIndex(next, s)
	case *aql.CreateFunction:
		// A call is inlined into its caller, so a free variable that is not a
		// parameter would be bound by whatever the caller has in scope.
		for _, v := range algebra.FreeVarsOf(s.Body) {
			if !slices.Contains(s.Params, v) {
				return errf(CodeInvalid, "asterixdb: function %s: $%s is not a parameter; a function body sees only its parameters", s.Name, v)
			}
		}
		// A limit is evaluated outside every binding, so it could not see
		// the argument a parameter is inlined as either.
		if v := limitVar(s.Body); v != "" {
			return errf(CodeInvalid, "asterixdb: function %s: a limit or offset reads $%s; it is evaluated outside every binding, parameters included", s.Name, v)
		}
		next.functions[s.Name] = scoped[*aql.CreateFunction]{r.dataverse, s}
	case *aql.DropFunction:
		if _, ok := next.functions[s.Name]; !ok && !s.IfExists {
			return errf(CodeNotFound, "asterixdb: function %q does not exist", s.Name)
		}
		delete(next.functions, s.Name)
	default:
		return errf(CodeInvalid, "asterixdb: unsupported statement %T", stmt)
	}
	return nil
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
func (r *Request) dropDataverse(next *catalog, s *aql.DropDataverse) error {
	if !next.dataverses[s.Name] && !s.IfExists {
		return errf(CodeNotFound, "asterixdb: dataverse %q does not exist", s.Name)
	}
	var stored []string
	for name, e := range next.datasets {
		if e.dataverse == s.Name {
			delete(next.datasets, name)
			if e.internal != nil {
				stored = append(stored, name)
			}
		}
	}
	maps.DeleteFunc(next.types, func(_ string, t scoped[*adm.RecordType]) bool { return t.dataverse == s.Name })
	maps.DeleteFunc(next.functions, func(_ string, f scoped[*aql.CreateFunction]) bool { return f.dataverse == s.Name })
	if s.Name != "Default" && s.Name != "Metadata" {
		delete(next.dataverses, s.Name)
	}
	if r.dataverse == s.Name {
		r.dataverse = "Default"
	}
	r.current.Store(next)
	for _, name := range stored {
		if err := r.store.DropDataset(name); err != nil {
			return err
		}
	}
	return nil
}

// resolveRecordType converts a DDL type expression into an adm.RecordType,
// resolving named types against the catalog.
func (c *catalog) resolveRecordType(name string, def *aql.RecordTypeExpr) (*adm.RecordType, error) {
	rt := &adm.RecordType{Name: name, Open: def.Open}
	for _, f := range def.Fields {
		ft, err := c.resolveTypeExpr(&f.Type)
		if err != nil {
			return nil, fmt.Errorf("asterixdb: type %q field %q: %w", name, f.Name, err)
		}
		rt.Fields = append(rt.Fields, adm.FieldType{Name: f.Name, Type: ft, Optional: f.Optional})
	}
	return rt, nil
}

func (c *catalog) resolveTypeExpr(te *aql.TypeExpr) (adm.Type, error) {
	switch {
	case te.Record != nil:
		return c.resolveRecordType("", te.Record)
	case te.OrderedItem != nil:
		item, err := c.resolveTypeExpr(te.OrderedItem)
		if err != nil {
			return nil, err
		}
		return &adm.OrderedListType{Item: item}, nil
	case te.UnorderedItem != nil:
		item, err := c.resolveTypeExpr(te.UnorderedItem)
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
		named, ok := c.types[te.Name]
		if !ok {
			return nil, fmt.Errorf("unknown type %q", te.Name)
		}
		return named.def, nil
	}
}

func (r *Request) createDataset(next *catalog, s *aql.CreateDataset) error {
	if _, exists := next.datasets[s.Name]; exists {
		if s.IfNotExists {
			return nil
		}
		return errf(CodeExists, "asterixdb: dataset %q already exists", s.Name)
	}
	t, ok := next.types[s.TypeName]
	if !ok {
		return errf(CodeNotFound, "asterixdb: unknown type %q", s.TypeName)
	}
	e := &datasetEntry{typeName: s.TypeName, dataverse: r.dataverse}
	var err error
	if s.External {
		e.external, err = external.NewDataset(t.def, s.Adaptor, s.Properties)
	} else {
		e.internal, err = r.store.CreateDataset(storage.DatasetSpec{Name: s.Name, Type: t.def, PrimaryKey: s.PrimaryKey})
	}
	next.datasets[s.Name] = e
	return err
}

// createIndex builds the index in storage, which maintains it from then on,
// and only then lists it in the catalog, where queries can plan on it.
func (r *Request) createIndex(next *catalog, s *aql.CreateIndex) error {
	e, ok := next.datasets[s.Dataset]
	if !ok || e.internal == nil {
		return errf(CodeNotFound, "asterixdb: dataset %q does not exist", s.Dataset)
	}
	// The DDL's index kinds are storage's, spelled the same.
	spec := storage.IndexSpec{Name: s.Name, Fields: s.Fields, Kind: storage.IndexKind(s.Kind), GramLength: s.GramLength}
	x, err := e.internal.CreateIndex(spec)
	if err != nil {
		if s.IfNotExists && errors.Is(err, storage.ErrExists) {
			return nil
		}
		return err
	}
	with := *e
	with.indexes = append(slices.Clip(e.indexes), x)
	next.datasets[s.Dataset] = &with
	return nil
}

// dropIndex takes the index out of the catalog first, so no query compiled
// from then on plans on it, and then detaches it from storage. A job built
// before keeps the handle it resolved (storage.Index).
func (r *Request) dropIndex(next *catalog, s *aql.DropIndex) error {
	e, ok := next.datasets[s.Dataset]
	if !ok || e.internal == nil {
		return errf(CodeNotFound, "asterixdb: dataset %q does not exist", s.Dataset)
	}
	i := slices.IndexFunc(e.indexes, func(x *storage.Index) bool { return x.Spec().Name == s.Name })
	if i < 0 {
		if s.IfExists {
			return nil
		}
		return errf(CodeNotFound, "asterixdb: index %q on %q does not exist", s.Name, s.Dataset)
	}
	without := *e
	without.indexes = slices.Delete(slices.Clone(e.indexes), i, i+1)
	next.datasets[s.Dataset] = &without
	r.current.Store(next)
	return e.internal.DropIndex(s.Name)
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
	ds, ok := r.LookupDataset(r.dataverse, s.Dataset)
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
func (r *Request) refusePartialRead(stmt aql.Statement, plan *algebra.Plan, own string) error {
	if r.cfg.OwnsPartition == nil {
		return nil
	}
	var read func(n *algebra.Node) string
	read = func(n *algebra.Node) string {
		if n == nil {
			return ""
		}
		if _, stored := r.LookupDataset(n.Dataverse, n.Dataset); stored && n.Variable != own {
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
	ds, ok := r.LookupDataset(r.dataverse, s.Dataset)
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

func (r *Request) executeLoad(s *aql.LoadStatement) (*Result, error) {
	ds, ok := r.LookupDataset(r.dataverse, s.Dataset)
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
func (c *catalog) metadataRecords(name string) ([]*adm.Record, error) {
	var out []*adm.Record
	switch name {
	case "Dataverse":
		for _, dv := range slices.Sorted(maps.Keys(c.dataverses)) {
			out = append(out, adm.NewRecord(adm.Field{Name: "DataverseName", Value: adm.String(dv)}))
		}
	case "Dataset":
		for _, n := range slices.Sorted(maps.Keys(c.datasets)) {
			e := c.datasets[n]
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
		for _, n := range slices.Sorted(maps.Keys(c.datasets)) {
			e := c.datasets[n]
			if e.internal == nil {
				continue
			}
			index := func(name, structure string, primary bool, key []string, more ...adm.Field) {
				out = append(out, adm.NewRecord(append([]adm.Field{
					{Name: "DataverseName", Value: adm.String(e.dataverse)},
					{Name: "DatasetName", Value: adm.String(n)},
					{Name: "IndexName", Value: adm.String(name)},
					{Name: "IndexStructure", Value: adm.String(structure)},
					{Name: "IsPrimary", Value: adm.Boolean(primary)},
					{Name: "SearchKey", Value: stringList(key)},
				}, more...)...))
			}
			index(n, "BTREE", true, e.internal.Spec().PrimaryKey)
			for _, x := range e.indexes {
				ix := x.Spec()
				var gram []adm.Field
				if ix.Kind == storage.NGramIndex {
					gram = []adm.Field{{Name: "GramLength", Value: adm.Int32(int32(ix.GramLength))}}
				}
				index(ix.Name, strings.ToUpper(string(ix.Kind)), false, ix.Fields, gram...)
			}
		}
	case "Datatype":
		for _, n := range slices.Sorted(maps.Keys(c.types)) {
			t := c.types[n]
			out = append(out, adm.NewRecord(
				adm.Field{Name: "DataverseName", Value: adm.String(t.dataverse)},
				adm.Field{Name: "DatatypeName", Value: adm.String(n)},
				adm.Field{Name: "Derived", Value: adm.String(t.def.Describe())},
			))
		}
	case "Function":
		for _, n := range slices.Sorted(maps.Keys(c.functions)) {
			f := c.functions[n]
			out = append(out, adm.NewRecord(
				adm.Field{Name: "DataverseName", Value: adm.String(f.dataverse)},
				adm.Field{Name: "Name", Value: adm.String(n)},
				adm.Field{Name: "Arity", Value: adm.Int32(int32(len(f.def.Params)))},
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
	values, err := cur.Drain()
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "query", Values: values, Count: len(values)}, nil
}
