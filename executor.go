package asterixdb

import (
	"maps"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/external"
	"asterixdb/internal/storage"
)

// This file is the catalog, the translator.Catalog and translator.Runtime
// hooks through which compiles and Hyracks jobs read it, storage and the
// evaluator, and the Request they run under.

// catalog is one version of the catalog: the dataverses, the types and
// functions each with its dataverse, and the datasets each with the indexes
// a query may plan on. A published version is never written: a DDL
// statement edits a copy and publishes it with one swap (Request.ddl), so
// whatever reads one version sees one catalog throughout.
type catalog struct {
	dataverses map[string]bool
	types      map[string]scoped[*adm.RecordType]
	datasets   map[string]*datasetEntry
	functions  map[string]scoped[*aql.CreateFunction]
}

// scoped is a definition and the dataverse it was created in.
type scoped[T any] struct {
	dataverse string
	def       T
}

// datasetEntry is a stored (internal) or external dataset of one version.
type datasetEntry struct {
	typeName  string
	dataverse string
	internal  *storage.Dataset
	external  *external.Dataset
	// indexes are backfilled and not dropped, in creation order. Storage
	// also maintains the one a running create index is building.
	indexes []*storage.Index
}

// clone copies the version for a DDL statement to edit. It shares the
// entries, so a statement that changes one replaces it.
func (c *catalog) clone() *catalog {
	return &catalog{maps.Clone(c.dataverses), maps.Clone(c.types), maps.Clone(c.datasets), maps.Clone(c.functions)}
}

// DatasetInfo is the optimizer's view of a stored dataset: its primary key
// and its secondary indexes in creation order.
func (c *catalog) DatasetInfo(dataverse, name string) algebra.DatasetInfo {
	e, ok := c.datasets[name]
	if !ok || e.internal == nil || dataverse == "Metadata" {
		return algebra.DatasetInfo{}
	}
	info := algebra.DatasetInfo{PrimaryKey: e.internal.Spec().PrimaryKey}
	for _, x := range e.indexes {
		ix := x.Spec()
		info.Indexes = append(info.Indexes, algebra.IndexInfo{
			Name: ix.Name, Kind: algebra.IndexKind(ix.Kind), Field: ix.Fields[0], GramLength: ix.GramLength})
	}
	return info
}

func (c *catalog) Function(name string) (*aql.CreateFunction, bool) {
	f, ok := c.functions[name]
	return f.def, ok
}

// LookupDataset resolves internal (stored, partitioned) datasets, which a
// job reads only through its scans and index probes — one inside an
// expression through its nest join. Metadata and external datasets report
// false; the job reads them with ScanDataset.
func (c *catalog) LookupDataset(dataverse, name string) (*storage.Dataset, bool) {
	if e, ok := c.datasets[name]; ok && e.internal != nil && dataverse != "Metadata" {
		return e.internal, true
	}
	return nil, false
}

func (c *catalog) LookupIndex(dataverse, dataset, index string) (*storage.Index, bool) {
	if e, ok := c.datasets[dataset]; ok && dataverse != "Metadata" {
		for _, x := range e.indexes {
			if x.Spec().Name == index {
				return x, true
			}
		}
	}
	return nil, false
}

// ScanDataset streams an external dataset's file, or a Metadata dataset's
// records as this version lists them.
func (c *catalog) ScanDataset(dataverse, name string, visit func(*adm.Record) bool) error {
	if dataverse == "Metadata" {
		recs, err := c.metadataRecords(name)
		for _, r := range recs {
			if !visit(r) {
				break
			}
		}
		return err
	}
	e, ok := c.datasets[name]
	if !ok {
		return errf(CodeNotFound, "asterixdb: dataset %q does not exist", name)
	}
	if e.external == nil {
		return errf(CodeInternal, "asterixdb: dataset %q read outside its job's scans", name)
	}
	return e.external.Scan(visit)
}

// Dataset returns the stored dataset with the given name.
func (in *Instance) Dataset(name string) (*storage.Dataset, bool) {
	return in.current.Load().LookupDataset("Default", name)
}

// The Instance implements translator.Catalog and translator.Runtime over the
// current catalog version, loaded at each call; a Request over its own.

func (in *Instance) DatasetInfo(dv, name string) algebra.DatasetInfo {
	return in.current.Load().DatasetInfo(dv, name)
}

func (in *Instance) Function(name string) (*aql.CreateFunction, bool) {
	return in.current.Load().Function(name)
}

func (in *Instance) LookupDataset(dv, name string) (*storage.Dataset, bool) {
	return in.current.Load().LookupDataset(dv, name)
}

func (in *Instance) LookupIndex(dv, ds, ix string) (*storage.Index, bool) {
	return in.current.Load().LookupIndex(dv, ds, ix)
}

func (in *Instance) ScanDataset(dv, name string, visit func(*adm.Record) bool) error {
	return in.current.Load().ScanDataset(dv, name, visit)
}

func (r *Request) DatasetInfo(dv, name string) algebra.DatasetInfo {
	return r.cat.DatasetInfo(dv, name)
}

func (r *Request) Function(name string) (*aql.CreateFunction, bool) { return r.cat.Function(name) }

func (r *Request) LookupDataset(dv, name string) (*storage.Dataset, bool) {
	return r.cat.LookupDataset(dv, name)
}

func (r *Request) LookupIndex(dv, ds, ix string) (*storage.Index, bool) {
	return r.cat.LookupIndex(dv, ds, ix)
}

func (r *Request) ScanDataset(dv, name string, visit func(*adm.Record) bool) error {
	return r.cat.ScanDataset(dv, name, visit)
}

// EvalContext implements translator.Runtime: the instance's default
// context, which no statement writes. Tests set its clock.
func (in *Instance) EvalContext() *expr.Context { return in.evalCtx }

// Request is one request's session: the catalog version it reads, which it
// reloads only after a DDL statement of its own, the dataverse use dataverse
// names and the expression context set writes. They start from the
// instance's current catalog and defaults and last until the request ends,
// so one request's prologue never reaches another's (the paper's Queries 6
// and 13). A request's statements execute under it and its trailing query
// compiles and builds its job under it.
type Request struct {
	*Instance
	cat       *catalog
	dataverse string
	eval      expr.Context
}

// newRequest starts a request at the instance's current catalog and defaults.
func (in *Instance) newRequest() *Request {
	return &Request{Instance: in, cat: in.current.Load(), dataverse: "Default", eval: *in.evalCtx}
}

// EvalContext implements translator.Runtime: the request's own context.
func (r *Request) EvalContext() *expr.Context { return &r.eval }
