package asterixdb

import (
	"asterixdb/internal/adm"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/storage"
)

// This file is the Instance side of query execution: the translator.Catalog
// and translator.Runtime hooks that give compiles and Hyracks jobs access to
// the catalog, storage and the evaluator, and the Request they run under.

// Request is one request's session: the dataverse use dataverse names and
// the expression context set writes. Both start from the instance's defaults
// and last until the request ends, so one request's prologue never reaches
// another's (the paper's Queries 6 and 13). A request's statements execute
// under it and its trailing query compiles under it; it reads the catalog and
// storage of the Instance it embeds and, like the instance, implements
// translator.Catalog and translator.Runtime, with its own context.
type Request struct {
	*Instance
	dataverse string
	eval      expr.Context
}

// newRequest starts a request at the instance's defaults.
func (in *Instance) newRequest() *Request {
	return &Request{Instance: in, dataverse: "Default", eval: *in.evalCtx}
}

// EvalContext implements translator.Runtime: the instance's default
// context, which no statement writes. Tests set its clock.
func (in *Instance) EvalContext() *expr.Context { return in.evalCtx }

// EvalContext implements translator.Runtime: the request's own context.
func (r *Request) EvalContext() *expr.Context { return &r.eval }

// Function implements translator.Catalog.
func (in *Instance) Function(name string) (*aql.CreateFunction, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	fn, ok := in.functions[name]
	return fn, ok
}

// LookupDataset implements translator.Runtime: it resolves internal (stored,
// partitioned) datasets, which a job reads only through its scans and index
// probes — one inside an expression through its nest join. Metadata and
// external datasets report false; the job reads them with ScanDataset.
func (in *Instance) LookupDataset(dataverse, name string) (*storage.Dataset, bool) {
	if dataverse == "Metadata" {
		return nil, false
	}
	return in.Dataset(name)
}

// ScanDataset implements translator.Runtime: it streams an external
// dataset's file, or a Metadata dataset's records as the catalog stood when
// the scan began.
func (in *Instance) ScanDataset(dataverse, name string, visit func(*adm.Record) bool) error {
	if dataverse == "Metadata" {
		recs, err := in.metadataRecords(name)
		for _, r := range recs {
			if !visit(r) {
				break
			}
		}
		return err
	}
	in.mu.RLock()
	e, ok := in.datasets[name]
	in.mu.RUnlock()
	if !ok {
		return errf(CodeNotFound, "asterixdb: dataset %q does not exist", name)
	}
	if e.external == nil {
		return errf(CodeInternal, "asterixdb: dataset %q read outside its job's scans", name)
	}
	return e.external.Scan(visit)
}
