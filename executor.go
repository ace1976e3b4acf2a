package asterixdb

import (
	"asterixdb/internal/expr"
	"asterixdb/internal/storage"
)

// This file is the Instance side of query execution: the translator.Runtime
// hooks that give Hyracks jobs access to storage and the evaluator.

// EvalContext implements translator.Runtime.
func (in *Instance) EvalContext() *expr.Context { return in.evalCtx }

// LookupDataset implements translator.Runtime: it resolves internal (stored,
// partitioned) datasets, which a job reads only through its scans and index
// probes — one inside an expression through its nest join. Metadata and
// external datasets report false; the job reads them as subplan sources
// through the evaluation context's dataset reader.
func (in *Instance) LookupDataset(dataverse, name string) (*storage.Dataset, bool) {
	if dataverse == "Metadata" {
		return nil, false
	}
	return in.Dataset(name)
}
