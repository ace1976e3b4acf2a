package asterixdb

import (
	"asterixdb/internal/adm"
	"asterixdb/internal/expr"
	"asterixdb/internal/storage"
)

// This file is the Instance side of query execution: the translator.Runtime
// hooks that give Hyracks jobs access to storage and the evaluator.

// EvalContext implements translator.Runtime.
func (in *Instance) EvalContext() *expr.Context { return in.evalCtx }

// LookupDataset implements translator.Runtime: it resolves internal (stored,
// partitioned) datasets. Metadata and external datasets report false and are
// materialized through ReadDatasetRecords instead.
func (in *Instance) LookupDataset(dataverse, name string) (*storage.Dataset, bool) {
	if dataverse == "Metadata" {
		return nil, false
	}
	return in.Dataset(name)
}

// ReadDatasetRecords implements translator.Runtime.
func (in *Instance) ReadDatasetRecords(dataverse, name string) ([]*adm.Record, error) {
	return in.readDataset(dataverse, name)
}
