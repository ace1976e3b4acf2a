package asterixdb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
)

// The tests in this file run DDL beside queries; a CI step repeats them under
// -race. Each query reads one catalog snapshot: the one its request loaded,
// or the one its own last DDL statement published.

// vQuery must return 40 rows from the dataset openVDataset stores: it is the
// query an index on v serves.
const vQuery = `for $d in dataset D where $d.v = 3 return $d.id`

// openVDataset stores D(id, v) with 400 records, v = id mod 10, over four
// partitions.
func openVDataset(t *testing.T) *Instance {
	t.Helper()
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	var recs []string
	for i := 0; i < 400; i++ {
		recs = append(recs, fmt.Sprintf(`{"id": %d, "v": %d}`, i, i%10))
	}
	if _, err := inst.Execute(`create type T as open { id: int64 };
create dataset D(T) primary key id;
insert into dataset D ([` + strings.Join(recs, ",") + `]);`); err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestIndexDDLBesideQueries: an index on v is created and dropped over and
// over while other requests run the query it serves. Every answer is all 40
// rows: a query plans on an index only once its backfill is done, and keeps
// reading an index it planned on after a drop detached it.
func TestIndexDDLBesideQueries(t *testing.T) {
	inst := openVDataset(t)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var queries atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				res, err := inst.Query(vQuery)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res) != 40 {
					t.Errorf("query beside index DDL returned %d rows, want 40", len(res))
					return
				}
				queries.Add(1)
			}
		}()
	}
	// At least 25 rounds, and until a query has run beside them.
	for i := 0; (i < 25 || queries.Load() == 0) && !t.Failed(); i++ {
		if _, err := inst.Execute(`create index vx on D(v);`); err != nil {
			t.Error(err)
			break
		}
		if _, err := inst.Execute(`drop index D.vx;`); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestJobKeepsItsDroppedIndex: a job compiled through an index still reads
// it after `drop index` detached it and deleted its files.
func TestJobKeepsItsDroppedIndex(t *testing.T) {
	inst := openVDataset(t)
	if _, err := inst.Execute(`create index vx on D(v);`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req, q, _, err := inst.ExecuteForQuery(ctx, vQuery)
	if err != nil {
		t.Fatal(err)
	}
	plan, job, err := req.CompileQuery(q, algebra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(algebra.Explain(plan), "secondary vx") {
		t.Fatalf("the query does not plan through vx:\n%s", algebra.Explain(plan))
	}
	if _, err := inst.Execute(`drop index D.vx;`); err != nil {
		t.Fatal(err)
	}
	res, err := req.materialize(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 40 {
		t.Errorf("job over the dropped index returned %d rows, want 40", len(res.Values))
	}
}

// TestMetadataIndexWaitsForBackfill: Metadata.Index never lists an index
// whose backfill has not completed. The R-tree's backfill reaches each
// partition's last record, a non-spatial value, and fails, so a listing of
// it at any time is one taken before its backfill completed.
func TestMetadataIndexWaitsForBackfill(t *testing.T) {
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	// Each partition's largest key holds a non-spatial value, so the
	// backfill indexes every record before it first.
	bad := map[int]bool{}
	for i, seen := 999, map[int]bool{}; len(seen) < 2; i-- {
		if p := adm.KeyPartition(adm.EncodeKey(nil, adm.Int64(int64(i))), 2); !seen[p] {
			seen[p], bad[i] = true, true
		}
	}
	var recs []string
	for i := 0; i < 1000; i++ {
		loc := fmt.Sprintf(`point("%d.0,1.0")`, i)
		if bad[i] {
			loc = `"oops"`
		}
		recs = append(recs, fmt.Sprintf(`{"id": %d, "loc": %s}`, i, loc))
	}
	if _, err := inst.Execute(`create type T as open { id: int64 };
create dataset D(T) primary key id;
insert into dataset D ([` + strings.Join(recs, ",") + `]);`); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			res, err := inst.Query(`for $i in dataset Metadata.Index where $i.IndexName = "locIdx" return $i.IndexName`)
			if err != nil {
				t.Error(err)
				return
			}
			if len(res) != 0 {
				t.Error("Metadata.Index listed locIdx before its backfill completed")
				return
			}
		}
	}()
	for i := 0; i < 20 && !t.Failed(); i++ {
		if _, err := inst.Execute(`create index locIdx on D(loc) type rtree;`); err == nil {
			t.Fatal("create index over a non-spatial value succeeded")
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestRequestPlansItsOwnIndex: a request that creates an index and then
// queries plans the query on it: the request reloads the catalog after its
// own DDL.
func TestRequestPlansItsOwnIndex(t *testing.T) {
	inst := openVDataset(t)
	req, q, _, err := inst.ExecuteForQuery(context.Background(), `create index vx on D(v); `+vQuery)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := req.CompileQuery(q, algebra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(algebra.Explain(plan), "secondary vx") {
		t.Errorf("the request does not plan on its own index:\n%s", algebra.Explain(plan))
	}
}

// TestUserDatasetDoesNotShadowMetadata: a stored dataset named like a
// Metadata dataset, with an index on a field the Metadata records carry, does
// not lend its access paths to a query of the Metadata dataset.
func TestUserDatasetDoesNotShadowMetadata(t *testing.T) {
	inst := openEmpty(t)
	if _, err := inst.Execute(`create type T as open { id: int64 };
create dataset Index(T) primary key id;
create index byName on Index(IndexName);
insert into dataset Index ({"id": 1, "IndexName": "byName"});`); err != nil {
		t.Fatal(err)
	}
	if got := queryText(t, inst, `for $i in dataset Metadata.Index where $i.IndexName = "byName" return $i.DatasetName`); got != `"Index"` {
		t.Errorf("Metadata.Index lists byName on %s, want \"Index\"", got)
	}
}
