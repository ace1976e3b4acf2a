package cluster

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"asterixdb"
	"asterixdb/internal/adm"
)

// fortyRows creates dataset D (ids 0-39, v = id % 10) in the Default
// dataverse through exec.
func fortyRows(t *testing.T, exec func(string) error) {
	t.Helper()
	var recs []string
	for i := 0; i < 40; i++ {
		recs = append(recs, fmt.Sprintf(`{ "id": %d, "v": %d }`, i, i%10))
	}
	if err := exec(`create type T as { id: int64, v: int64 }
create dataset D(T) primary key id;
insert into dataset D ([` + strings.Join(recs, ",") + `]);`); err != nil {
		t.Fatal(err)
	}
}

// TestClusterExecuteQueryMatchesInstance: a request ending in a query runs
// on the one cluster path whether it arrives through QueryStream or
// ExecuteContext, so ExecuteContext returns the query's rows and count
// exactly as a single instance's ExecuteContext does.
func TestClusterExecuteQueryMatchesInstance(t *testing.T) {
	tc := startCluster(t, 2, 4)
	ctx := context.Background()
	fortyRows(t, func(src string) error {
		_, err := tc.cc.ExecuteContext(ctx, src)
		return err
	})
	ref, err := asterixdb.Open(asterixdb.Config{DataDir: t.TempDir(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	fortyRows(t, func(src string) error {
		_, err := ref.ExecuteContext(ctx, src)
		return err
	})
	for _, src := range []string{
		`for $d in dataset D order by $d.id return $d`,
		`for $d in dataset D where $d.v < 5 order by $d.id desc return $d.id`,
		`count(for $d in dataset D return $d)`,
		// A prelude ahead of the query runs once on every node before the job.
		`insert into dataset D ({ "id": 100, "v": 3 }); for $d in dataset D where $d.v = 3 order by $d.id return $d.id`,
	} {
		got, err := tc.cc.ExecuteContext(ctx, src)
		if err != nil {
			t.Fatalf("cluster %q: %v", src, err)
		}
		want, err := ref.ExecuteContext(ctx, src)
		if err != nil {
			t.Fatalf("instance %q: %v", src, err)
		}
		if got.Kind != want.Kind || got.Count != want.Count || len(got.Values) != len(want.Values) {
			t.Fatalf("%q: cluster %s/%d/%d rows, instance %s/%d/%d rows",
				src, got.Kind, got.Count, len(got.Values), want.Kind, want.Count, len(want.Values))
		}
		for i := range want.Values {
			g, w := string(adm.AppendJSON(nil, got.Values[i])), string(adm.AppendJSON(nil, want.Values[i]))
			if g != w {
				t.Errorf("%q row %d: cluster %s, instance %s", src, i, g, w)
			}
		}
	}
}

// TestClusterDDLOrder races an index create against its drop through the
// controller; every node must apply them in the controller replica's order,
// so after each round every node has the index exactly when the replica has
// it.
func TestClusterDDLOrder(t *testing.T) {
	tc := startCluster(t, 2, 4)
	ctx := context.Background()
	fortyRows(t, func(src string) error {
		_, err := tc.cc.ExecuteContext(ctx, src)
		return err
	})
	applied := 0
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for _, src := range []string{`create index vx on D(v);`, `drop index D.vx;`} {
			wg.Add(1)
			go func(src string) {
				defer wg.Done()
				// One of the two may fail (the index exists, or does not yet).
				if _, err := tc.cc.ExecuteContext(ctx, src); err == nil {
					mu.Lock()
					applied++
					mu.Unlock()
				}
			}(src)
		}
		wg.Wait()
		_, want := tc.inst.LookupIndex("Default", "D", "vx")
		for _, n := range tc.nodes {
			if _, got := n.Instance().LookupIndex("Default", "D", "vx"); got != want {
				t.Fatalf("round %d: node %s has vx = %v, the controller %v", round, n.cfg.Name, got, want)
			}
		}
	}
	if applied < 200 {
		t.Fatalf("only %d of 400 DDL requests applied", applied)
	}
}

// TestClusterJobShapeMismatch: a node whose catalog is out of step with the
// controller's builds a different job for the same query; the controller
// refuses to run it, naming the node, and no node keeps the prepared run.
func TestClusterJobShapeMismatch(t *testing.T) {
	tc := startCluster(t, 2, 4)
	ctx := context.Background()
	fortyRows(t, func(src string) error {
		_, err := tc.cc.ExecuteContext(ctx, src)
		return err
	})
	// Behind the controller's back: only nc2 plans the index.
	if _, err := tc.nodes[1].Instance().ExecuteContext(ctx, `create index vx on D(v);`); err != nil {
		t.Fatal(err)
	}
	const query = `for $d in dataset D where $d.v = 3 return $d.id`
	run := func() ([]string, error) {
		cur, err := tc.cc.QueryStream(ctx, query)
		if err != nil {
			return nil, err
		}
		return drainCursor(cur)
	}
	rows, err := run()
	if err == nil {
		t.Fatalf("a query the nodes built different jobs for ran: %v", rows)
	}
	if asterixdb.ErrorCode(err) != asterixdb.CodeInternal || !strings.Contains(err.Error(), "nc2") || strings.Contains(err.Error(), "nc1") {
		t.Fatalf("error = %v (code %q), want an internal error naming nc2 only", err, asterixdb.ErrorCode(err))
	}
	tc.waitNoJobs(t)
	// Back in step, the same query runs.
	if _, err := tc.nodes[1].Instance().ExecuteContext(ctx, `drop index D.vx;`); err != nil {
		t.Fatal(err)
	}
	if rows, err := run(); err != nil || len(rows) != 4 {
		t.Fatalf("query after the catalogs agree: %v, %v; want 4 rows", rows, err)
	}
}

// waitNoJobs fails the test unless every node drops its runs within a few
// seconds.
func (tc *testCluster) waitNoJobs(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range tc.nodes {
		for {
			n.mu.Lock()
			left := len(n.jobs)
			n.mu.Unlock()
			if left == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s still holds %d prepared job(s)", n.cfg.Name, left)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestClusterQueriesBesideDDL runs a query that an index serves while the
// index is created and dropped over and over. The controller and every node
// compile each query against the same catalog, so none is refused as a
// job-shape mismatch and each returns the same rows.
func TestClusterQueriesBesideDDL(t *testing.T) {
	tc := startCluster(t, 2, 4)
	ctx := context.Background()
	fortyRows(t, func(src string) error {
		_, err := tc.cc.ExecuteContext(ctx, src)
		return err
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	runs, refused := 0, []error{}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := tc.cc.ExecuteContext(ctx, `for $d in dataset D where $d.v = 3 return $d.id`)
				if err == nil && res.Count != 4 {
					err = fmt.Errorf("%d rows, want 4", res.Count)
				}
				mu.Lock()
				runs++
				if err != nil {
					refused = append(refused, err)
				}
				mu.Unlock()
			}
		}()
	}
	for round := 0; round < 50; round++ {
		for _, src := range []string{`create index vx on D(v);`, `drop index D.vx;`} {
			if _, err := tc.cc.ExecuteContext(ctx, src); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if len(refused) > 0 {
		t.Fatalf("%d of %d queries failed beside DDL; first: %v", len(refused), runs, refused[0])
	}
}

// TestClusterCancelMidBroadcast cancels requests after the controller's
// replica has run them, while the nodes still prepare. A DDL request returns
// only once every node has applied it, so the node catalogs match the
// controller's when it returns; a query's cancel goes out only after every
// node has registered its run, so no node keeps one.
func TestClusterCancelMidBroadcast(t *testing.T) {
	tc := startCluster(t, 2, 4)
	fortyRows(t, func(src string) error {
		_, err := tc.cc.ExecuteContext(context.Background(), src)
		return err
	})
	// cancelWhen runs src under a context cancelled as soon as ready holds.
	cancelWhen := func(src string, ready func() bool) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			for ctx.Err() == nil && !ready() {
				runtime.Gosched()
			}
			cancel()
		}()
		cur, err := tc.cc.QueryStream(ctx, src)
		if err == nil {
			_, err = drainCursor(cur)
		}
		return err
	}
	sameCatalog := func(round int) {
		_, want := tc.inst.LookupIndex("Default", "D", "vx")
		for _, n := range tc.nodes {
			if _, got := n.Instance().LookupIndex("Default", "D", "vx"); got != want {
				t.Fatalf("round %d: node %s has vx = %v, the controller %v", round, n.cfg.Name, got, want)
			}
		}
	}
	for round := 0; round < 20; round++ {
		_ = cancelWhen(`create index vx on D(v);`, func() bool {
			_, ok := tc.inst.LookupIndex("Default", "D", "vx")
			return ok
		})
		sameCatalog(round)
		_ = cancelWhen(`drop index D.vx;`, func() bool {
			_, ok := tc.inst.LookupIndex("Default", "D", "vx")
			return !ok
		})
		sameCatalog(round)
		_ = cancelWhen(`for $d in dataset D where $d.v = 3 return $d.id`, func() bool {
			tc.cc.mu.Lock()
			defer tc.cc.mu.Unlock()
			return len(tc.cc.jobs) > 0
		})
		tc.waitNoJobs(t)
	}
}
