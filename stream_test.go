package asterixdb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
)

// newLargeInstance builds an instance with one dataset of n simple records,
// big enough that a full scan far exceeds the dataflow's channel buffers.
func newLargeInstance(t testing.TB, n int) *Instance {
	t.Helper()
	return newLargeVariant(t, n, variant{})
}

// newLargeVariant is newLargeInstance running the given reference job shape.
func newLargeVariant(t testing.TB, n int, v variant) *Instance {
	t.Helper()
	inst, err := open(Config{DataDir: t.TempDir(), Partitions: 4}, v)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	if _, err := inst.Execute(`
create type BigType as closed { id: int32, k: int32 };
create dataset Big(BigType) primary key id;`); err != nil {
		t.Fatal(err)
	}
	ds, _ := inst.Dataset("Big")
	// Load in batches so a million-record dataset never holds every input
	// record in memory at once.
	const batch = 10_000
	for lo := 1; lo <= n; lo += batch {
		recs := make([]*adm.Record, 0, batch)
		for i := lo; i <= n && i < lo+batch; i++ {
			recs = append(recs, adm.NewRecord(
				adm.Field{Name: "id", Value: adm.Int32(int32(i))},
				adm.Field{Name: "k", Value: adm.Int32(int32(i % 100))},
			))
		}
		if _, err := ds.InsertBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	return inst
}

// settleGoroutines polls until the goroutine count drops back to (or below)
// the baseline plus slack, failing the test if it never settles.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQueryStreamMatchesQuery(t *testing.T) {
	inst := newTinySocial(t)
	want, err := inst.Query(`for $u in dataset MugshotUsers return $u.name;`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := inst.QueryStream(context.Background(), `for $u in dataset MugshotUsers return $u.name;`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []adm.Value
	for cur.Next() {
		got = append(got, cur.Value())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	sameResults(t, "stream-vs-query", got, want, false)
}

// TestCursorCloseStopsUpstream is the leak test behind the acceptance
// criterion: closing a cursor a few rows into a large scan must terminate
// every job goroutine (scans included), verified by the goroutine count
// settling back to its pre-query baseline.
func TestCursorCloseStopsUpstream(t *testing.T) {
	inst := newLargeInstance(t, 50_000)
	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		cur, err := inst.QueryStream(context.Background(), `for $x in dataset Big return $x;`)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if !cur.Next() {
				t.Fatalf("round %d: stream ended after %d rows: %v", round, i, cur.Err())
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("early close reported error: %v", err)
		}
	}
	settleGoroutines(t, baseline)
}

// TestQueryStreamContextCancellation: cancelling the context mid-stream ends
// the stream with ctx.Err() and terminates the job's goroutines.
func TestQueryStreamContextCancellation(t *testing.T) {
	inst := newLargeInstance(t, 50_000)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err := inst.QueryStream(ctx, `for $x in dataset Big return $x;`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 3; i++ {
		if !cur.Next() {
			t.Fatalf("stream ended early: %v", cur.Err())
		}
	}
	cancel()
	for cur.Next() {
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", err)
	}
	settleGoroutines(t, baseline)
}

// TestExecuteContextCancelled: an already-cancelled context fails statement
// execution with the context's error.
func TestExecuteContextCancelled(t *testing.T) {
	inst := newTinySocial(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inst.ExecuteContext(ctx, `for $u in dataset MugshotUsers return $u;`); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecuteContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestConstantQueriesRunAsJobs: a query with no FLWOR at its root — a bare
// expression, or a record constructor around a subquery — is still a Hyracks
// job (distribute-result over the empty-tuple-source), so it yields one row
// and, under WithProfiling, a profile like any other query.
func TestConstantQueriesRunAsJobs(t *testing.T) {
	inst := newTinySocial(t)
	for src, want := range map[string]string{
		`1 + 1`: `2i64`,
		`{"n": count(for $u in dataset MugshotUsers return $u)}`: `{ "n": 4i64 }`,
	} {
		cur, err := inst.QueryStream(WithProfiling(context.Background()), src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		var rows []string
		for cur.Next() {
			rows = append(rows, cur.Value().String())
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(rows) != 1 || rows[0] != want {
			t.Errorf("%s = %v, want [%s]", src, rows, want)
		}
		prof := cur.Profile()
		if prof == nil {
			t.Fatalf("%s: nil profile — the query did not run as a job", src)
		}
		if out := prof.OutByName(); out["empty-tuple-source"] != 1 || out["distribute-result"] != 1 {
			t.Errorf("%s: profile operators %v, want empty-tuple-source and distribute-result with one tuple each", src, out)
		}
	}
}

// A final non-query statement yields an empty cursor, not an error.
func TestQueryStreamNonQueryStatement(t *testing.T) {
	inst := newTinySocial(t)
	cur3, err := inst.QueryStream(context.Background(), `create dataverse Streamed if not exists;`)
	if err != nil {
		t.Fatal(err)
	}
	defer cur3.Close()
	if cur3.Next() {
		t.Error("DDL cursor should be empty")
	}
	if err := cur3.Err(); err != nil {
		t.Error(err)
	}
}

// TestDifferentialStreamingVsInterpreter is the streaming face of the
// differential harness: every query drained through QueryStream must agree
// with the materializing interpreter oracle.
func TestDifferentialStreamingVsInterpreter(t *testing.T) {
	inst := newTinySocial(t)
	for _, q := range differentialQueries {
		cur, err := inst.QueryStream(context.Background(), q.query)
		if err != nil {
			t.Fatalf("%s (stream open): %v", q.name, err)
		}
		var streamed []adm.Value
		for cur.Next() {
			streamed = append(streamed, cur.Value())
		}
		err = cur.Err()
		cur.Close()
		if err != nil {
			t.Fatalf("%s (stream drain): %v", q.name, err)
		}
		orRes, err := inst.interpret(q.query, algebra.Options{})
		if err != nil {
			t.Fatalf("%s (interpreter): %v", q.name, err)
		}
		sameDiffResults(t, q.name+"/streamed", streamed, orRes, q)
	}
}

// BenchmarkStreamingFirstRow measures time-to-first-result on a
// limit-over-large-scan query: the streaming path hands back the first row
// as soon as the first frame arrives, while the materializing path waits for
// the whole job to drain and tear down (~13x slower to first result at this
// limit; the gap widens with the limit).
func BenchmarkStreamingFirstRow(b *testing.B) {
	inst := newLargeInstance(b, 100_000)
	query := `for $x in dataset Big limit 20000 return $x;`
	b.Run("streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, err := inst.QueryStream(context.Background(), query)
			if err != nil {
				b.Fatal(err)
			}
			if !cur.Next() {
				b.Fatalf("no first row: %v", cur.Err())
			}
			_ = cur.Value() // first row in hand: this is the measured latency
			cur.Close()
		}
	})
	b.Run("materializing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := inst.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) == 0 {
				b.Fatal("no rows")
			}
			_ = res[0]
		}
	})
}

// BenchmarkStreamingDrain compares draining a full scan through the cursor
// against the materializing wrapper, to keep the streaming path honest on
// throughput, not just first-row latency.
func BenchmarkStreamingDrain(b *testing.B) {
	inst := newLargeInstance(b, 100_000)
	query := `for $x in dataset Big return $x.k;`
	b.Run("streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, err := inst.QueryStream(context.Background(), query)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for cur.Next() {
				n++
			}
			cur.Close()
			if n != 100_000 {
				b.Fatalf("drained %d rows", n)
			}
		}
	})
	b.Run("materializing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := inst.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != 100_000 {
				b.Fatalf("drained %d rows", len(res))
			}
		}
	})
}

// Example use of the streaming API, kept compiling as documentation.
func ExampleInstance_QueryStream() {
	dir, _ := os.MkdirTemp("", "asterixdb-example")
	defer os.RemoveAll(dir)
	inst, _ := Open(Config{DataDir: dir, Partitions: 2})
	defer inst.Close()
	inst.Execute(`
create type P as closed { id: int32 };
create dataset Ps(P) primary key id;
insert into dataset Ps ([{"id": 1}, {"id": 2}]);`)

	cur, err := inst.QueryStream(context.Background(), `count(for $p in dataset Ps return $p)`)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer cur.Close()
	for cur.Next() {
		fmt.Println(cur.Value())
	}
	// Output: 2i64
}
