package hyracks

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asterixdb/internal/adm"
)

// intSourceJob builds a scan -> select pipeline whose sources count every
// produced tuple, for asserting how far production ran.
func intSourceJob(partitions, perPartition int, produced *atomic.Int64) *Job {
	job := &Job{}
	src := job.Add(&SourceOp{
		Label: "source", Partitions: partitions,
		Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < perPartition; i++ {
				produced.Add(1)
				if !emit(Tuple{adm.Int64(int64(p*perPartition + i))}) {
					return nil
				}
			}
			return nil
		},
	})
	sel := job.Add(selectOp("select", partitions, func(Tuple) (bool, error) { return true, nil }))
	job.Connect(src, sel, Connector{Kind: OneToOne})
	return job
}

// TestFramePoolRecyclingKeepsResults cycles many frames through the frame
// pool across repeated multi-hop jobs (shuffle edges force interior frames,
// which In.Next recycles) and checks every value survives intact — a
// use-after-release would surface as corrupted or duplicated tuples, and
// under -race as a report.
func TestFramePoolRecyclingKeepsResults(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		job := &Job{}
		src := job.Add(&SourceOp{
			Label: "source", Partitions: 2,
			Produce: func(p int, emit func(Tuple) bool) error {
				for i := 0; i < 300; i++ {
					if !emit(Tuple{adm.Int64(int64(p*300 + i))}) {
						return nil
					}
				}
				return nil
			},
		})
		asn := job.Add(assignOp("assign", 2, func(t Tuple) (Tuple, error) { return t, nil }))
		agg := job.Add(&HashGroupOp{Label: "sum", Partitions: 1, Aggs: []GroupAgg{{Func: "sum"}}})
		job.Connect(src, asn, Connector{Kind: MToNPartitioning, HashColumns: []int{0}})
		job.Connect(asn, agg, Connector{Kind: MToNPartitioningMerging})
		out, err := Execute(job)
		if err != nil {
			t.Fatal(err)
		}
		want := adm.Double(599 * 600 / 2) // 0..599
		if len(out) != 1 || out[0][0] != adm.Value(want) {
			t.Fatalf("iter %d: sum = %v, want %v (frame recycling corrupted tuples?)", iter, out, want)
		}
	}
}

// TestFramePoolEarlyCloseAndCancel interleaves early cursor Close and context
// cancellation with pooled frames in flight; abandoned frames must fall to GC
// (never double-enter the pool), so later iterations keep producing correct
// results. Run under -race this is the frame-lifecycle regression test.
func TestFramePoolEarlyCloseAndCancel(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		var produced atomic.Int64
		cur, err := ExecuteStream(ctx, intSourceJob(3, 10_000, &produced))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		for i := 0; i < iter*3; i++ {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		if iter%2 == 0 {
			cancel() // cancel with frames in flight, then Close
		}
		cur.Close()
		cancel()
	}
	// After all that churn the pool must still hand out clean frames.
	var produced atomic.Int64
	cur, err := ExecuteStream(context.Background(), intSourceJob(2, 500, &produced))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("post-churn stream returned %d tuples, want 1000", n)
	}
}

func TestExecuteStreamDrainsCompletely(t *testing.T) {
	var produced atomic.Int64
	cur, err := ExecuteStream(context.Background(), intSourceJob(3, 500, &produced))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for {
		_, ok := cur.Next()
		if !ok {
			break
		}
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3*500 {
		t.Errorf("streamed %d tuples, want %d", n, 3*500)
	}
}

// TestExecuteStreamBoundedInFlight is the no-materialization guarantee: with
// the consumer paused after the first frame, the sources must stall once the
// per-edge channel buffers and the cursor's frame buffer fill, far short of
// the full input.
func TestExecuteStreamBoundedInFlight(t *testing.T) {
	const partitions, perPartition = 2, 500_000
	var produced atomic.Int64
	cur, err := ExecuteStream(context.Background(), intSourceJob(partitions, perPartition, &produced))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, ok := cur.Next(); !ok {
		t.Fatalf("no first tuple: %v", cur.Err())
	}
	// Let producers run as far as the buffers allow, then check they stalled.
	time.Sleep(100 * time.Millisecond)
	// Upper bound on tuples in flight: every channel hop (per partition) plus
	// the shared frame channel, all frame-batched, plus a frame being built in
	// each instance. The pipeline has 2 hops (source->select, select->cursor).
	bound := int64(partitions * (2*channelBuffer + streamBuffer + 4) * defaultFrameSize)
	if got := produced.Load(); got > bound {
		t.Errorf("sources produced %d tuples against a paused consumer; want <= %d (bounded in-flight)", got, bound)
	}
}

// TestExecuteStreamCloseStopsSources asserts the cancellation contract:
// closing the cursor early terminates every operator goroutine (Close blocks
// until they exit) without draining the scans.
func TestExecuteStreamCloseStopsSources(t *testing.T) {
	const partitions, perPartition = 4, 1_000_000
	var produced atomic.Int64
	cur, err := ExecuteStream(context.Background(), intSourceJob(partitions, perPartition, &produced))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatalf("stream ended early: %v", cur.Err())
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	total := int64(partitions * perPartition)
	if got := produced.Load(); got >= total/2 {
		t.Errorf("sources produced %d of %d tuples after early Close; cancellation should have stopped them", got, total)
	}
	if _, ok := cur.Next(); ok {
		t.Error("Next returned a tuple after Close")
	}
}

func TestExecuteStreamContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var produced atomic.Int64
	cur, err := ExecuteStream(ctx, intSourceJob(2, 1_000_000, &produced))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 5; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatalf("stream ended early: %v", cur.Err())
		}
	}
	cancel()
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", err)
	}
}

func TestExecuteStreamOperatorError(t *testing.T) {
	job := &Job{}
	src := job.Add(&SourceOp{
		Label: "source", Partitions: 1,
		Produce: func(int, func(Tuple) bool) error { return fmt.Errorf("boom") },
	})
	sink := job.Add(assignOp("assign", 1, func(t Tuple) (Tuple, error) { return t, nil }))
	job.Connect(src, sink, Connector{Kind: OneToOne})
	cur, err := ExecuteStream(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
	}
	if err := cur.Err(); err == nil || err.Error() != "boom" {
		t.Errorf("Err() = %v, want boom", err)
	}
	if err := cur.Close(); err == nil {
		t.Error("Close should report the operator error")
	}
}

// TestExecuteStreamSingleSinkOrderDeterministic: a parallelism-1 sort sink
// must stream its tuples in sorted order — the ordered-query guarantee.
func TestExecuteStreamSingleSinkOrderDeterministic(t *testing.T) {
	job := &Job{}
	src := job.Add(&SourceOp{
		Label: "source", Partitions: 3,
		Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < 100; i++ {
				if !emit(Tuple{adm.Int64(int64(i*3 + p))}) {
					return nil
				}
			}
			return nil
		},
	})
	sorted := job.Add(&SortOp{Label: "sort", Partitions: 1, Columns: []int{0}})
	job.Connect(src, sorted, Connector{Kind: MToNPartitioningMerging})
	cur, err := ExecuteStream(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	prev := int64(-1)
	n := 0
	for {
		tup, ok := cur.Next()
		if !ok {
			break
		}
		v, _ := adm.NumericAsInt64(tup[0])
		if v <= prev {
			t.Fatalf("stream out of order: %d after %d", v, prev)
		}
		prev = v
		n++
	}
	if n != 300 {
		t.Errorf("streamed %d tuples, want 300", n)
	}
}

// settle polls until the goroutine count is back to baseline, failing the
// test with a stack dump if it never gets there.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// quiescentGoroutines returns the goroutine count once it has held still for
// a few polls, so goroutines of an earlier test that are still on their way
// out do not count.
func quiescentGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); same < 5 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestJobGoroutinesAreItsInstances: a running job has one goroutine per
// local operator instance and no other — no context watcher and no
// completion goroutine, whatever the context.
func TestJobGoroutinesAreItsInstances(t *testing.T) {
	const partitions = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, fuse := range []bool{true, false} {
		release := make(chan struct{})
		var started sync.WaitGroup
		started.Add(partitions)
		job := &Job{}
		src := job.Add(&SourceOp{
			Label: "source", Partitions: partitions,
			Produce: func(p int, emit func(Tuple) bool) error {
				started.Done()
				<-release
				emit(Tuple{adm.Int64(int64(p))})
				return nil
			},
		})
		sel := job.Add(selectOp("select", partitions, func(Tuple) (bool, error) { return true, nil }))
		job.Connect(src, sel, Connector{Kind: OneToOne})
		want := 2 * partitions
		if fuse {
			job, want = FuseJob(job), partitions
		}
		baseline := quiescentGoroutines()
		cur, err := ExecuteStream(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		started.Wait()
		if got := runtime.NumGoroutine() - baseline; got != want {
			t.Errorf("fused=%v: the running job has %d goroutines, want %d (one per instance)", fuse, got, want)
		}
		close(release)
		out, err := cur.Gather()
		if err != nil || len(out) != partitions {
			t.Fatalf("fused=%v: %d rows, err %v", fuse, len(out), err)
		}
		settle(t, baseline)
	}
}

// TestJobCancelledAfterFinishReportsNoError: cancelling the context of a job
// that has already finished changes nothing.
func TestJobCancelledAfterFinishReportsNoError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var produced atomic.Int64
	cur, err := ExecuteStream(ctx, FuseJob(intSourceJob(2, 100, &produced)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		n++
	}
	cancel()
	if err := cur.Err(); err != nil || n != 200 {
		t.Fatalf("rows %d, Err() = %v after a cancel that followed the end; want 200 and nil", n, err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("Err() = %v after Close", err)
	}
}

// TestJobCancelledMidStreamLeaksNothing: a job cancelled while its sources
// are still producing ends with the context's error, and every goroutine it
// started exits.
func TestJobCancelledMidStreamLeaksNothing(t *testing.T) {
	for _, fuse := range []bool{true, false} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var produced atomic.Int64
		job := intSourceJob(4, 1_000_000, &produced)
		if fuse {
			job = FuseJob(job)
		}
		cur, err := ExecuteStream(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, ok := cur.Next(); !ok {
				t.Fatalf("stream ended early: %v", cur.Err())
			}
		}
		cancel()
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		if err := cur.Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("fused=%v: Err() = %v, want context.Canceled", fuse, err)
		}
		cur.Close()
		settle(t, baseline)
	}
}

// TestDistSliceWithoutLocalInstancesCompletes: a node holding no instance of
// a distributed job's slice finishes its cursor at once.
func TestDistSliceWithoutLocalInstancesCompletes(t *testing.T) {
	var produced atomic.Int64
	job := intSourceJob(2, 10, &produced)
	job.Profile = true
	cur, _, err := ExecuteStreamDist(context.Background(), job, &DistSpec{
		Local:   func(int, int) bool { return false },
		Send:    func(int, int, []Tuple) error { return errors.New("no frame may leave this node") },
		SendEOS: func(int, int) error { return errors.New("no instance may retire on this node") },
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := cur.NextFrame(); ok {
			t.Error("a slice with no instances produced a frame")
		}
		if err := cur.Close(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a slice with no local instances never completed")
	}
	if cur.Profile() == nil || len(cur.Profile().Operators) != 0 || produced.Load() != 0 {
		t.Fatalf("profile %+v, produced %d: want an empty profile and nothing produced", cur.Profile(), produced.Load())
	}
}
