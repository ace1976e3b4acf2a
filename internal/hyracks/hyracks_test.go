package hyracks

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"asterixdb/internal/adm"
)

// selectOp and assignOp build a filter and a one-to-one map as the FlatMapOp
// job builders emit for both.
func selectOp(label string, par int, pred func(Tuple) (bool, error)) *FlatMapOp {
	return &FlatMapOp{Label: label, Partitions: par, Fn: func(_ int, t Tuple, emit func(Tuple) bool) error {
		keep, err := pred(t)
		if err == nil && keep {
			emit(t)
		}
		return err
	}}
}

func assignOp(label string, par int, fn func(Tuple) (Tuple, error)) *FlatMapOp {
	return &FlatMapOp{Label: label, Partitions: par, Fn: func(_ int, t Tuple, emit func(Tuple) bool) error {
		out, err := fn(t)
		if err == nil && out != nil {
			emit(out)
		}
		return err
	}}
}

// buildScanSelectAggJob assembles a small job: a partitioned source emitting
// integers, a select keeping even values, a per-partition local sum, and a
// single global sum — the same local/global split shape as Figure 6.
func buildScanSelectAggJob(partitions, perPartition int) *Job {
	job := &Job{}
	src := job.Add(&SourceOp{
		Label:      "source",
		Partitions: partitions,
		Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < perPartition; i++ {
				if !emit(Tuple{adm.Int64(int64(p*perPartition + i))}) {
					return nil
				}
			}
			return nil
		},
	})
	sel := job.Add(selectOp("select-even", partitions, func(t Tuple) (bool, error) { n, _ := adm.NumericAsInt64(t[0]); return n%2 == 0, nil }))
	local := job.Add(&HashGroupOp{
		Label:      "local-sum",
		Partitions: partitions,
		Aggs:       []GroupAgg{{Func: "sum"}},
		Split:      Local,
	})
	global := job.Add(&HashGroupOp{
		Label:      "global-sum",
		Partitions: 1,
		Aggs:       []GroupAgg{{Func: "sum"}},
		Split:      Global,
	})
	job.Connect(src, sel, Connector{Kind: OneToOne})
	job.Connect(sel, local, Connector{Kind: OneToOne})
	job.Connect(local, global, Connector{Kind: MToNReplicating})
	return job
}

func TestExecuteScanSelectAggregate(t *testing.T) {
	const partitions, per = 4, 100
	job := buildScanSelectAggJob(partitions, per)
	results, err := Execute(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	want := int64(0)
	for i := 0; i < partitions*per; i++ {
		if i%2 == 0 {
			want += int64(i)
		}
	}
	got, _ := adm.NumericAsInt64(results[0][0])
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

// TestKeylessFoldSplit: a scalar aggregate is a keyless HashGroupOp. Local
// partials merged by a Global operator equal one Whole fold for every
// function, a null poisoning the AQL forms across partials; over empty input
// both emit exactly one tuple, count 0 and null otherwise.
func TestKeylessFoldSplit(t *testing.T) {
	aggs := []GroupAgg{{Func: "count"}, {Func: "sum"}, {Func: "avg"}, {Func: "min"}, {Func: "max"}, {Func: "sql-sum"}, {Func: "sql-min"}}
	run := func(perPartition int, withNull, split bool) []Tuple {
		job := &Job{}
		src := job.Add(&SourceOp{Label: "source", Partitions: 3, Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < perPartition; i++ {
				var v adm.Value = adm.Int64(int64(p*perPartition + i))
				if withNull && p == 1 && i == 2 {
					v = adm.Null{}
				}
				if !emit(Tuple{v}) {
					return nil
				}
			}
			return nil
		}})
		if !split {
			whole := job.Add(&HashGroupOp{Label: "whole", Partitions: 1, Aggs: aggs})
			job.Connect(src, whole, Connector{Kind: MToNPartitioningMerging})
		} else {
			local := job.Add(&HashGroupOp{Label: "local", Partitions: 3, Aggs: aggs, Split: Local})
			global := job.Add(&HashGroupOp{Label: "global", Partitions: 1, Aggs: aggs, Split: Global})
			job.Connect(src, local, Connector{Kind: OneToOne})
			job.Connect(local, global, Connector{Kind: MToNReplicating})
		}
		out, err := Execute(job)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, withNull := range []bool{false, true} {
		whole, split := run(50, withNull, false), run(50, withNull, true)
		if len(whole) != 1 || len(split) != 1 || fmt.Sprint(whole) != fmt.Sprint(split) {
			t.Errorf("null=%v: whole fold %v, local+global %v", withNull, whole, split)
		}
	}
	want := fmt.Sprint([]Tuple{{adm.Int64(0), adm.Null{}, adm.Null{}, adm.Null{}, adm.Null{}, adm.Null{}, adm.Null{}}})
	for _, split := range []bool{false, true} {
		if got := fmt.Sprint(run(0, false, split)); got != want {
			t.Errorf("split=%v over empty input: %s, want %s", split, got, want)
		}
	}
}

func TestDescribe(t *testing.T) {
	job := buildScanSelectAggJob(2, 10)
	desc := job.Describe()
	for _, want := range []string{"source", "select-even", "local-sum", "global-sum", "MToNReplicatingConnector"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	job := &Job{}
	a := job.Add(&SourceOp{Label: "a", Partitions: 1, Produce: func(int, func(Tuple) bool) error { return nil }})
	b := job.Add(selectOp("b", 1, func(Tuple) (bool, error) { return true, nil }))
	job.Connect(a, b, Connector{Kind: OneToOne})
	job.Connect(b, a, Connector{Kind: OneToOne})
	if _, err := Execute(job); err == nil {
		t.Error("executing a cyclic job should fail")
	}
}

func TestSortLimitAndHashGroup(t *testing.T) {
	job := &Job{}
	src := job.Add(&SourceOp{
		Label: "source", Partitions: 2,
		Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < 50; i++ {
				if !emit(Tuple{adm.Int32(int32(i % 5)), adm.Int32(int32(i))}) {
					return nil
				}
			}
			return nil
		},
	})
	group := job.Add(&HashGroupOp{
		Label: "group", Partitions: 2, KeyColumns: []int{0},
		Aggs: []GroupAgg{{Func: "count", Col: 1}},
	})
	sorted := job.Add(&SortOp{Label: "sort", Partitions: 1, Columns: []int{0}})
	limit := job.Add(&LimitOp{Label: "limit", Partitions: 1, N: 3})
	job.Connect(src, group, Connector{Kind: MToNPartitioning, HashColumns: []int{0}})
	job.Connect(group, sorted, Connector{Kind: MToNReplicating})
	job.Connect(sorted, limit, Connector{Kind: OneToOne})
	results, err := Execute(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("limit produced %d tuples", len(results))
	}
	// Hash partitioning on the key column means every group lands in exactly
	// one group instance, so each group's count must be 20 (2 partitions x 10).
	for _, r := range results {
		n, _ := adm.NumericAsInt64(r[1])
		if n != 20 {
			t.Errorf("group %v count = %d, want 20", r[0], n)
		}
	}
}

func TestHybridHashJoin(t *testing.T) {
	job := &Job{}
	probe := job.Add(&SourceOp{
		Label: "probe", Partitions: 2,
		Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < 10; i++ {
				if !emit(Tuple{adm.Int32(int32(i))}) {
					return nil
				}
			}
			return nil
		},
	})
	build := job.Add(&SourceOp{
		Label: "build", Partitions: 1,
		Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < 20; i += 2 {
				if !emit(Tuple{adm.Int32(int32(i)), adm.String(fmt.Sprintf("even-%d", i))}) {
					return nil
				}
			}
			return nil
		},
	})
	join := job.Add(&HybridHashJoinOp{
		Label: "join", Partitions: 2,
		BuildKey: func(t Tuple) adm.Value { return t[0] },
		ProbeKey: func(t Tuple) adm.Value { return t[0] },
		Combine:  func(probe, build Tuple) Tuple { return Tuple{probe[0], build[1]} },
	})
	job.Connect(probe, join, Connector{Kind: MToNPartitioning, HashColumns: []int{0}})
	job.ConnectPort(build, join, 1, Connector{Kind: MToNPartitioning, HashColumns: []int{0}})
	results, err := Execute(job)
	if err != nil {
		t.Fatal(err)
	}
	// Each probe partition emits 0..9; even keys match. 2 partitions x 5 = 10.
	if len(results) != 10 {
		t.Errorf("join produced %d tuples, want 10", len(results))
	}
}

func TestOperatorError(t *testing.T) {
	job := &Job{}
	src := job.Add(&SourceOp{
		Label: "source", Partitions: 1,
		Produce: func(int, func(Tuple) bool) error { return fmt.Errorf("boom") },
	})
	sink := job.Add(assignOp("assign", 1, func(t Tuple) (Tuple, error) { return t, nil }))
	job.Connect(src, sink, Connector{Kind: OneToOne})
	if _, err := Execute(job); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("expected operator error, got %v", err)
	}
}

// TestLimitCancelsUpstreamScan is the cancellation contract: once a limit has
// forwarded its N tuples it returns, and the sources feeding it must observe
// emit() == false and stop scanning instead of producing their entire input.
func TestLimitCancelsUpstreamScan(t *testing.T) {
	const partitions, perPartition, limitN = 2, 200_000, 5
	var produced atomic.Int64
	job := &Job{}
	src := job.Add(&SourceOp{
		Label: "source", Partitions: partitions,
		Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < perPartition; i++ {
				produced.Add(1)
				if !emit(Tuple{adm.Int64(int64(i))}) {
					return nil
				}
			}
			return nil
		},
	})
	sel := job.Add(selectOp("select", partitions, func(Tuple) (bool, error) { return true, nil }))
	limit := job.Add(&LimitOp{Label: "limit", Partitions: 1, N: limitN})
	job.Connect(src, sel, Connector{Kind: OneToOne})
	job.Connect(sel, limit, Connector{Kind: MToNPartitioningMerging})
	results, err := Execute(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != limitN {
		t.Fatalf("limit produced %d tuples, want %d", len(results), limitN)
	}
	total := int64(partitions * perPartition)
	if got := produced.Load(); got >= total/2 {
		t.Errorf("sources produced %d of %d tuples; limit should have cancelled the scans early", got, total)
	}
}

// TestEarlyConsumerReturnDoesNotDeadlock exercises the per-instance done
// channels: a consumer that errors out mid-stream must not leave producers
// blocked on its input channel.
func TestEarlyConsumerReturnDoesNotDeadlock(t *testing.T) {
	job := &Job{}
	src := job.Add(&SourceOp{
		Label: "source", Partitions: 4,
		Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < 10_000; i++ {
				if !emit(Tuple{adm.Int64(int64(i))}) {
					return nil
				}
			}
			return nil
		},
	})
	n := 0
	sink := job.Add(assignOp("failing-assign", 1, func(t Tuple) (Tuple, error) {
		n++
		if n > 3 {
			return nil, fmt.Errorf("synthetic failure")
		}
		return t, nil
	}))
	job.Connect(src, sink, Connector{Kind: MToNPartitioningMerging})
	if _, err := Execute(job); err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("expected synthetic failure, got %v", err)
	}
}
