package hyracks

import (
	"fmt"
	"strings"
	"testing"

	"asterixdb/internal/adm"
)

// mkSource produces ints [0, n) per partition, tagged with the partition.
func mkSource(par, n int) *SourceOp {
	return &SourceOp{
		Label:      "src",
		Partitions: par,
		Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < n; i++ {
				if !emit(Tuple{adm.Int64(p), adm.Int64(i)}) {
					return nil
				}
			}
			return nil
		},
	}
}

// TestFuseJobCollapsesChain fuses source -> select -> assign -> limit into a
// single operator and checks the fused job produces exactly the unfused
// results.
func TestFuseJobCollapsesChain(t *testing.T) {
	build := func() *Job {
		job := &Job{}
		src := job.Add(mkSource(1, 100))
		sel := job.Add(selectOp("select", 1, func(t Tuple) (bool, error) {
			return int64(t[1].(adm.Int64))%2 == 0, nil
		}))
		asn := job.Add(assignOp("assign", 1, func(t Tuple) (Tuple, error) {
			return append(append(Tuple{}, t...), adm.Int64(int64(t[1].(adm.Int64))*10)), nil
		}))
		lim := job.Add(&LimitOp{Label: "limit", Partitions: 1, N: 7, Offset: 2})
		job.Connect(src, sel, Connector{Kind: OneToOne})
		job.Connect(sel, asn, Connector{Kind: OneToOne})
		job.Connect(asn, lim, Connector{Kind: OneToOne})
		return job
	}

	plain := build()
	want, err := Execute(plain)
	if err != nil {
		t.Fatal(err)
	}

	fused := FuseJob(build())
	if len(fused.Operators) != 1 {
		t.Fatalf("fused job has %d operators, want 1:\n%s", len(fused.Operators), fused.Describe())
	}
	name := fused.Operators[0].Name()
	for _, part := range []string{"fused[", "src", "select", "assign", "limit"} {
		if !strings.Contains(name, part) {
			t.Errorf("fused operator name %q is missing %q", name, part)
		}
	}
	got, err := Execute(fused)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 7 {
		t.Fatalf("fused result %d rows, unfused %d rows, want 7", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("row %d: fused %v, unfused %v", i, got[i], want[i])
		}
	}
}

// TestFuseJobRespectsBoundaries checks that blocking operators, partitioning
// connectors, fan-out and parallelism changes all stop a chain.
func TestFuseJobRespectsBoundaries(t *testing.T) {
	job := &Job{}
	src := job.Add(mkSource(2, 10))
	sel := job.Add(selectOp("select", 2, func(Tuple) (bool, error) { return true, nil }))
	srt := job.Add(&SortOp{Label: "sort", Partitions: 1, Columns: []int{1}})
	asn := job.Add(assignOp("assign", 1, func(t Tuple) (Tuple, error) { return t, nil }))
	job.Connect(src, sel, Connector{Kind: OneToOne})
	job.Connect(sel, srt, Connector{Kind: MToNPartitioningMerging}) // merge: not fusable
	job.Connect(srt, asn, Connector{Kind: OneToOne})                // sort is blocking: not fusable

	fused := FuseJob(job)
	if len(fused.Operators) != len(job.Operators)-1 {
		t.Fatalf("got %d operators, want %d:\n%s", len(fused.Operators), len(job.Operators)-1, fused.Describe())
	}
	// src+select fused (OneToOne, same parallelism); sort and assign did not.
	found := false
	for _, op := range fused.Operators {
		if f, ok := op.(*FusedOp); ok {
			found = true
			if len(f.Ops) != 2 || f.Parallelism() != 2 {
				t.Errorf("unexpected fused chain %s (par %d)", f.Name(), f.Parallelism())
			}
		}
	}
	if !found {
		t.Fatalf("no fused operator in:\n%s", fused.Describe())
	}

	// Fan-out blocks fusion entirely.
	job2 := &Job{}
	s2 := job2.Add(mkSource(1, 5))
	a := job2.Add(assignOp("a", 1, func(t Tuple) (Tuple, error) { return t, nil }))
	b := job2.Add(assignOp("b", 1, func(t Tuple) (Tuple, error) { return t, nil }))
	job2.Connect(s2, a, Connector{Kind: OneToOne})
	job2.Connect(s2, b, Connector{Kind: OneToOne})
	if fused2 := FuseJob(job2); len(fused2.Operators) != 3 {
		t.Fatalf("fan-out fused: %s", fused2.Describe())
	}

	// A join build port (port 1) blocks fusion into the join.
	job3 := &Job{}
	probe := job3.Add(mkSource(1, 5))
	bld := job3.Add(mkSource(1, 5))
	join := job3.Add(&HybridHashJoinOp{
		Label: "join", Partitions: 1,
		BuildKey: func(t Tuple) adm.Value { return t[1] },
		ProbeKey: func(t Tuple) adm.Value { return t[1] },
		Combine:  func(p, b Tuple) Tuple { return append(append(Tuple{}, p...), b...) },
	})
	job3.Connect(probe, join, Connector{Kind: OneToOne})
	job3.ConnectPort(bld, join, 1, Connector{Kind: OneToOne})
	if fused3 := FuseJob(job3); len(fused3.Operators) != 3 {
		t.Fatalf("join ports fused: %s", fused3.Describe())
	}
}

// TestFuseJobCrossesDegenerateMergingEdge is the regression test for the
// fusion gap: a MToNPartitioningMerging edge whose producer has exactly one
// instance is a one-to-one handoff in disguise (nothing to merge), yet it
// used to stop fusion cold. A serial source -> merging -> select -> assign
// chain must now collapse into a single fused operator — visible in the job
// description — and still produce the unfused results.
func TestFuseJobCrossesDegenerateMergingEdge(t *testing.T) {
	build := func() *Job {
		job := &Job{}
		src := job.Add(mkSource(1, 50))
		sel := job.Add(selectOp("select", 1, func(t Tuple) (bool, error) {
			return int64(t[1].(adm.Int64))%3 == 0, nil
		}))
		asn := job.Add(assignOp("assign", 1, func(t Tuple) (Tuple, error) {
			return append(append(Tuple{}, t...), adm.Int64(int64(t[1].(adm.Int64))+1)), nil
		}))
		job.Connect(src, sel, Connector{Kind: MToNPartitioningMerging})
		job.Connect(sel, asn, Connector{Kind: OneToOne})
		return job
	}

	want, err := Execute(build())
	if err != nil {
		t.Fatal(err)
	}
	fused := FuseJob(build())
	if len(fused.Operators) != 1 {
		t.Fatalf("serial merging edge did not fuse: %d operators\n%s",
			len(fused.Operators), fused.Describe())
	}
	desc := fused.Describe()
	if !strings.Contains(desc, "fused[") {
		t.Fatalf("job description does not show the fused chain:\n%s", desc)
	}
	got, err := Execute(fused)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fused result %d rows, unfused %d", len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("row %d: fused %v, unfused %v", i, got[i], want[i])
		}
	}

	// The same shape with a parallel producer must NOT fuse: the merging
	// connector is then a real merge boundary.
	job := &Job{}
	src := job.Add(mkSource(2, 10))
	sel := job.Add(selectOp("select", 2, func(Tuple) (bool, error) { return true, nil }))
	asn := job.Add(assignOp("assign", 1, func(t Tuple) (Tuple, error) { return t, nil }))
	job.Connect(src, sel, Connector{Kind: OneToOne})
	job.Connect(sel, asn, Connector{Kind: MToNPartitioningMerging})
	if f := FuseJob(job); len(f.Operators) != 2 {
		t.Fatalf("parallel merging edge fused:\n%s", f.Describe())
	}
}

// TestFusedLimitStopsSource checks the cancellation contract survives fusion:
// a fused limit must stop its in-chain source early, not drain it.
func TestFusedLimitStopsSource(t *testing.T) {
	produced := 0
	job := &Job{}
	src := job.Add(&SourceOp{
		Label:      "src",
		Partitions: 1,
		Produce: func(_ int, emit func(Tuple) bool) error {
			for i := 0; i < 1_000_000; i++ {
				produced++
				if !emit(Tuple{adm.Int64(i)}) {
					return nil
				}
			}
			return nil
		},
	})
	lim := job.Add(&LimitOp{Label: "limit", Partitions: 1, N: 5})
	job.Connect(src, lim, Connector{Kind: OneToOne})
	fused := FuseJob(job)
	if len(fused.Operators) != 1 {
		t.Fatalf("limit chain did not fuse:\n%s", fused.Describe())
	}
	out, err := Execute(fused)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d rows, want 5", len(out))
	}
	if produced > 6 {
		t.Fatalf("source produced %d tuples; the fused limit must cancel it at 5", produced)
	}
}

// TestFusedStageErrorPropagates checks a mid-chain stage error surfaces as
// the job error and stops the source, exactly like an unfused operator error.
func TestFusedStageErrorPropagates(t *testing.T) {
	produced := 0
	job := &Job{}
	src := job.Add(&SourceOp{
		Label:      "src",
		Partitions: 1,
		Produce: func(_ int, emit func(Tuple) bool) error {
			for i := 0; i < 1000; i++ {
				produced++
				if !emit(Tuple{adm.Int64(i)}) {
					return nil
				}
			}
			return nil
		},
	})
	asn := job.Add(assignOp("assign", 1, func(t Tuple) (Tuple, error) {
		if int64(t[0].(adm.Int64)) == 3 {
			return nil, fmt.Errorf("boom at 3")
		}
		return t, nil
	}))
	job.Connect(src, asn, Connector{Kind: OneToOne})
	fused := FuseJob(job)
	if len(fused.Operators) != 1 {
		t.Fatalf("chain did not fuse:\n%s", fused.Describe())
	}
	_, err := Execute(fused)
	if err == nil || !strings.Contains(err.Error(), "boom at 3") {
		t.Fatalf("fused stage error = %v, want boom", err)
	}
	if produced > 5 {
		t.Fatalf("source produced %d tuples after the stage error", produced)
	}
}
