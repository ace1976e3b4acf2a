package hyracks

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/runfile"
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

// TestFuseJobRespectsBoundaries checks what stops a chain: a real merge, a
// holding stage that would head a chain, a blocking operator that is not a
// holding stage, partitioning connectors, fan-out and join ports. A sort
// behind a one-to-one edge of equal parallelism fuses through.
func TestFuseJobRespectsBoundaries(t *testing.T) {
	// The secondary-index shape: source -> select -> sort -> assign, all
	// one-to-one at parallelism 2, is one fused chain, the sort inside it.
	job := &Job{}
	src := job.Add(mkSource(2, 10))
	sel := job.Add(selectOp("select", 2, func(Tuple) (bool, error) { return true, nil }))
	srt := job.Add(&SortOp{Label: "sort", Partitions: 2, Columns: []int{1}})
	asn := job.Add(assignOp("assign", 2, func(t Tuple) (Tuple, error) { return t, nil }))
	job.Connect(src, sel, Connector{Kind: OneToOne})
	job.Connect(sel, srt, Connector{Kind: OneToOne})
	job.Connect(srt, asn, Connector{Kind: OneToOne})
	fused := FuseJob(job)
	if len(fused.Operators) != 1 {
		t.Fatalf("one-to-one sort chain: got %d operators, want 1:\n%s", len(fused.Operators), fused.Describe())
	}
	if f, ok := fused.Operators[0].(*FusedOp); !ok || len(f.Ops) != 4 || f.Parallelism() != 2 || !f.Blocking() {
		t.Fatalf("unexpected chain %s", fused.Operators[0].Name())
	}

	// A sort behind a 2 -> 1 merge stays unfused, and so does what follows
	// it: a holding stage never heads a chain.
	job = &Job{}
	src = job.Add(mkSource(2, 10))
	sel = job.Add(selectOp("select", 2, func(Tuple) (bool, error) { return true, nil }))
	srt = job.Add(&SortOp{Label: "sort", Partitions: 1, Columns: []int{1}})
	asn = job.Add(assignOp("assign", 1, func(t Tuple) (Tuple, error) { return t, nil }))
	job.Connect(src, sel, Connector{Kind: OneToOne})
	job.Connect(sel, srt, Connector{Kind: MToNPartitioningMerging}) // merge: not fusable
	job.Connect(srt, asn, Connector{Kind: OneToOne})                // sort would head a chain
	fused = FuseJob(job)
	if len(fused.Operators) != len(job.Operators)-1 {
		t.Fatalf("got %d operators, want %d:\n%s", len(fused.Operators), len(job.Operators)-1, fused.Describe())
	}
	// src+select fused (OneToOne, same parallelism); sort and assign did not.
	found := false
	for _, op := range fused.Operators {
		if f, ok := op.(*FusedOp); ok {
			found = true
			if len(f.Ops) != 2 || f.Parallelism() != 2 || f.Blocking() {
				t.Errorf("unexpected fused chain %s (par %d)", f.Name(), f.Parallelism())
			}
		}
	}
	if !found {
		t.Fatalf("no fused operator in:\n%s", fused.Describe())
	}

	// The hash group-by holds its input too, but it is no holding stage: a
	// one-to-one edge into it or out of it does not fuse.
	job = &Job{}
	src = job.Add(mkSource(2, 10))
	grp := job.Add(&HashGroupOp{Label: "group", Partitions: 2, KeyColumns: []int{1}})
	asn = job.Add(assignOp("assign", 2, func(t Tuple) (Tuple, error) { return t, nil }))
	job.Connect(src, grp, Connector{Kind: OneToOne})
	job.Connect(grp, asn, Connector{Kind: OneToOne})
	if fused = FuseJob(job); fused != job {
		t.Fatalf("group-by fused:\n%s", fused.Describe())
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

// fusedSortJob is source(par) -> sort(par) -> limit(par) -> assign(par): a
// one-to-one chain FuseJob collapses whole. fail, when set, makes the
// assign fail at that value. The job has no Spill manager of its own, so
// nothing but the sort itself removes its run files.
func fusedSortJob(par, perPartition, limit int, spill *runfile.Budget, fail int) *Job {
	job := &Job{}
	src := job.Add(&SourceOp{
		Label: "source", Partitions: par,
		Produce: func(p int, emit func(Tuple) bool) error {
			for i := 0; i < perPartition; i++ {
				if !emit(intTuple((i*7919+p)%(perPartition/3+1), i)) {
					return nil
				}
			}
			return nil
		},
	})
	srt := job.Add(&SortOp{Label: "sort", Partitions: par, Columns: []int{0}, Spill: spill})
	lim := job.Add(&LimitOp{Label: "limit", Partitions: par, N: limit})
	asn := job.Add(assignOp("assign", par, func(t Tuple) (Tuple, error) {
		if fail >= 0 && int(t[1].(adm.Int64)) == fail {
			return nil, fmt.Errorf("assign failed at %d", fail)
		}
		return t, nil
	}))
	job.Connect(src, srt, Connector{Kind: OneToOne})
	job.Connect(srt, lim, Connector{Kind: OneToOne})
	job.Connect(lim, asn, Connector{Kind: OneToOne})
	return job
}

// TestFusedSortMatchesUnfused runs a spilling sort inside a fused chain: the
// chain is one operator, its output is the unfused job's stably sorted
// output, the sort spills within its budget, and every path — success, a
// stage error below the sort, and an early Close — leaves no run file.
func TestFusedSortMatchesUnfused(t *testing.T) {
	const par, per, limit, budget = 2, 1500, 1200, 8 << 10
	newBudget := func() (*runfile.Budget, string) {
		dir := t.TempDir()
		return &runfile.Budget{M: runfile.NewManager(dir, budget), PerInstance: budget / par}, dir
	}
	want := runToSink(t, fusedSortJob(par, per, limit, nil, -1))
	if len(want) != par*limit {
		t.Fatalf("unfused run returned %d rows, want %d", len(want), par*limit)
	}

	b, dir := newBudget()
	fused := FuseJob(fusedSortJob(par, per, limit, b, -1))
	if len(fused.Operators) != 1 {
		t.Fatalf("chain did not fuse:\n%s", fused.Describe())
	}
	assertSameTuples(t, "fused-sort", runToSink(t, fused), want, true)
	assertSpilledAndClean(t, b.M, budget, dir)

	// The assign below the sort fails part-way through the sort's output.
	b, dir = newBudget()
	if _, err := Execute(FuseJob(fusedSortJob(par, per, limit, b, int(want[10][1].(adm.Int64))))); err == nil || !strings.Contains(err.Error(), "assign failed") {
		t.Fatalf("stage error below a fused sort = %v", err)
	}
	assertSpilledAndClean(t, b.M, budget, dir)

	// The consumer closes after the first row.
	b, dir = newBudget()
	cur, err := ExecuteStream(context.Background(), FuseJob(fusedSortJob(par, per, limit, b, -1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Next(); !ok {
		t.Fatalf("no first row: %v", cur.Err())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	assertSpilledAndClean(t, b.M, budget, dir)
}

// TestFusedSortStageCounts: a profiled fused sort reports the same per-stage
// tuple counts as the unfused operators, and its spill row. The limit cuts
// nothing: how far an unfused producer overruns a satisfied limit depends
// on channel buffering, so only an uncut run has comparable counts.
func TestFusedSortStageCounts(t *testing.T) {
	run := func(job *Job) *JobProfile {
		job.Profile = true
		cur, err := ExecuteStream(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := cur.Next(); !ok {
				break
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		return cur.Profile()
	}
	budget := func() *runfile.Budget {
		return &runfile.Budget{M: runfile.NewManager(t.TempDir(), 0), Obs: &runfile.SpillObserver{}}
	}
	unfused := run(fusedSortJob(2, 300, 1000, budget(), -1))
	fused := run(FuseJob(fusedSortJob(2, 300, 1000, budget(), -1)))
	for _, name := range []string{"source", "sort", "limit", "assign"} {
		if f, u := fused.OutByName()[name], unfused.OutByName()[name]; f != u {
			t.Errorf("%s: fused out %d, unfused %d", name, f, u)
		}
		if f, u := fused.InByName()[name], unfused.InByName()[name]; f != u {
			t.Errorf("%s: fused in %d, unfused %d", name, f, u)
		}
	}
	if got := fused.InByName()["sort"]; got != 600 {
		t.Errorf("sort in = %d, want 600", got)
	}
	if len(fused.Spill) != 1 || fused.Spill[0].Name != "sort" || fused.Spill[0].PeakBytes <= 0 {
		t.Errorf("fused sort spill rows = %+v, want one resident sort row", fused.Spill)
	}
}
