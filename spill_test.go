package asterixdb

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/hyracks"
)

// This file is the query-level face of the out-of-core runtime tests: joins,
// sorts and group-bys whose working sets exceed Config.MemoryBudget must
// complete with spilling, produce results identical to the unconstrained
// run with bounded in-memory tuple residency, and leave zero run files
// behind on every termination path (success, operator error, early cursor
// Close, context cancellation).

// spillPad makes every record ~300 bytes so a few thousand records dwarf a
// tens-of-kilobytes budget.
var spillPad = strings.Repeat("x", 250)

const spillBudget = 32 << 10

// newSpillInstance builds an instance holding spillRecords records across
// two datasets (SpillA self-joinable against SpillB on cat).
func newSpillInstance(t testing.TB, budget int64, records int) *Instance {
	t.Helper()
	return newSpillVariant(t, budget, records, variant{})
}

// newSpillVariant is newSpillInstance running the given reference job shape.
func newSpillVariant(t testing.TB, budget int64, records int, v variant) *Instance {
	t.Helper()
	inst, err := open(Config{DataDir: t.TempDir(), Partitions: 2, MemoryBudget: budget}, v)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	if _, err := inst.Execute(`
create type SpillType as closed { id: int32, cat: int32, pad: string }
create dataset SpillA(SpillType) primary key id;
create dataset SpillB(SpillType) primary key id;`); err != nil {
		t.Fatal(err)
	}
	mkBatch := func(n int) []*adm.Record {
		recs := make([]*adm.Record, n)
		for i := range recs {
			recs[i] = adm.NewRecord(
				adm.Field{Name: "id", Value: adm.Int32(int32(i + 1))},
				adm.Field{Name: "cat", Value: adm.Int32(int32(i % 97))},
				adm.Field{Name: "pad", Value: adm.String(spillPad)},
			)
		}
		return recs
	}
	dsA, _ := inst.Dataset("SpillA")
	if _, err := dsA.InsertBatch(mkBatch(records)); err != nil {
		t.Fatal(err)
	}
	dsB, _ := inst.Dataset("SpillB")
	if _, err := dsB.InsertBatch(mkBatch(records / 2)); err != nil {
		t.Fatal(err)
	}
	return inst
}

// assertNoSpillFiles asserts the instance's spill directory holds no files.
func assertNoSpillFiles(t *testing.T, inst *Instance) {
	t.Helper()
	var leaked []string
	filepath.Walk(inst.SpillDir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			leaked = append(leaked, path)
		}
		return nil
	})
	if len(leaked) > 0 {
		t.Fatalf("leaked run files under %s: %v", inst.SpillDir(), leaked)
	}
}

// spillQueries are one query per spillable operator, each with a working set
// far above the budget: the join build side, the sort input, and the
// group-by table all exceed it.
var spillQueries = []struct {
	name    string
	query   string
	ordered bool
}{
	{"join-build-exceeds-budget", `
for $a in dataset SpillA
for $b in dataset SpillB
where $a.cat = $b.cat
return { "a": $a.id, "b": $b.id };`, false},
	{"sort-input-exceeds-budget", `
for $r in dataset SpillA
order by $r.cat, $r.id
return { "id": $r.id, "cat": $r.cat };`, true},
	// The nested for over $r is a genuine bag use, so this group-by cannot
	// fold incrementally and must materialize (and spill) its row bags; a
	// count-only group-by now folds accumulators and never spills (see
	// TestGroupByIncrementalFold).
	{"groupby-table-exceeds-budget", `
for $r in dataset SpillA
group by $c := $r.cat with $r
return { "c": $c, "n": count($r), "maxid": max(for $x in $r return $x.id) };`, false},
}

// TestSpillingQueriesMatchUnconstrained is the acceptance test for the
// out-of-core runtime: every spill query runs on a budget-constrained
// instance and an unconstrained one, results must be identical, the
// constrained run must actually spill while keeping resident bytes bounded,
// and no run files may survive.
func TestSpillingQueriesMatchUnconstrained(t *testing.T) {
	// Neutralize the CI low-memory job's env-driven budget: the oracle side
	// must be genuinely unconstrained, or a deterministic spilling bug would
	// compare the out-of-core path against itself.
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	constrained := newSpillInstance(t, spillBudget, 2000)
	unconstrained := newSpillInstance(t, 0, 2000)
	for _, q := range spillQueries {
		t.Run(q.name, func(t *testing.T) {
			// Run once through CompileJob so the job's spill manager is
			// observable: the query must spill, stay within the budget (one
			// in-flight tuple of slack per budgeted operator instance), and
			// release every run file.
			job, _, err := constrained.compileJob(q.query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := constrained.runJob(job)
			if err != nil {
				t.Fatal(err)
			}
			if job.Spill == nil {
				t.Fatal("constrained job has no spill manager")
			}
			st := job.Spill.Stats()
			if st.RunsCreated == 0 {
				t.Fatalf("query did not spill (stats %+v)", st)
			}
			if slack := int64(8 << 10); st.PeakResident > spillBudget+slack {
				t.Fatalf("peak resident %d bytes exceeds the %d budget (+%d slack)", st.PeakResident, spillBudget, slack)
			}
			if st.LiveRuns != 0 {
				t.Fatalf("%d run files live after success", st.LiveRuns)
			}
			want, err := unconstrained.Query(q.query)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, q.name, got, want, q.ordered)
			assertNoSpillFiles(t, constrained)
		})
	}
}

// TestSpillCleanupOnError forces an operator error after spilling has begun
// (a sort over a field holding incomparable mixed types) and asserts the
// error surfaces and no run files survive.
func TestSpillCleanupOnError(t *testing.T) {
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 2, MemoryBudget: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Execute(`
create type OpenType as open { id: int32 }
create dataset Mixed(OpenType) primary key id;`); err != nil {
		t.Fatal(err)
	}
	ds, _ := inst.Dataset("Mixed")
	recs := make([]*adm.Record, 1500)
	for i := range recs {
		var v adm.Value = adm.Int32(int32(i))
		if i == len(recs)-1 {
			v = adm.String("not-a-number") // incomparable with the ints
		}
		recs[i] = adm.NewRecord(
			adm.Field{Name: "id", Value: adm.Int32(int32(i + 1))},
			adm.Field{Name: "v", Value: v},
			adm.Field{Name: "pad", Value: adm.String(spillPad)},
		)
	}
	if _, err := ds.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	_, err = inst.Query(`for $r in dataset Mixed order by $r.v return $r.id;`)
	if err == nil {
		t.Fatal("expected a comparison error from the mixed-type sort")
	}
	assertNoSpillFiles(t, inst)
}

// TestSpillCleanupOnEarlyClose closes a streaming cursor after one row while
// the spilling job is still running.
func TestSpillCleanupOnEarlyClose(t *testing.T) {
	inst := newSpillInstance(t, 16<<10, 2000)
	cur, err := inst.QueryStream(context.Background(), `
for $r in dataset SpillA order by $r.cat, $r.id return $r.id;`)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first row: %v", cur.Err())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoSpillFiles(t, inst)
}

// TestSpillCleanupOnContextCancel cancels the cursor's context mid-stream.
func TestSpillCleanupOnContextCancel(t *testing.T) {
	inst := newSpillInstance(t, 16<<10, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := inst.QueryStream(ctx, `
for $a in dataset SpillA for $b in dataset SpillB where $a.cat = $b.cat return $a.id;`)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first row: %v", cur.Err())
	}
	cancel()
	// Close blocks until every job goroutine exited and spill cleanup ran.
	cur.Close()
	if err := cur.Err(); err != context.Canceled && err != nil {
		t.Logf("cursor ended with %v", err)
	}
	assertNoSpillFiles(t, inst)
}

// TestSecondaryIndexSortSpillsInsideFusedChain: the secondary-index access
// path runs as one fused chain per partition, its primary-key sort included.
// Under a 4 KiB budget that sort spills inside the chain, the result is the
// unfused job's, and no run file survives completion, an operator error
// below the sort, or an early Close.
func TestSecondaryIndexSortSpillsInsideFusedChain(t *testing.T) {
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	const budget = 4 << 10
	fused := newSpillVariant(t, budget, 2000, variant{})
	unfused := newSpillVariant(t, budget, 2000, variant{unfused: true})
	for _, inst := range []*Instance{fused, unfused} {
		if _, err := inst.Execute(`create index SpillACat on SpillA(cat);`); err != nil {
			t.Fatal(err)
		}
	}
	const query = `for $r in dataset SpillA where $r.cat >= 10 and $r.cat < 60 return $r.id;`
	job, _, err := fused.compileJob(query)
	if err != nil {
		t.Fatal(err)
	}
	if chain := "fused[btree-search(SpillACat) -> sort(primary-keys) -> btree-search(SpillA) -> "; !strings.HasPrefix(job.Describe(), chain) {
		t.Fatalf("job is not the one chain %q:\n%s", chain, job.Describe())
	}
	got, err := fused.runJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.Spill.Stats(); st.RunsCreated == 0 || st.LiveRuns != 0 {
		t.Fatalf("fused sort spill stats %+v: want runs created and none live", st)
	}
	want, err := unfused.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the query matched nothing")
	}
	sameResults(t, "fused-vs-unfused secondary index under 4 KiB", got, want, false)
	assertNoSpillFiles(t, fused)

	// Every row fails in the return, after the sort has spilled everything.
	if _, err := fused.Query(`for $r in dataset SpillA where $r.cat >= 10 and $r.cat < 60 return $r.id + $r.pad;`); err == nil {
		t.Fatal("want an arithmetic error from the return")
	}
	assertNoSpillFiles(t, fused)

	cur, err := fused.QueryStream(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first row: %v", cur.Err())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoSpillFiles(t, fused)
}

// TestLimitPushdownIntoScan asserts the ROADMAP follow-up: with a limit
// directly above the scan, each partition's scan emits at most offset+limit
// tuples instead of overrunning by a frame.
func TestLimitPushdownIntoScan(t *testing.T) {
	inst := newSpillInstance(t, 0, 500)
	job, _, err := inst.compileJob(`for $r in dataset SpillA limit 3 return $r;`)
	if err != nil {
		t.Fatal(err)
	}
	counts := instrumentScans(t, job)
	if _, err := inst.runJob(job); err != nil {
		t.Fatal(err)
	}
	for p, n := range counts {
		if n > 3 {
			t.Errorf("partition %d scan emitted %d tuples; want <= 3 (limit pushed down)", p, n)
		}
	}

	// A select between limit and scan must block the pushdown: the scan
	// cannot know how many records survive the filter.
	job2, _, err := inst.compileJob(`for $r in dataset SpillA where $r.cat = 5 limit 1 return $r;`)
	if err != nil {
		t.Fatal(err)
	}
	counts2 := instrumentScans(t, job2)
	res, err := inst.runJob(job2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("filtered limit returned %d rows", len(res))
	}
	total := 0
	for _, n := range counts2 {
		total += n
	}
	if total <= 2 {
		t.Fatalf("filtered scan emitted only %d tuples; the bound must not apply below a select", total)
	}
}

// instrumentScans wraps every datasource-scan source in the job with a
// per-partition emit counter (mutex-guarded: the instances run
// concurrently). Read the map only after the job has completed.
func instrumentScans(t *testing.T, job *hyracks.Job) map[int]int {
	t.Helper()
	var mu sync.Mutex
	counts := map[int]int{}
	found := false
	for _, op := range job.FlatOperators() {
		src, ok := op.(*hyracks.SourceOp)
		if !ok || !strings.HasPrefix(src.Label, "datasource-scan") {
			continue
		}
		found = true
		inner := src.Produce
		src.Produce = func(p int, emit func(hyracks.Tuple) bool) error {
			return inner(p, func(tu hyracks.Tuple) bool {
				mu.Lock()
				counts[p]++
				mu.Unlock()
				return emit(tu)
			})
		}
	}
	if !found {
		t.Fatal("no datasource-scan operator in job")
	}
	return counts
}

// TestFrameSizeDerivedFromBudget pins the frameSize-as-job-parameter
// satellite: constrained jobs carry a budget-derived frame size, while
// unconstrained jobs keep the default.
func TestFrameSizeDerivedFromBudget(t *testing.T) {
	constrained := newSpillInstance(t, spillBudget, 10)
	job, _, err := constrained.compileJob(`for $r in dataset SpillA order by $r.id return $r.id;`)
	if err != nil {
		t.Fatal(err)
	}
	if want := hyracks.FrameSizeForBudget(spillBudget); job.FrameSize != want {
		t.Fatalf("job frame size %d, want %d", job.FrameSize, want)
	}
	if job.FrameSize >= 64 || job.FrameSize < 4 {
		t.Fatalf("budget %d derived frame size %d outside (4, 64)", int64(spillBudget), job.FrameSize)
	}
	// Neutralize the CI low-memory job's env-driven budget: this half of the
	// test needs a genuinely unconstrained instance.
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	unconstrained := newSpillInstance(t, 0, 10)
	job2, _, err := unconstrained.compileJob(`for $r in dataset SpillA order by $r.id return $r.id;`)
	if err != nil {
		t.Fatal(err)
	}
	if job2.FrameSize != 64 {
		t.Fatalf("unconstrained job frame size %d, want 64 (the runtime default)", job2.FrameSize)
	}
}

// TestCrossJoinSpillsBroadcastSide covers the formerly unbudgeted broadcast
// buffer: a non-equi (nested-loop) join whose replicated right side exceeds
// the budget must spill it to a run file, run as a block nested loop with
// bounded residency, release every file, and match the unconstrained result.
func TestCrossJoinSpillsBroadcastSide(t *testing.T) {
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	constrained := newSpillInstance(t, spillBudget, 800)
	unconstrained := newSpillInstance(t, 0, 800)
	// "!=" has no equijoin key, so the optimizer emits the nested-loop join
	// with the right side broadcast; the where keeps output size sane.
	query := `
for $a in dataset SpillA
for $b in dataset SpillB
where $a.cat != $b.cat and $a.id <= 3 and $b.id <= 390
return { "a": $a.id, "b": $b.id };`
	job, _, err := constrained.compileJob(query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := constrained.runJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if job.Spill == nil {
		t.Fatal("constrained job has no spill manager")
	}
	st := job.Spill.Stats()
	if st.RunsCreated == 0 {
		t.Fatalf("broadcast side (~120KB) did not spill under a %d-byte budget: %+v", spillBudget, st)
	}
	if slack := int64(8 << 10); st.PeakResident > spillBudget+slack {
		t.Errorf("peak resident %d exceeds budget %d (+%d slack)", st.PeakResident, spillBudget, slack)
	}
	if st.LiveRuns != 0 {
		t.Errorf("%d run files live after success", st.LiveRuns)
	}
	// The pass count is set by the build side, not the left cardinality: each
	// of the 2 instances reads its spilled ~120KB build run once, in chunks of
	// its 16KB share, and re-reads the probe run once per chunk — about a
	// dozen passes each. One pass per left tuple (800 of them) is the defect
	// this guards against.
	if st.RunsOpened > int64(st.RunsCreated)+2*30 {
		t.Errorf("runs opened %d times for %d runs; the block nested loop should make about a dozen passes per instance", st.RunsOpened, st.RunsCreated)
	}
	want, err := unconstrained.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "cross-join-spill", got, want, false)
	assertNoSpillFiles(t, constrained)
}

// TestAggregateStreamsWithoutBuffering covers the scalar aggregate, a
// keyless fold: it materializes nothing, so it gets no share of the budget
// and the job allocates no spill manager at all, and it still computes the
// right answer under a tight budget.
func TestAggregateStreamsWithoutBuffering(t *testing.T) {
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	inst := newSpillInstance(t, 1<<20, 500)
	job, _, err := inst.compileJob(`avg(for $r in dataset SpillA return $r.id)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.runJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if job.Spill != nil {
		t.Errorf("aggregate-only job allocated a spill manager; streaming folds need no budget (stats %+v)", job.Spill.Stats())
	}
	if len(res) != 1 {
		t.Fatalf("aggregate result = %v", res)
	}
	got, ok := adm.NumericAsDouble(res[0])
	if !ok || got != 250.5 {
		t.Errorf("avg over ids 1..500 = %v, want 250.5", res[0])
	}
}

// TestUnbudgetedOperatorsAccountWithoutSpilling is the other side of the
// spill line: with MemoryBudget 0 the join, the sort and the bag-materializing
// group-by run the same bodies as under a budget, account what they hold (so
// a profile tells an operator what budget its query would need), and never
// touch the disk — no run file, no spill directory.
func TestUnbudgetedOperatorsAccountWithoutSpilling(t *testing.T) {
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	inst := newSpillInstance(t, 0, 400)
	for _, q := range spillQueries {
		t.Run(q.name, func(t *testing.T) {
			cur, err := inst.QueryStream(WithProfiling(context.Background()), q.query)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for cur.Next() {
				rows++
			}
			if err := cur.Err(); err != nil {
				t.Fatal(err)
			}
			cur.Close()
			prof := cur.Profile()
			if rows == 0 || prof == nil || prof.JobSpill == nil {
				t.Fatalf("rows %d, profile %+v: want results and job-wide accounting without a budget", rows, prof)
			}
			if st := prof.JobSpill; st.RunsCreated != 0 || st.BytesSpilled != 0 || st.PeakResident <= 0 {
				t.Errorf("job accounting %+v: want no run files and a non-zero resident peak", *st)
			}
			if len(prof.Spill) == 0 {
				t.Error("no per-operator accounting rows")
			}
			for _, s := range prof.Spill {
				if s.Runs != 0 || s.PeakBytes <= 0 {
					t.Errorf("operator %s: %+v, want no runs and a non-zero resident peak", s.Name, s.SpillStats)
				}
			}
			if _, err := os.Stat(inst.SpillDir()); !os.IsNotExist(err) {
				t.Errorf("spill directory %s exists after unbudgeted queries (stat err %v)", inst.SpillDir(), err)
			}
		})
	}
}
