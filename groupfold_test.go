package asterixdb

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"asterixdb/internal/agg"
	"asterixdb/internal/algebra"
	"asterixdb/internal/hyracks"
)

// This file covers the group-by fold: a with-variable consumed only by
// count/sum/avg/min/max calls is folded to O(1) accumulators (no bag, no
// spilling under a budget), one used as a bag is its listify, semantics match
// the interpreter oracle exactly — including the null-poisoning AQL variants
// and the unknown-skipping sql- variants — and a cardinality-of-groups
// overload spills accumulators, not rows.

const foldDDL = `
create type FoldT as closed { id: int32, cat: int32, score: int32, val: int32?, name: string };
create dataset FoldD(FoldT) primary key id;
`

func newFoldInstance(t *testing.T, budget int64, rows int) *Instance {
	t.Helper()
	inst, err := Open(Config{
		DataDir:      t.TempDir(),
		Partitions:   3,
		MemoryBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	if _, err := inst.Execute(foldDDL); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("insert into dataset FoldD ([")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		// Every 7th row omits the optional val field (MISSING inside the
		// aggregates); names cycle so min/max over strings are non-trivial.
		if i%7 == 0 {
			fmt.Fprintf(&sb, `{"id": %d, "cat": %d, "score": %d, "name": "n%02d"}`, i, i%5, i%97, i%23)
		} else {
			fmt.Fprintf(&sb, `{"id": %d, "cat": %d, "score": %d, "val": %d, "name": "n%02d"}`, i, i%5, i%97, i%13, i%23)
		}
	}
	sb.WriteString("]);")
	if _, err := inst.Execute(sb.String()); err != nil {
		t.Fatal(err)
	}
	return inst
}

// findHashGroup returns the job's HashGroupOp (group-bys never fuse — they
// block).
func findHashGroup(job *hyracks.Job) *hyracks.HashGroupOp {
	for _, op := range job.Operators {
		if g, ok := op.(*hyracks.HashGroupOp); ok {
			return g
		}
	}
	return nil
}

// TestGroupByIncrementalFold checks the plumbing: an aggregate-only group-by
// folds only its aggregates and completes a tight budget without creating a
// single run file, while a bag-using group-by folds the bag as listify.
func TestGroupByIncrementalFold(t *testing.T) {
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	inst := newFoldInstance(t, 16<<10, 2000)
	foldable := `for $r in dataset FoldD group by $c := $r.cat with $r
return { "c": $c, "n": count($r) };`
	job, _, err := inst.compileJob(foldable)
	if err != nil {
		t.Fatal(err)
	}
	g := findHashGroup(job)
	if g == nil {
		t.Fatalf("no hash group operator:\n%s", job.Describe())
	}
	if len(g.Aggs) != 1 || g.Aggs[0].Func != "count" {
		t.Fatalf("aggregate-only group-by folds %+v, want count alone", g.Aggs)
	}
	got, err := inst.runJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d groups, want 5", len(got))
	}
	if st := job.Spill.Stats(); st.RunsCreated != 0 {
		t.Errorf("folded group-by spilled: %+v (2000 rows in 5 groups must fit a 16KiB budget as accumulators)", st)
	}

	// A bag use (iterating $r) is the variable's listify.
	bagged := `for $r in dataset FoldD group by $c := $r.cat with $r
return { "c": $c, "ids": (for $x in $r return $x.id) };`
	job2, _, err := inst.compileJob(bagged)
	if err != nil {
		t.Fatal(err)
	}
	g2 := findHashGroup(job2)
	if g2 == nil {
		t.Fatalf("no hash group operator:\n%s", job2.Describe())
	}
	if len(g2.Aggs) != 1 || g2.Aggs[0].Func != agg.Listify {
		t.Fatalf("bag-using group-by folds %+v, want its listify", g2.Aggs)
	}
}

// TestGroupByIncrementalSemantics runs every foldable aggregate — including
// the null-poisoning AQL forms over a field with MISSING values, the
// unknown-skipping sql- forms, and string min/max — against the interpreter
// oracle.
func TestGroupByIncrementalSemantics(t *testing.T) {
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	inst := newFoldInstance(t, 0, 500)
	queries := []struct {
		name  string
		query string
	}{
		{"count", `for $r in dataset FoldD group by $c := $r.cat with $r return { "c": $c, "n": count($r) };`},
		{"sum-score", `for $r in dataset FoldD let $s := $r.score group by $c := $r.cat with $s return { "c": $c, "t": sum($s) };`},
		{"avg-score", `for $r in dataset FoldD let $s := $r.score group by $c := $r.cat with $s return { "c": $c, "a": avg($s) };`},
		// val is MISSING on every 7th row: AQL sum/avg/min/max go null,
		// sql- variants skip the unknowns.
		{"sum-missing", `for $r in dataset FoldD let $v := $r.val group by $c := $r.cat with $v return { "c": $c, "t": sum($v) };`},
		{"sql-sum-missing", `for $r in dataset FoldD let $v := $r.val group by $c := $r.cat with $v return { "c": $c, "t": sql-sum($v) };`},
		{"sql-avg-missing", `for $r in dataset FoldD let $v := $r.val group by $c := $r.cat with $v return { "c": $c, "a": sql-avg($v) };`},
		{"min-max-string", `for $r in dataset FoldD let $n := $r.name group by $c := $r.cat with $n return { "c": $c, "lo": min($n), "hi": max($n) };`},
		{"sql-min-missing", `for $r in dataset FoldD let $v := $r.val group by $c := $r.cat with $v return { "c": $c, "m": sql-min($v) };`},
		{"multi-agg", `for $r in dataset FoldD let $s := $r.score group by $c := $r.cat with $r, $s
return { "c": $c, "n": count($r), "t": sum($s), "hi": max($s) };`},
		{"agg-in-order-by", `for $r in dataset FoldD group by $c := $r.cat with $r order by count($r) desc, $c return { "c": $c, "n": count($r) };`},
		{"agg-in-where-above-group", `for $r in dataset FoldD group by $c := $r.cat with $r let $n := count($r) where $n > 300 return { "c": $c, "n": $n };`},
	}
	for _, q := range queries {
		// Every one of these must fold.
		job, _, err := inst.compileJob(q.query)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if g := findHashGroup(job); g == nil || slices.ContainsFunc(g.Aggs, func(a hyracks.GroupAgg) bool { return a.Func == agg.Listify }) {
			t.Errorf("%s: query kept a bag:\n%s", q.name, job.Describe())
		}
		got, err := inst.Query(q.query)
		if err != nil {
			t.Fatalf("%s (compiled): %v", q.name, err)
		}
		want, err := inst.interpret(q.query, algebra.Options{})
		if err != nil {
			t.Fatalf("%s (interpreter): %v", q.name, err)
		}
		sameResults(t, "fold/"+q.name, got, want, strings.Contains(q.query, "order by"))
	}
}

// TestGroupByIncrementalSpillManyGroups drives the accumulator spill path:
// grouping on a high-cardinality key under a tiny budget must spill (runs
// are created), bound resident memory, release every file, and still match
// the unconstrained result.
func TestGroupByIncrementalSpillManyGroups(t *testing.T) {
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	const budget = 8 << 10
	constrained := newFoldInstance(t, budget, 3000)
	unconstrained := newFoldInstance(t, 0, 3000)
	// group by id: 3000 singleton groups; accumulators alone exceed the
	// budget share, so whole partitions of accumulators spill and merge.
	query := `for $r in dataset FoldD group by $k := $r.id with $r
return { "k": $k, "n": count($r) };`
	job, _, err := constrained.compileJob(query)
	if err != nil {
		t.Fatal(err)
	}
	if g := findHashGroup(job); g == nil || len(g.Aggs) != 1 || g.Aggs[0].Func != "count" {
		t.Fatalf("query did not fold count alone:\n%s", job.Describe())
	}
	got, err := constrained.runJob(job)
	if err != nil {
		t.Fatal(err)
	}
	st := job.Spill.Stats()
	if st.RunsCreated == 0 {
		t.Fatalf("3000 accumulator groups under an %d-byte budget did not spill: %+v", budget, st)
	}
	if slack := int64(8 << 10); st.PeakResident > budget+slack {
		t.Errorf("peak resident %d exceeds budget %d (+%d slack)", st.PeakResident, budget, slack)
	}
	if st.LiveRuns != 0 {
		t.Errorf("%d run files live after success", st.LiveRuns)
	}
	want, err := unconstrained.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "incremental-spill", got, want, false)
}

// TestAggregateNamesFoldCase: builtins are looked up case-insensitively, so
// an upper-case aggregate is the same aggregate: COUNT over a FLWOR plans
// Figure 6's local/global pair exactly as count does, SUM of a
// with-variable folds a sum, not a listify bag, and each returns what its
// lower-case spelling returns.
func TestAggregateNamesFoldCase(t *testing.T) {
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	inst := newFoldInstance(t, 0, 300)
	pairs := []struct{ upper, lower string }{
		{`COUNT(for $r in dataset FoldD return $r)`, `count(for $r in dataset FoldD return $r)`},
		{`Sql-Avg(for $r in dataset FoldD return $r.val)`, `sql-avg(for $r in dataset FoldD return $r.val)`},
		{`for $r in dataset FoldD let $s := $r.score group by $c := $r.cat with $s return { "c": $c, "t": SUM($s), "m": Max($s) };`,
			`for $r in dataset FoldD let $s := $r.score group by $c := $r.cat with $s return { "c": $c, "t": sum($s), "m": max($s) };`},
	}
	for _, p := range pairs {
		upper, err := inst.Explain(p.upper)
		if err != nil {
			t.Fatalf("%s: %v", p.upper, err)
		}
		lower, err := inst.Explain(p.lower)
		if err != nil {
			t.Fatalf("%s: %v", p.lower, err)
		}
		if upper != lower {
			t.Errorf("%s plans\n%s\nbut %s plans\n%s", p.upper, upper, p.lower, lower)
		}
		got, err := inst.Query(p.upper)
		if err != nil {
			t.Fatalf("%s: %v", p.upper, err)
		}
		want, err := inst.Query(p.lower)
		if err != nil {
			t.Fatalf("%s: %v", p.lower, err)
		}
		sameResults(t, p.upper, got, want, false)
	}
}
