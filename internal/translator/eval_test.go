package translator

import (
	"fmt"
	"strings"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/hyracks"
)

// assignOver builds source($x = 1..n, one instance per partition) -> assign
// and returns the job with the assign's output schema.
func assignOver(t *testing.T, par, n int, names []string, srcs []string, dropUnknown bool) (*hyracks.Job, Schema) {
	t.Helper()
	b := &jobBuilder{job: &hyracks.Job{}, ctx: expr.NewContext(), partitions: par}
	src := b.job.Add(&hyracks.SourceOp{Label: "source", Partitions: par,
		Produce: func(p int, emit func(hyracks.Tuple) bool) error {
			for i := 1; i <= n; i++ {
				emit(hyracks.Tuple{adm.Int64(i)})
			}
			return nil
		}})
	exprs := make([]aql.Expr, len(srcs))
	for i, s := range srcs {
		e, err := aql.ParseQuery(s)
		if err != nil {
			t.Fatal(err)
		}
		exprs[i] = e
	}
	out := b.assign(stream{op: src, par: par, schema: Schema{"x"}}, "assign", names, exprs, dropUnknown)
	return b.job, out.schema
}

// TestAssignLaterSeesEarlier: each expression sees the input columns and the
// columns appended before it, and a rebound name shadows the old column only
// for the expressions after it. Two instances share the compiled closures.
func TestAssignLaterSeesEarlier(t *testing.T) {
	job, schema := assignOver(t, 2, 3,
		[]string{"y", "r", "x", "z", "f"},
		[]string{`$x + 1`, `{ "y": $y }`, `$x * 10`, `$x + $y`, `$r.y`}, false)
	if got := fmt.Sprint(schema); got != "[x y r x z f]" {
		t.Fatalf("schema %s", got)
	}
	tuples, err := hyracks.Execute(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 6 {
		t.Fatalf("%d tuples from 2 instances of 3", len(tuples))
	}
	for _, tu := range tuples {
		x := int64(tu[0].(adm.Int64))
		want := fmt.Sprintf(`[%di64 %di64 { "y": %di64 } %di64 %di64 %di64]`, x, x+1, x+1, x*10, x*10+x+1, x+1)
		if got := fmt.Sprint(tu); got != want {
			t.Errorf("tuple %s, want %s", got, want)
		}
	}
}

func TestAssignDoesNotSeeLaterColumns(t *testing.T) {
	job, _ := assignOver(t, 1, 1, []string{"y", "z"}, []string{`$z + 1`, `$x`}, false)
	if _, err := hyracks.Execute(job); err == nil || !strings.Contains(err.Error(), "unbound variable $z") {
		t.Errorf("forward reference evaluated: %v", err)
	}
}

func TestAssignDropsUnknown(t *testing.T) {
	srcs := []string{`if ($x = 2) then null else $x`, `[1, 2, 3][$x]`}
	job, _ := assignOver(t, 1, 4, []string{"a", "b"}, srcs, true)
	tuples, err := hyracks.Execute(job)
	if err != nil {
		t.Fatal(err)
	}
	// x=2 has a null first value; x=3 and x=4 index past the end (missing).
	if got := fmt.Sprint(tuples); got != "[[1i64 1i64 2]]" {
		t.Errorf("kept %s", got)
	}
	job, _ = assignOver(t, 1, 4, []string{"a", "b"}, srcs, false)
	if tuples, err = hyracks.Execute(job); err != nil || len(tuples) != 4 {
		t.Errorf("without dropUnknown kept %v, %v", tuples, err)
	}
}
