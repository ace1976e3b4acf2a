package asterixdb

import (
	"fmt"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/agg"
	"asterixdb/internal/algebra"
)

// This file checks the one aggregate kernel (package agg) end to end against
// its reference. Every compiled job aggregates with the kernel — scalar
// aggregates, split and unsplit, and every group-by, folded or listify —
// and so do the expr builtins a call over a list runs. The interpreter
// oracle evaluates each aggregate over its materialized bag with the
// list-at-a-time code in internal/expr/oracle. If the kernel strays from it
// — what poisons, what is skipped, what the empty input yields — a cell of
// this table fails.

// aggKernelInputs are the input classes, one group each; v is an open field,
// so it can hold any type or be absent. Values are exactly representable so
// the summation order of partitioned partials cannot show.
var aggKernelInputs = []struct {
	class  string
	values []string // ADM literals; "" omits the field (MISSING)
}{
	{"ints", []string{"3", "1", "2", "7"}},
	{"mixed-numeric", []string{"1", "2.5", "4", "0.5"}},
	{"with-null", []string{"5", "null", "6"}},
	{"with-missing", []string{"5", "", "6", "9"}},
	{"only-unknown", []string{"null", ""}},
	{"non-numeric-string", []string{"4", `"x"`, "8"}},
	{"strings", []string{`"pear"`, `"apple"`, `"quince"`}},
	{"incomparable", []string{"true", "2", `"s"`}},
	{"incomparable-with-null", []string{"true", "null", "2"}},
}

func newAggKernelInstance(t *testing.T, budget int64) *Instance {
	t.Helper()
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 2, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	if _, err := inst.Execute(`
create type AggT as open { id: int32, g: string };
create dataset AggD(AggT) primary key id;`); err != nil {
		t.Fatal(err)
	}
	id := 0
	for _, in := range aggKernelInputs {
		for _, v := range in.values {
			rec := fmt.Sprintf(`{"id": %d, "g": %q, "v": %s}`, id, in.class, v)
			if v == "" {
				rec = fmt.Sprintf(`{"id": %d, "g": %q}`, id, in.class)
			}
			if _, err := inst.Execute("insert into dataset AggD (" + rec + ");"); err != nil {
				t.Fatalf("%s: %v", rec, err)
			}
			id++
		}
	}
	return inst
}

func TestAggregateKernelMatchesBuiltins(t *testing.T) {
	t.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	split, unsplit := algebra.Options{}, algebra.Options{DisableAggSplit: true}
	classes := []string{"no-such-class"} // the empty input
	for _, in := range aggKernelInputs {
		classes = append(classes, in.class)
	}
	for _, budget := range []int64{0, 16 << 10} {
		inst := newAggKernelInstance(t, budget)
		for _, base := range []string{"count", "sum", "avg", "min", "max"} {
			for _, fn := range []string{base, "sql-" + base} {
				name := fmt.Sprintf("budget=%d/%s", budget, fn)

				// Grouped form: one folded group per input class.
				grouped := fmt.Sprintf(`for $r in dataset AggD let $v := $r.v group by $g := $r.g with $v return { "g": $g, "a": %s($v) };`, fn)
				job, _, err := inst.compileJob(grouped)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if g := findHashGroup(job); g == nil || len(g.Aggs) != 1 || g.Aggs[0].Func != fn {
					t.Fatalf("%s: group-by did not fold %s alone:\n%s", name, fn, job.Describe())
				}
				got, err := inst.runJob(job)
				if err != nil {
					t.Fatalf("%s grouped: %v", name, err)
				}
				want, err := inst.interpret(grouped, split)
				if err != nil {
					t.Fatalf("%s grouped (interpreter): %v", name, err)
				}
				sameResults(t, name+"/grouped", got, want, false)

				// The variable used both ways: folded for the call, and as
				// its listify for the iteration.
				both := fmt.Sprintf(`for $r in dataset AggD let $v := $r.v group by $g := $r.g with $v return { "g": $g, "a": %s($v), "n": count(for $x in $v return $x) };`, fn)
				job, _, err = inst.compileJob(both)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if g := findHashGroup(job); g == nil || len(g.Aggs) != 2 || g.Aggs[0].Func != fn || g.Aggs[1].Func != agg.Listify {
					t.Fatalf("%s: group-by does not fold %s and listify:\n%s", name, fn, job.Describe())
				}
				gotBoth, err := inst.runJob(job)
				if err != nil {
					t.Fatalf("%s grouped bag: %v", name, err)
				}
				wantBoth, err := inst.interpret(both, split)
				if err != nil {
					t.Fatalf("%s grouped bag (interpreter): %v", name, err)
				}
				sameResults(t, name+"/grouped-bag", gotBoth, wantBoth, false)
				byClass := map[string]adm.Value{}
				for _, v := range got {
					rec := v.(*adm.Record)
					byClass[string(rec.Get("g").(adm.String))] = rec.Get("a")
				}

				// Scalar form, per class and over the empty input: split,
				// unsplit, the interpreter and the class's group all agree.
				for _, class := range classes {
					scalar := fmt.Sprintf(`%s(for $r in dataset AggD where $r.g = %q return $r.v)`, fn, class)
					want, err := inst.interpret(scalar, split)
					if err != nil {
						t.Fatalf("%s/%s (interpreter): %v", name, class, err)
					}
					for _, opts := range []algebra.Options{split, unsplit} {
						got, err := inst.QueryWithOptions(scalar, opts)
						if err != nil {
							t.Fatalf("%s/%s %+v: %v", name, class, opts, err)
						}
						sameResults(t, fmt.Sprintf("%s/%s/unsplit=%v", name, class, opts.DisableAggSplit), got, want, true)
					}
					if a, ok := byClass[class]; ok {
						sameResults(t, name+"/"+class+"/grouped-vs-scalar", []adm.Value{a}, want, true)
					} else if class != "no-such-class" {
						t.Errorf("%s: group %q missing from the grouped result", name, class)
					}
				}
			}
		}
	}
}
