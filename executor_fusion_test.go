package asterixdb

import (
	"strings"
	"testing"

	"asterixdb/internal/hyracks"
)

// This file asserts the operator-fusion half of the read-path work: chains of
// one-to-one pipelined operators compile into a single fused operator, the
// fused shape is visible in EXPLAIN, fused jobs run strictly fewer operator
// instances (one goroutine each) than unfused jobs, and results are
// identical with fusion on and off.

const fusionDDL = `
create type FuseT as closed { id: int32, k: int32 };
create dataset FuseD(FuseT) primary key id;
create dataset FuseS(FuseT) primary key id;
create index FuseSK on FuseS(k);
`

func newFusionInstance(t *testing.T, partitions int, disableFusion bool) *Instance {
	t.Helper()
	inst, err := open(Config{DataDir: t.TempDir(), Partitions: partitions}, variant{unfused: disableFusion})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	if _, err := inst.Execute(fusionDDL); err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"FuseD", "FuseS"} {
		if _, err := inst.Execute(`insert into dataset ` + ds + ` ([
		{"id": 1, "k": 10}, {"id": 2, "k": 20}, {"id": 3, "k": 30},
		{"id": 4, "k": 40}, {"id": 5, "k": 50}, {"id": 6, "k": 60}
	]);`); err != nil {
			t.Fatal(err)
		}
	}
	return inst
}

// totalInstances is the number of operator goroutines ExecuteStream will
// spawn for the job: one per (operator, partition).
func totalInstances(job *hyracks.Job) int {
	n := 0
	for _, op := range job.Operators {
		n += op.Parallelism()
	}
	return n
}

// TestSelectAssignLimitFusesToOneOperator is the acceptance shape: at
// parallelism 1 a select -> assign -> limit chain (plus the scan below and
// the distribute above) collapses into exactly one fused operator.
func TestSelectAssignLimitFusesToOneOperator(t *testing.T) {
	inst := newFusionInstance(t, 1, false)
	query := `for $r in dataset FuseD where $r.k >= 20 let $v := $r.k + 1 limit 3 return $v;`
	job, _, err := inst.compileJob(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Operators) != 1 {
		t.Fatalf("job has %d operators, want 1 fused:\n%s", len(job.Operators), job.Describe())
	}
	name := job.Operators[0].Name()
	for _, stage := range []string{"fused[", "datasource-scan(FuseD)", "select", "assign", "limit", "distribute-result"} {
		if !strings.Contains(name, stage) {
			t.Errorf("fused operator %q is missing stage %q", name, stage)
		}
	}

	// The fused shape is observable via EXPLAIN.
	explain, err := inst.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "fused[") {
		t.Errorf("explain does not show the fused chain:\n%s", explain)
	}

	// And it still answers correctly.
	res, err := inst.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("fused query returned %d rows, want 3", len(res))
	}
}

// TestFusionReducesOperatorInstances is the live-instance regression test:
// the fused job must plan strictly fewer operator instances (= goroutines)
// than the same query compiled with fusion disabled, and both must agree on
// the result. A secondary-index access path and a primary-key equality each
// plan exactly one instance per partition: the whole statement is one fused
// chain, the secondary path's primary-key sort included.
func TestFusionReducesOperatorInstances(t *testing.T) {
	const partitions = 4
	fusedInst := newFusionInstance(t, partitions, false)
	plainInst := newFusionInstance(t, partitions, true)
	// query -> the one fused chain its job is
	onePerPartition := map[string]string{
		`for $r in dataset FuseS where $r.k >= 20 and $r.k < 50 return $r.id;`: "fused[btree-search(FuseSK) -> sort(primary-keys) -> btree-search(FuseS) -> ",
		`for $r in dataset FuseS where $r.id = 4 return $r.k;`:                 "fused[btree-search(FuseS) -> ",
	}
	queries := []string{
		`for $r in dataset FuseS where $r.k >= 20 and $r.k < 50 return $r.id;`,
		`for $r in dataset FuseS where $r.id = 4 return $r.k;`,
		// The limit exceeds the matching-row count: which rows a selective
		// limit keeps over a multi-partition merge is arrival-order
		// nondeterministic, fused or not, so only a non-selective limit can
		// be compared across executors.
		`for $r in dataset FuseD where $r.k >= 20 let $v := $r.k + 1 limit 100 return $v;`,
		`for $r in dataset FuseD where $r.k > 15 return { "id": $r.id };`,
		`for $r in dataset FuseD order by $r.k desc return $r.id;`,
	}
	for _, q := range queries {
		fusedJob, _, err := fusedInst.compileJob(q)
		if err != nil {
			t.Fatal(err)
		}
		plainJob, _, err := plainInst.compileJob(q)
		if err != nil {
			t.Fatal(err)
		}
		fi, pi := totalInstances(fusedJob), totalInstances(plainJob)
		if fi >= pi {
			t.Errorf("query %q: fused job plans %d instances, unfused %d — fusion saved nothing:\nfused:\n%s\nunfused:\n%s",
				q, fi, pi, fusedJob.Describe(), plainJob.Describe())
		}
		if len(fusedJob.Operators) >= len(plainJob.Operators) {
			t.Errorf("query %q: fused job has %d operators, unfused %d", q, len(fusedJob.Operators), len(plainJob.Operators))
		}
		if chain, ok := onePerPartition[q]; ok && (fi != partitions || !strings.HasPrefix(fusedJob.Describe(), chain)) {
			t.Errorf("query %q: fused job plans %d instances, want one chain %q per partition (%d):\n%s", q, fi, chain, partitions, fusedJob.Describe())
		}

		fres, err := fusedInst.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := plainInst.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "fused-vs-unfused "+q, fres, pres, strings.Contains(q, "order by"))
	}
}

// TestFusionDisabledKnob checks the knob really disables the pass.
func TestFusionDisabledKnob(t *testing.T) {
	inst := newFusionInstance(t, 1, true)
	job, _, err := inst.compileJob(`for $r in dataset FuseD where $r.k >= 20 limit 3 return $r;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range job.Operators {
		if strings.HasPrefix(op.Name(), "fused[") {
			t.Fatalf("variant{unfused} left a fused operator:\n%s", job.Describe())
		}
	}
}
