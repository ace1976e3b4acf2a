package asterixdb

import (
	"context"
	"strings"
	"testing"
	"time"

	"asterixdb/internal/adm"
)

// This file asserts the query-visible profiling contract: a cursor opened
// under WithProfiling yields a JobProfile whose per-operator tuple counts
// match the data (scan out == dataset cardinality, distribute-result out ==
// result count), the counts are identical with fusion on and off, and an
// unprofiled cursor yields nil.

const profileDDL = `
create type ProfT as closed { id: int32, k: int32 };
create dataset ProfD(ProfT) primary key id;
`

const profileCardinality = 40

func newProfileInstance(t *testing.T, disableFusion bool) *Instance {
	t.Helper()
	inst, err := open(Config{DataDir: t.TempDir(), Partitions: 2}, variant{unfused: disableFusion})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	if _, err := inst.Execute(profileDDL); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("insert into dataset ProfD ([")
	for i := 0; i < profileCardinality; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(`{"id": `)
		b.WriteString(itoa(i))
		b.WriteString(`, "k": `)
		b.WriteString(itoa(i * 10))
		b.WriteString("}")
	}
	b.WriteString("]);")
	if _, err := inst.Execute(b.String()); err != nil {
		t.Fatal(err)
	}
	return inst
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// profiledQuery drains one query under WithProfiling and returns its profile
// and result count.
func profiledQuery(t *testing.T, inst *Instance, query string) (prof map[string]int64, in map[string]int64, rows int) {
	t.Helper()
	cur, err := inst.QueryStream(WithProfiling(context.Background()), query)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
		rows++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	p := cur.Profile()
	if p == nil {
		t.Fatal("Profile() nil after draining a profiled compiled query")
	}
	for _, r := range p.Operators {
		if r.WallNanos <= 0 {
			t.Fatalf("operator row %q has no wall time", r.Name)
		}
	}
	return p.OutByName(), p.InByName(), rows
}

func TestProfileScanOutEqualsCardinality(t *testing.T) {
	inst := newProfileInstance(t, false)
	out, _, rows := profiledQuery(t, inst, `for $r in dataset ProfD return $r;`)
	if rows != profileCardinality {
		t.Fatalf("rows = %d, want %d", rows, profileCardinality)
	}
	if got := out["datasource-scan(ProfD)"]; got != profileCardinality {
		t.Fatalf("scan out = %d, want %d (out=%v)", got, profileCardinality, out)
	}
	if got := out["distribute-result"]; got != profileCardinality {
		t.Fatalf("distribute-result out = %d, want %d (out=%v)", got, profileCardinality, out)
	}
}

// TestProfileFusedMatchesUnfusedCounts: fused and unfused runs of one plan
// report the same per-operator counts — for a scan pipeline, and for a
// secondary-index access path whose primary-key sort runs inside the fused
// chain.
func TestProfileFusedMatchesUnfusedCounts(t *testing.T) {
	fusedInst := newProfileInstance(t, false)
	unfusedInst := newProfileInstance(t, true)
	for _, c := range []struct {
		ddl, query, op string // op: an operator the query's rows pass through
		opOut          int64  // its fused out count; 0 asks only for some rows
	}{
		{"", `for $r in dataset ProfD where $r.k >= 100 return $r.k;`, "datasource-scan(ProfD)", profileCardinality},
		{`create index ProfK on ProfD(k);`, `for $r in dataset ProfD where $r.k >= 100 and $r.k < 300 return $r.k;`, "sort(primary-keys)", 0},
	} {
		if c.ddl != "" {
			for _, inst := range []*Instance{fusedInst, unfusedInst} {
				if _, err := inst.Execute(c.ddl); err != nil {
					t.Fatal(err)
				}
			}
		}
		fo, fi, frows := profiledQuery(t, fusedInst, c.query)
		uo, ui, urows := profiledQuery(t, unfusedInst, c.query)
		if frows != urows {
			t.Fatalf("%s: fused rows %d != unfused rows %d", c.query, frows, urows)
		}
		if len(fo) != len(uo) {
			t.Fatalf("%s: operator sets differ: fused %v unfused %v", c.query, fo, uo)
		}
		for name, n := range uo {
			if fo[name] != n {
				t.Errorf("%s: %s: fused out %d != unfused out %d", c.query, name, fo[name], n)
			}
		}
		for name, n := range ui {
			if fi[name] != n {
				t.Errorf("%s: %s: fused in %d != unfused in %d", c.query, name, fi[name], n)
			}
		}
		if fo[c.op] == 0 || c.opOut != 0 && fo[c.op] != c.opOut {
			t.Fatalf("%s: %s out = %d, want %d (0: any rows): %v", c.query, c.op, fo[c.op], c.opOut, fo)
		}
	}
}

func TestProfileNilWithoutOption(t *testing.T) {
	inst := newProfileInstance(t, false)
	cur, err := inst.QueryStream(context.Background(), `for $r in dataset ProfD return $r;`)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	cur.Close()
	if cur.Profile() != nil {
		t.Fatal("Profile() non-nil without WithProfiling")
	}
}

// TestProfileQuery4ScansInnerOnce: the paper's Query 4 reads its inner
// dataset once per job, through its nest join, not once per outer row: the
// messages' scan emits |MugshotMessages| tuples in all, and the nest join
// emits each qualifying user once.
func TestProfileQuery4ScansInnerOnce(t *testing.T) {
	inst := newTinySocial(t)
	vals, err := inst.Query(`count(for $m in dataset MugshotMessages return $m)`)
	if err != nil {
		t.Fatal(err)
	}
	messages, _ := adm.NumericAsInt64(vals[0])
	out, _, rows := profiledQuery(t, inst, `
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
return {
  "uname": $user.name,
  "messages":
    for $message in dataset MugshotMessages
    where $message.author-id = $user.id
    return $message.message
};`)
	if rows != 4 {
		t.Fatalf("rows = %d, want 4", rows)
	}
	if got := out["datasource-scan(MugshotMessages)"]; got != messages {
		t.Errorf("inner scan out = %d, want |MugshotMessages| = %d (out=%v)", got, messages, out)
	}
	if got, ok := out["nest-join(hybrid-hash-join)"]; !ok || got != int64(rows) {
		t.Errorf("nest-join(hybrid-hash-join) out = %d (present %v), want %d (out=%v)", got, ok, rows, out)
	}
}

// TestStatementPhasesFitWallTime: a statement's phases are disjoint, so they
// sum to no more than its wall time, and each phase it passed through is
// non-zero.
func TestStatementPhasesFitWallTime(t *testing.T) {
	inst := newProfileInstance(t, false)
	start := time.Now()
	cur, err := inst.QueryStream(context.Background(), `for $r in dataset ProfD where $r.k >= 100 order by $r.k return $r.k;`)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for cur.Next() {
		rows++
	}
	cur.Close()
	wall := time.Since(start)
	if err := cur.Err(); err != nil || rows == 0 {
		t.Fatalf("rows %d, err %v", rows, err)
	}
	ph := cur.Phases()
	parts := []int64{ph.ParseNanos, ph.CompileNanos, ph.JobBuildNanos, ph.FirstRowNanos, ph.LastRowNanos}
	var sum int64
	for i, ns := range parts {
		if ns <= 0 {
			t.Errorf("phase %d is %d ns: %+v", i, ns, ph)
		}
		sum += ns
	}
	if time.Duration(sum) > wall {
		t.Errorf("phases sum to %v, more than the statement's wall time %v: %+v", time.Duration(sum), wall, ph)
	}
}
