package asterixdb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"testing"

	"asterixdb/internal/adm"
)

// TestTypedErrors pins the API's error contract: sentinel matching via
// errors.Is and stable codes via errors.As / ErrorCode.
func TestTypedErrors(t *testing.T) {
	inst := newTinySocial(t)

	_, err := inst.Query(`for $x in dataset NoSuchDataset return $x;`)
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown dataset: errors.Is(err, ErrNotFound) is false for %v", err)
	}
	if ErrorCode(err) != CodeNotFound {
		t.Errorf("unknown dataset: code = %q", ErrorCode(err))
	}

	_, err = inst.Execute(`create dataset MugshotUsers(MugshotUserType) primary key id;`)
	if !errors.Is(err, ErrExists) {
		t.Errorf("duplicate dataset: errors.Is(err, ErrExists) is false for %v", err)
	}

	// Index duplicates surface the storage sentinel through the catalog.
	_, err = inst.Execute(`create index msUserSinceIdx on MugshotUsers(user-since);`)
	if !errors.Is(err, ErrExists) {
		t.Errorf("duplicate index: errors.Is(err, ErrExists) is false for %v", err)
	}
	// ... and "if not exists" swallows exactly that error.
	if _, err := inst.Execute(`create index msUserSinceIdx if not exists on MugshotUsers(user-since);`); err != nil {
		t.Errorf("if not exists should swallow the duplicate: %v", err)
	}

	_, err = inst.Execute(`this is not aql;`)
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeSyntax {
		t.Errorf("parse failure should carry CodeSyntax, got %v", err)
	}
}

// TestFeedDDLIsRejected: the feed statements parse, but no feed runtime
// exists, so executing one is a typed error rather than a silent success
// that tells a client its feed is connected.
func TestFeedDDLIsRejected(t *testing.T) {
	inst := newTinySocial(t)
	for _, stmt := range []string{
		`create feed f using socket_adaptor (("sockets"="127.0.0.1:10001"));`,
		`connect feed f to dataset MugshotMessages;`,
		`disconnect feed f from dataset MugshotMessages;`,
		`drop feed f;`,
	} {
		res, err := inst.Execute(stmt)
		if err == nil || ErrorCode(err) != CodeInvalid || !strings.Contains(err.Error(), "feeds are not supported") {
			t.Errorf("%s = %v, %v; want a CodeInvalid \"feeds are not supported\" error", stmt, res, err)
		}
	}
}

// TestDropFunctionSemantics: dropping a missing function errors without
// "if exists" and succeeds with it.
func TestDropFunctionSemantics(t *testing.T) {
	inst := newTinySocial(t)
	if _, err := inst.Execute(`drop function nosuch;`); !errors.Is(err, ErrNotFound) {
		t.Errorf("drop missing function = %v, want ErrNotFound", err)
	}
	if _, err := inst.Execute(`drop function nosuch if exists;`); err != nil {
		t.Errorf("drop missing function if exists = %v, want nil", err)
	}
	if _, err := inst.Execute(`create function f() { 1 };`); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Execute(`drop function f;`); err != nil {
		t.Errorf("drop existing function = %v", err)
	}
	if _, err := inst.Execute(`drop function f;`); !errors.Is(err, ErrNotFound) {
		t.Errorf("second drop = %v, want ErrNotFound", err)
	}
}

// TestFunctionBodySeesOnlyItsParameters: a function body whose free
// variables are not all parameters is refused at create, so no call can bind
// them from its caller's scope. A body's own for, let and quantified
// variables are not free.
func TestFunctionBodySeesOnlyItsParameters(t *testing.T) {
	inst := newTinySocial(t)
	for _, stmt := range []string{
		`create function leaky($a) { for $m in dataset MugshotUsers where $m.id = $x return $m.id };`,
		`create function leaky($a) { $a + $x };`,
	} {
		if _, err := inst.Execute(stmt); ErrorCode(err) != CodeInvalid || !strings.Contains(fmt.Sprint(err), "$x") {
			t.Errorf("%s: %v; want a CodeInvalid error naming $x", stmt, err)
		}
	}
	if res, err := inst.Query(`for $x in [1, 2] return leaky(0);`); err == nil {
		t.Errorf("a call of the refused function returned %v", res)
	}
	if _, err := inst.Execute(`create function owned($a) {
  for $m in dataset MugshotUsers let $k := $a where (some $i in [$k] satisfies $m.id = $i) return $m.id
};`); err != nil {
		t.Fatal(err)
	}
	res, err := inst.Query(`for $x in [1, 2] return owned($x);`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res); got != "[[ 1 ] [ 2 ]]" {
		t.Errorf("owned($x) for $x in [1, 2] = %s, want [[ 1 ] [ 2 ]]", got)
	}
}

// TestFunctionLimitReadsNoParameter: a limit or offset is evaluated outside
// every binding, so one that reads a parameter could never see the argument
// the call inlines; create function refuses such a body, naming the
// variable. A constant limit is accepted.
func TestFunctionLimitReadsNoParameter(t *testing.T) {
	inst := newTinySocial(t)
	for _, stmt := range []string{
		`create function firstn($n) { for $x in [1, 2, 3] limit $n return $x };`,
		`create function firstn($n) { for $x in [1, 2, 3] limit 1 offset $n return $x };`,
		`create function firstn($n) { [$n, (for $x in [1, 2, 3] limit $n + 1 return $x)] };`,
	} {
		if _, err := inst.Execute(stmt); ErrorCode(err) != CodeInvalid || !strings.Contains(fmt.Sprint(err), "$n") {
			t.Errorf("%s: %v; want a CodeInvalid error naming $n", stmt, err)
		}
	}
	if res, err := inst.Query(`firstn(2);`); err == nil {
		t.Errorf("a call of the refused function returned %v", res)
	}
	if _, err := inst.Execute(`create function first2($n) { for $x in [1, 2, 3] where $x != $n limit 2 return $x };`); err != nil {
		t.Fatal(err)
	}
	res, err := inst.Query(`first2(1);`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res); got != "[[ 2, 3 ]]" {
		t.Errorf("first2(1) = %s, want [[ 2, 3 ]]", got)
	}
}

// TestRecursiveFunctionIsAnError: direct and mutual recursion, and a
// recursion that would terminate, are CodeInvalid errors naming the call
// cycle, not a crash. The statements run in a child process with a 32 MB
// stack cap, so a stack overflow fails this test instead of ending go test.
func TestRecursiveFunctionIsAnError(t *testing.T) {
	if os.Getenv("ASTERIX_RECURSION_CHILD") != "1" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRecursiveFunctionIsAnError$", "-test.v")
		cmd.Env = append(os.Environ(), "ASTERIX_RECURSION_CHILD=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS: TestRecursiveFunctionIsAnError") {
			if len(out) > 2048 {
				out = out[:2048]
			}
			t.Fatalf("child process: %v\n%s", err, out)
		}
		return
	}
	debug.SetMaxStack(32 << 20)
	inst := newTinySocial(t)
	if _, err := inst.Execute(`
create function loop($n) { loop($n + 1) };
create function ping($n) { pong($n) };
create function pong($n) { ping($n - 1) };
create function fact($n) { if ($n <= 1) then 1 else $n * fact($n - 1) };`); err != nil {
		t.Fatal(err)
	}
	for q, cycle := range map[string]string{
		`loop(0);`: "loop -> loop",
		`for $u in dataset MugshotUsers return ping($u.id);`: "ping -> pong -> ping",
		`fact(5);`: "fact -> fact",
	} {
		if res, err := inst.Query(q); ErrorCode(err) != CodeInvalid || !strings.Contains(fmt.Sprint(err), cycle) {
			t.Errorf("%s = %v, %v; want a CodeInvalid error naming %s", q, res, err, cycle)
		}
	}
}

// TestCreateTypeIfNotExistsIsNoOp: re-creating an existing type with
// "if not exists" from another dataverse must neither replace the definition
// nor re-scope it (a later drop of that dataverse must not take the type
// with it).
func TestCreateTypeIfNotExistsIsNoOp(t *testing.T) {
	inst := newTinySocial(t)
	if _, err := inst.Execute(`
create dataverse Other;
use dataverse Other;
create type MugshotUserType if not exists as closed { bogus: int32 };
use dataverse TinySocial;
drop dataverse Other;`); err != nil {
		t.Fatal(err)
	}
	// The original type survives the drop of Other and still types its users.
	res, err := inst.Query(`for $u in dataset MugshotUsers return $u.name;`)
	if err != nil || len(res) != 4 {
		t.Fatalf("MugshotUserType damaged by if-not-exists re-create: %v %v", res, err)
	}
	if _, err := inst.Execute(`drop type MugshotUserType;`); err != nil {
		t.Errorf("type should still exist in TinySocial: %v", err)
	}
}

// TestQueryOrderDeterministic: the materializing wrappers keep the
// pre-streaming deterministic gather — identical queries return identical
// sequences even over multi-partition scans.
func TestQueryOrderDeterministic(t *testing.T) {
	inst := newTinySocial(t)
	first, err := inst.Query(`for $m in dataset MugshotMessages return $m.message-id;`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := inst.Query(`for $m in dataset MugshotMessages return $m.message-id;`)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "repeat-order", again, first, true)
	}
}

func TestDropTypeSemantics(t *testing.T) {
	inst := newTinySocial(t)
	if _, err := inst.Execute(`drop type NoSuchType;`); !errors.Is(err, ErrNotFound) {
		t.Errorf("drop missing type = %v, want ErrNotFound", err)
	}
	if _, err := inst.Execute(`drop type NoSuchType if exists;`); err != nil {
		t.Errorf("drop missing type if exists = %v, want nil", err)
	}
}

// TestDropDataverseScopesTypesAndFunctions: dropping a dataverse removes the
// types and functions created in it — and only those.
func TestDropDataverseScopesTypesAndFunctions(t *testing.T) {
	inst := newTinySocial(t)
	if _, err := inst.Execute(`
create dataverse Scratch;
use dataverse Scratch;
create type ScratchType as closed { id: int32 };
create function scratchfn() { 42 };
use dataverse TinySocial;
drop dataverse Scratch;`); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Execute(`drop type ScratchType;`); !errors.Is(err, ErrNotFound) {
		t.Errorf("type should have been dropped with its dataverse, got %v", err)
	}
	if _, err := inst.Execute(`drop function scratchfn;`); !errors.Is(err, ErrNotFound) {
		t.Errorf("function should have been dropped with its dataverse, got %v", err)
	}
	// Objects in other dataverses survive.
	if _, err := inst.Execute(`drop type MugshotUserType;`); err != nil {
		t.Errorf("TinySocial types must survive dropping Scratch: %v", err)
	}
}

// TestMetadataIndexRecords: the catalog-as-data records carry DataverseName,
// and ngram indexes expose their gram length (Metadata is AsterixDB data).
func TestMetadataIndexRecords(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
for $ix in dataset Metadata.Index
where $ix.IndexName = "msMessageNGramIdx"
return $ix;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("found %d records for msMessageNGramIdx, want 1", len(res))
	}
	rec := res[0].(*adm.Record)
	if dv := rec.Get("DataverseName"); string(dv.(adm.String)) != "TinySocial" {
		t.Errorf("DataverseName = %v", dv)
	}
	if gl, ok := adm.NumericAsInt64(rec.Get("GramLength")); !ok || gl != 3 {
		t.Errorf("GramLength = %v", rec.Get("GramLength"))
	}
	// Non-ngram indexes carry no GramLength but do carry the dataverse.
	res, err = inst.Query(`
for $ix in dataset Metadata.Index
where $ix.IndexName = "msTimestampIdx"
return $ix;`)
	if err != nil || len(res) != 1 {
		t.Fatalf("msTimestampIdx: %v %v", res, err)
	}
	rec = res[0].(*adm.Record)
	if rec.Has("GramLength") {
		t.Error("btree index should not carry GramLength")
	}
	if !rec.Has("DataverseName") {
		t.Error("index record missing DataverseName")
	}
	// Queries can select indexes by dataverse, the paper's Query 1 shape.
	res, err = inst.Query(`
for $ix in dataset Metadata.Index
where $ix.DataverseName = "TinySocial" and $ix.IsPrimary = false
return $ix.IndexName;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Errorf("found %d secondary indexes in TinySocial, want 6", len(res))
	}
}

// TestUnplannableQueryIsTypedError: a plan BuildJob rejects (a non-numeric
// limit) surfaces as a CodeInvalid error from every entry point — there is no
// interpreter behind the compiler to produce output for it instead.
func TestUnplannableQueryIsTypedError(t *testing.T) {
	inst := newTinySocial(t)
	const src = `for $u in dataset MugshotUsers limit "three" return $u.name;`
	_, streamErr := inst.QueryStream(context.Background(), src)
	_, execErr := inst.ExecuteContext(context.Background(), src)
	plan, explainErr := inst.Explain(src)
	for entry, err := range map[string]error{"QueryStream": streamErr, "ExecuteContext": execErr, "Explain": explainErr} {
		var ae *Error
		if !errors.As(err, &ae) || ae.Code != CodeInvalid || !strings.Contains(ae.Message, "unplannable") {
			t.Errorf("%s = %v, want a CodeInvalid unplannable error", entry, err)
		}
	}
	if plan != "" {
		t.Errorf("Explain returned output for an unplannable query: %q", plan)
	}
}

// TestExplainExecutesNothing: Explain applies session statements ahead of
// the query to its own request and rejects every other leading statement
// before running any of it, so explaining changes neither data, catalog nor
// the next request's session.
func TestExplainExecutesNothing(t *testing.T) {
	inst := newTinySocial(t)
	const q = `for $u in dataset MugshotUsers return $u.id;`
	for _, prologue := range []string{
		`delete $u from dataset MugshotUsers;`,
		`drop dataset MugshotUsers;`,
		`create dataset Explained(MugshotUserType) primary key id;`,
		`set simfunction "edit-distance"; drop dataset MugshotUsers;`,
	} {
		if out, err := inst.Explain(prologue + q); ErrorCode(err) != CodeInvalid || out != "" {
			t.Errorf("Explain(%q ...) = %q, %v; want a CodeInvalid error", prologue, out, err)
		}
	}
	if _, ok := inst.Dataset("Explained"); ok {
		t.Error("Explain created a dataset")
	}
	if res, err := inst.Query(q); err != nil || len(res) != 4 {
		t.Errorf("after the rejected explains: %d users, err %v; want all 4", len(res), err)
	}

	out, err := inst.Explain(`use dataverse Metadata; set simfunction "edit-distance"; set simthreshold "9";` + q)
	if err != nil || !strings.Contains(out, "datasource-scan MugshotUsers") {
		t.Errorf("Explain with a session prologue = %q, %v", out, err)
	}
	if _, err := inst.Execute(`create type Explained as open { id: int32 };`); err != nil {
		t.Fatal(err)
	}
	got, err := inst.Query(`[("hello world" ~= "hello there"), (for $t in dataset Metadata.Datatype where $t.DatatypeName = "Explained" return $t.DataverseName)]`)
	if err != nil || len(got) != 1 || got[0].String() != `[ false, [ "Default" ] ]` {
		t.Errorf("the request after Explain: %v, %v; want jaccard 0.5 and dataverse Default", got, err)
	}
}

// TestNilContextDefaults: the exported context-taking entry points treat a
// nil context as context.Background().
func TestNilContextDefaults(t *testing.T) {
	inst := newTinySocial(t)
	_, q, _, err := inst.ExecuteForQuery(nil, `use dataverse TinySocial; 1 + 1`)
	if err != nil || q == nil {
		t.Fatalf("ExecuteForQuery(nil, ...) = %v, %v", q, err)
	}
	cur := NewJobCursor(nil, nil)
	if cur.Next() || cur.Err() != nil {
		t.Errorf("NewJobCursor(nil, nil): Next true or Err %v", cur.Err())
	}
}

// TestDeleteSurfacesPredicateErrors: a delete whose predicate fails (here an
// unbound variable) reports the error the same predicate raises in a query,
// and deletes nothing.
func TestDeleteSurfacesPredicateErrors(t *testing.T) {
	inst := newTinySocial(t)
	if res, err := inst.Execute(`delete $x from dataset MugshotUsers where $y.id = 1;`); err == nil {
		t.Errorf("delete with an unbound predicate variable succeeded: %+v", res)
	}
	if res, err := inst.Query(`for $u in dataset MugshotUsers return $u.id;`); err != nil || len(res) != 4 {
		t.Errorf("after the failed delete: %d users, err %v; want all 4", len(res), err)
	}
	// The victim query carries only primary keys; deleting by them still works.
	if res, err := inst.Execute(`delete $x from dataset MugshotUsers where $x.id >= 3;`); err != nil || res.Count != 2 {
		t.Errorf("delete where id >= 3 = %+v, %v; want Count 2", res, err)
	}
}

// TestMalformedMemoryBudgetEnv: ASTERIXDB_MEMORY_BUDGET is outside input; a
// value that is not a positive byte count fails Open instead of silently
// running unconstrained.
func TestMalformedMemoryBudgetEnv(t *testing.T) {
	for _, v := range []string{"64k", "-1"} {
		t.Setenv("ASTERIXDB_MEMORY_BUDGET", v)
		inst, err := Open(Config{DataDir: t.TempDir()})
		if err == nil {
			inst.Close()
		}
		if ErrorCode(err) != CodeInvalid {
			t.Errorf("ASTERIXDB_MEMORY_BUDGET=%q: Open = %v, want a CodeInvalid error", v, err)
		}
	}
}

// TestFailedCreateIndexLeavesNoIndex: a `create index` whose backfill fails
// (here: an R-tree over a field holding one non-spatial value) must leave no
// published index behind. A half-built one would be picked by the optimizer
// and silently drop the rows the backfill never reached, and a retry would
// report "already exists" instead of the real error.
func TestFailedCreateIndexLeavesNoIndex(t *testing.T) {
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	if _, err := inst.Execute(`
create dataverse V; use dataverse V;
create type T as open { id: int64 };
create dataset D(T) primary key id;
insert into dataset D ([
  {"id": 1, "loc": point("1.0,1.0")}, {"id": 2, "loc": point("2.0,2.0")},
  {"id": 3, "loc": point("3.0,3.0")}, {"id": 4, "loc": "oops"},
  {"id": 5, "loc": point("5.0,5.0")}, {"id": 6, "loc": point("6.0,6.0")},
  {"id": 7, "loc": point("7.0,7.0")}, {"id": 8, "loc": point("8.0,8.0")}
]);`); err != nil {
		t.Fatal(err)
	}
	const ddl = `create index locIdx on D(loc) type rtree;`
	const query = `for $d in dataset D
where spatial-intersect($d.loc, create-rectangle(create-point(0.0, 0.0), create-point(9.0, 9.0)))
return $d.id;`

	_, firstErr := inst.Execute(ddl)
	if firstErr == nil {
		t.Fatal("create index over a non-spatial value succeeded")
	}
	if ixs := inst.DatasetInfo("V", "D").Indexes; len(ixs) != 0 {
		t.Errorf("failed create index left %v published", ixs)
	}
	plan, err := inst.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "datasource-scan") || strings.Contains(plan, "rtree-search") {
		t.Errorf("query plans through the failed index:\n%s", plan)
	}
	rows, err := inst.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Errorf("query returned %d rows, want all 7 spatial ones: %v", len(rows), rows)
	}
	_, retryErr := inst.Execute(ddl)
	if retryErr == nil || errors.Is(retryErr, ErrExists) || retryErr.Error() != firstErr.Error() {
		t.Errorf("retried create index = %v, want the original error %v", retryErr, firstErr)
	}
}
