package asterixdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/expr/oracle"
	"asterixdb/internal/hyracks"
)

// encodeValues canonicalizes result values for comparison.
func encodeValues(t *testing.T, vals []adm.Value) []string {
	t.Helper()
	out := make([]string, len(vals))
	for i, v := range vals {
		b, err := adm.EncodeValue(nil, v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		out[i] = string(b)
	}
	return out
}

func sameResults(t *testing.T, name string, hyracks, interp []adm.Value, ordered bool) {
	t.Helper()
	h, i := encodeValues(t, hyracks), encodeValues(t, interp)
	if !ordered {
		sort.Strings(h)
		sort.Strings(i)
	}
	if len(h) != len(i) {
		t.Fatalf("%s: hyracks returned %d values, interpreter %d", name, len(h), len(i))
	}
	for k := range h {
		if h[k] != i[k] {
			t.Errorf("%s: result %d differs between executors:\n  hyracks:     %q\n  interpreter: %q", name, k, h[k], i[k])
		}
	}
}

// diffQuery is one differential row. Ordered rows sort on a unique key so
// both executors must produce the exact sequence; the others compare as
// multisets. bags marks a row whose results hold a nested list with no inner
// order by: its order is unspecified (the nest join repartitions the
// dataset), so such rows compare their nested lists as bags too.
type diffQuery struct {
	name, query   string
	ordered, bags bool
}

// canonicalBags sorts every list inside each value, for rows whose nested
// lists are bags.
func canonicalBags(t *testing.T, vals []adm.Value) []adm.Value {
	t.Helper()
	var bag func(v adm.Value) adm.Value
	sorted := func(items []adm.Value) []adm.Value {
		out := make([]adm.Value, len(items))
		for i, it := range items {
			out[i] = bag(it)
		}
		keys := encodeValues(t, out)
		sort.Sort(byKey{keys, out})
		return out
	}
	bag = func(v adm.Value) adm.Value {
		if r, ok := v.(*adm.LazyRecord); ok {
			v, _ = adm.AsRecord(r)
		}
		switch x := v.(type) {
		case *adm.OrderedList:
			return &adm.OrderedList{Items: sorted(x.Items)}
		case *adm.UnorderedList:
			return &adm.UnorderedList{Items: sorted(x.Items)}
		case *adm.Record:
			out := &adm.Record{Fields: make([]adm.Field, len(x.Fields))}
			for i, f := range x.Fields {
				out.Fields[i] = adm.Field{Name: f.Name, Value: bag(f.Value)}
			}
			return out
		}
		return v
	}
	out := make([]adm.Value, len(vals))
	for i, v := range vals {
		out[i] = bag(v)
	}
	return out
}

// byKey sorts values by their encodings.
type byKey struct {
	keys []string
	vals []adm.Value
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
}

// sameDiffResults is sameResults for a differential row.
func sameDiffResults(t *testing.T, name string, hyracks, interp []adm.Value, q diffQuery) {
	t.Helper()
	if q.bags {
		hyracks, interp = canonicalBags(t, hyracks), canonicalBags(t, interp)
	}
	sameResults(t, name, hyracks, interp, q.ordered)
}

// differentialQueries is the paper's example workload plus shapes that
// exercise each compiled operator: parallel scans, the secondary-index access
// path, hybrid-hash joins, hinted joins that probe a secondary index or the
// primary index (or, with no index to probe, stay hash joins), the broadcast
// nested-loop join behind let-first queries, hash group-by, sort,
// limit/offset, and the local/global aggregation split. Ordered queries sort
// on a unique key so both executors must produce the exact sequence;
// unordered queries are compared as multisets.
var differentialQueries = []diffQuery{
	{"full-scan", `for $u in dataset MugshotUsers return $u;`, false, false},
	{"range-index-scan", `
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
  and $user.user-since <= datetime('2012-07-29T23:59:59')
return $user;`, false, false},
	{"range-index-behind-unindexed-conjunct", `
for $m in dataset MugshotMessages
where $m.message-id >= 2 and $m.timestamp >= datetime("2014-01-01T00:00:00")
return $m.message-id;`, false, false},
	{"equijoin", `
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id = $user.id
  and $user.user-since >= datetime('2010-07-22T00:00:00')
  and $user.user-since <= datetime('2012-07-29T23:59:59')
return { "uname": $user.name, "message": $message.message };`, false, false},
	{"indexnl-join", `
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id /*+ indexnl */ = $user.id
return { "uname": $user.name, "message": $message.message };`, false, false},
	{"indexnl-join-primary-key", `
for $message in dataset MugshotMessages
for $user in dataset MugshotUsers
where $message.author-id /*+ indexnl */ = $user.id
  and $message.message-id > 1
return { "uname": $user.name, "message": $message.message };`, false, false},
	{"indexnl-join-no-index", `
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.in-response-to /*+ indexnl */ = $user.id
return { "uname": $user.name, "message": $message.message };`, false, false},
	{"group-by", `
for $m in dataset MugshotMessages
group by $aid := $m.author-id with $m
return { "author": $aid, "cnt": count($m) };`, false, false},
	{"group-order-limit", `
for $msg in dataset MugshotMessages
where $msg.timestamp >= datetime("2014-02-20T00:00:00")
  and $msg.timestamp < datetime("2014-02-21T00:00:00")
group by $aid := $msg.author-id with $msg
let $cnt := count($msg)
order by $cnt desc, $aid
limit 3
return { "author": $aid, "no messages": $cnt };`, true, false},
	{"order-limit", `
for $m in dataset MugshotMessages
order by $m.message-id desc
limit 3
return $m.message-id;`, true, false},
	{"order-limit-offset", `
for $m in dataset MugshotMessages
order by $m.message-id
limit 2 offset 2
return $m.message-id;`, true, false},
	{"let-first-nested-loop", `
let $cutoff := datetime("2014-01-01T00:00:00")
for $m in dataset MugshotMessages
where $m.timestamp >= $cutoff
return $m.message-id;`, false, false},
	{"nested-outer-join", `
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
return {
  "uname": $user.name,
  "messages":
    for $message in dataset MugshotMessages
    where $message.author-id = $user.id
    return $message.message
};`, false, true},
	// Datasets inside expressions, each a nest join: the paper's Query 5
	// (keyless), a count in a let, a where, a group key and a constant
	// query, a quantifier source, a positional nested for (positions in
	// the interpreter's order), an inner order by and limit, a let after an
	// order by (the join keeps the order), a nest inside a nest, a dataset
	// read after a nested group-by, and a Metadata dataset.
	{"query5-spatial-nest-join", `
for $t in dataset MugshotMessages
return {
  "message": $t.message,
  "nearby-messages":
    for $t2 in dataset MugshotMessages
    where spatial-distance($t.sender-location, $t2.sender-location) <= 1
    return { "msgtxt": $t2.message }
};`, false, true},
	{"nested-count-let", `
for $u in dataset MugshotUsers
let $n := count(for $m in dataset MugshotMessages where $m.author-id = $u.id return $m)
return { "u": $u.id, "n": $n };`, false, false},
	{"nested-count-where", `
for $u in dataset MugshotUsers
where count(for $m in dataset MugshotMessages where $m.author-id = $u.id return $m) >= 1 and $u.id > 1
return $u.id;`, false, false},
	{"nested-group-key", `
for $m in dataset MugshotMessages
group by $k := count(for $x in dataset MugshotMessages where $x.author-id = $m.author-id return $x) with $m
return { "k": $k, "n": count($m) };`, false, false},
	{"nested-constant", `{ "users": count(for $u in dataset MugshotUsers return $u), "max": max(for $m in dataset MugshotMessages return $m.message-id) }`, true, false},
	{"nested-quantifier", `
for $u in dataset MugshotUsers
where some $m in dataset MugshotMessages satisfies $m.author-id = $u.id
return $u.id;`, false, false},
	{"nested-positional", `
for $u in dataset MugshotUsers
return { "u": $u.id, "at": for $m at $i in dataset MugshotMessages where $m.author-id = $u.id return $i };`, false, false},
	{"nested-order-limit", `
for $u in dataset MugshotUsers
return { "u": $u.id, "last": for $m in dataset MugshotMessages where $m.author-id = $u.id order by $m.message-id desc limit 1 return $m.message-id };`, false, false},
	{"nested-after-order", `
for $u in dataset MugshotUsers
order by $u.id desc
let $n := count(for $m in dataset MugshotMessages where $m.author-id = $u.id return $m)
return { "u": $u.id, "n": $n };`, true, false},
	{"nested-in-nested", `
for $u in dataset MugshotUsers
return { "u": $u.id, "replies": for $m in dataset MugshotMessages where $m.author-id = $u.id
  return count(for $r in dataset MugshotMessages where $r.in-response-to = $m.message-id return $r) };`, false, true},
	{"nested-after-nested-group", `
for $u in dataset MugshotUsers
return { "u": $u.id, "g": for $m in dataset MugshotMessages where $m.author-id = $u.id
  group by $a := $m.author-id with $m
  return { "a": $a, "n": count($m), "same": count(for $x in dataset MugshotUsers where $x.id = $a and $x.id = $u.id return $x) } };`, false, true},
	{"nested-metadata", `
for $ds in dataset Metadata.Dataset
return { "ds": $ds.DatasetName, "indexes": for $ix in dataset Metadata.Index where $ix.DatasetName = $ds.DatasetName return $ix.IndexName };`, false, true},
	{"fuzzy-join", `
set simfunction "edit-distance";
set simthreshold "3";
for $msu in dataset MugshotUsers
for $msm in dataset MugshotMessages
where $msu.id = $msm.author-id
  and (some $word in word-tokens($msm.message) satisfies $word ~= "tonight")
return { "name": $msu.name, "message": $msm.message };`, false, false},
	{"self-join", `
for $a in dataset MugshotMessages
for $b in dataset MugshotMessages
where $a.author-id = $b.author-id
return { "a": $a.message-id, "b": $b.message-id };`, false, false},
	{"rtree-spatial", `
for $m in dataset MugshotMessages
where spatial-intersect($m.sender-location, create-rectangle(create-point(41.0, 80.0), create-point(42.0, 81.0)))
return $m.message-id;`, false, false},
	{"rtree-spatial-circle", `
for $m in dataset MugshotMessages
where spatial-intersect($m.sender-location, create-circle(create-point(41.66, 80.88), 0.5))
return $m.message-id;`, false, false},
	{"contains-ngram", `
for $m in dataset MugshotMessages
where contains($m.message, "data")
return $m.message-id;`, false, false},
	{"keyword-some", `
for $m in dataset MugshotMessages
where (some $w in word-tokens($m.message) satisfies $w = "tonight")
return $m.message-id;`, false, false},
	{"unnest-tags", `
for $m in dataset MugshotMessages
for $t in $m.tags
return { "id": $m.message-id, "tag": $t };`, false, false},
	{"unnest-filter", `
for $m in dataset MugshotMessages
for $t in $m.tags
where $t = "big-data"
return $m.message-id;`, false, false},
	{"unnest-group", `
for $m in dataset MugshotMessages
for $t in $m.tags
group by $tag := $t with $m
return { "tag": $tag, "cnt": count($m) };`, false, false},
	{"unnest-employment", `
for $u in dataset MugshotUsers
for $e in $u.employment
return { "u": $u.id, "org": $e.organization-name };`, false, false},
	// An uncorrelated nested-FLWOR source must compile as a standalone
	// subplan source: its own bound variables are not free references.
	{"subplan-nested-flwor", `
for $c in (for $x in dataset MugshotMessages return $x.message-id)
return $c;`, false, false},
	// The nested FLWOR is correlated only through its group-by key: the
	// FreeVarsOf walk behind Build's correlation check must cover group-by/
	// order-by/limit clauses of nested FLWORs or this source is misclassified
	// as uncorrelated and evaluated in an empty environment.
	{"unnest-nested-flwor", `
for $u in dataset MugshotUsers
for $c in (for $x in dataset MugshotMessages group by $same := ($x.author-id = $u.id) with $x return count($x))
return { "u": $u.id, "c": $c };`, false, false},
	// Positional variables: the source operator binds $i to the item's
	// 1-based position in the interpreter's iteration order (partition
	// concatenation for dataset scans, per-binding restart for unnests).
	{"positional-scan", `
for $u at $i in dataset MugshotUsers
return { "i": $i, "id": $u.id };`, false, false},
	// The where-predicate is index-eligible, but a positional scan must keep
	// its full scan: positions reflect the pre-select enumeration.
	{"positional-filter", `
for $u at $i in dataset MugshotUsers
where $u.user-since >= datetime('2010-07-22T00:00:00')
return { "i": $i, "id": $u.id };`, false, false},
	{"positional-join", `
for $u in dataset MugshotUsers
for $m at $i in dataset MugshotMessages
where $m.author-id = $u.id
return { "i": $i, "id": $m.message-id };`, false, false},
	{"positional-unnest", `
for $m in dataset MugshotMessages
for $t at $j in $m.tags
return { "id": $m.message-id, "j": $j, "tag": $t };`, false, false},
	{"positional-subplan", `for $x at $i in [10, 20, 30] return $i * $x;`, false, false},
	{"positional-order-limit", `
for $m at $i in dataset MugshotMessages
order by $i
limit 4 offset 1
return { "i": $i, "id": $m.message-id };`, true, false},
	{"metadata-scan", `for $ds in dataset Metadata.Dataset return $ds;`, false, false},
	{"agg-avg", `avg(for $m in dataset MugshotMessages return string-length($m.message))`, true, false},
	{"agg-sum", `sum(for $m in dataset MugshotMessages return string-length($m.message))`, true, false},
	{"agg-count", `count(for $m in dataset MugshotMessages return $m.message-id)`, true, false},
	{"agg-min", `min(for $m in dataset MugshotMessages return $m.message-id)`, true, false},
	{"agg-max", `max(for $m in dataset MugshotMessages return $m.timestamp)`, true, false},
	{"agg-sql-count", `sql-count(for $m in dataset MugshotMessages return $m.in-response-to)`, true, false},
	{"agg-over-index-path", `
avg(
  for $m in dataset MugshotMessages
  where $m.timestamp >= datetime("2014-01-01T00:00:00")
    and $m.timestamp < datetime("2014-04-01T00:00:00")
  return string-length($m.message)
)`, true, false},
}

// TestDifferentialHyracksVsInterpreter runs every query through the pipelined
// Hyracks executor and through the materializing interpreter oracle and
// asserts identical results, across the ablation option set.
func TestDifferentialHyracksVsInterpreter(t *testing.T) {
	inst := newTinySocial(t)
	optionSets := map[string]algebra.Options{
		"default":      {},
		"no-index":     {DisableIndexAccess: true},
		"no-agg-split": {DisableAggSplit: true},
		"no-pk-sort":   {DisablePKSort: true},
	}
	for _, q := range differentialQueries {
		for optName, opts := range optionSets {
			hyRes, err := inst.QueryWithOptions(q.query, opts)
			if err != nil {
				t.Fatalf("%s/%s (hyracks): %v", q.name, optName, err)
			}
			orRes, err := inst.interpret(q.query, opts)
			if err != nil {
				t.Fatalf("%s/%s (interpreter): %v", q.name, optName, err)
			}
			sameDiffResults(t, q.name+"/"+optName, hyRes, orRes, q)
		}
	}
}

// TestPositionalVariableGroundTruth pins the compiled positional-variable
// semantics to the raw expression interpreter — the engine's former fallback
// path for `at` clauses and therefore the behavioral reference. Both
// executors implement the same partition-concatenation order, so this guards
// against a shared deviation the differential test could not see.
func TestPositionalVariableGroundTruth(t *testing.T) {
	inst := newTinySocial(t)
	for _, q := range []string{
		`for $u at $i in dataset MugshotUsers order by $i return { "i": $i, "id": $u.id };`,
		`for $m at $i in dataset MugshotMessages where $m.message-id >= 5 order by $i return { "i": $i, "id": $m.message-id };`,
		`for $x at $i in [7, 8, 9] order by $i return $i * $x;`,
		`for $m in dataset MugshotMessages for $t at $j in $m.tags order by $m.message-id, $j return { "id": $m.message-id, "j": $j, "t": $t };`,
		`for $u in dataset MugshotUsers for $m at $i in dataset MugshotMessages where $m.author-id = $u.id order by $m.message-id return { "i": $i, "id": $m.message-id };`,
		`for $m at $i in dataset MugshotMessages order by $i limit 3 return $i;`,
	} {
		e, err := aql.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Eval(inst.newRequest().oracleContext(), oracle.Env{}, e)
		if err != nil {
			t.Fatalf("interpreter(%s): %v", q, err)
		}
		res, err := inst.Query(q)
		if err != nil {
			t.Fatalf("compiled(%s): %v", q, err)
		}
		sameResults(t, q, res, expr.IterationItems(want), true)
	}
}

// TestNestedLimitMatchesJobLimit: a nested FLWOR's limit and offset keep
// what the job's limit operator keeps for the same clause, a negative one
// counting as zero and one past the platform's int keeping or skipping
// everything (the 32-bit leg checks the second).
func TestNestedLimitMatchesJobLimit(t *testing.T) {
	inst := newTinySocial(t)
	for _, clause := range []string{`limit -1`, `limit 2 offset -1`, `limit 1 offset 1`, `limit 5 offset 2`, `limit 0`, `limit 2 offset 9`,
		`limit 3000000000`, `limit 4294967297 offset 1`, `limit 2 offset 4294967297`} {
		top, err := inst.Query(`for $y in [1, 2, 3] ` + clause + ` return $y;`)
		if err != nil {
			t.Fatal(err)
		}
		nested, err := inst.Query(`for $x in [0] return (for $y in [1, 2, 3] ` + clause + ` return $y);`)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(nested), fmt.Sprint([]adm.Value{&adm.OrderedList{Items: top}}); got != want {
			t.Errorf("%s: nested %s, job %s", clause, got, want)
		}
	}
}

// TestExecuteJobDirectly compiles a query once and runs the same plan through
// the job (runJob) and the interpreter oracle (executePlan) explicitly.
func TestExecuteJobDirectly(t *testing.T) {
	inst := newTinySocial(t)
	for _, q := range []string{
		`for $u in dataset MugshotUsers return $u.name`,
		`avg(for $m in dataset MugshotMessages return string-length($m.message))`,
	} {
		job, plan, err := inst.compileJob(q)
		if err != nil {
			t.Fatal(err)
		}
		jobRes, err := inst.runJob(job)
		if err != nil {
			t.Fatalf("runJob(%s): %v", q, err)
		}
		planRes, err := inst.executePlan(plan)
		if err != nil {
			t.Fatalf("executePlan(%s): %v", q, err)
		}
		sameResults(t, q, jobRes, planRes, false)
	}
}

// TestSubplanSourceThroughExecutor covers user-defined functions as
// datasource operators (Query 8/9's shape).
func TestSubplanSourceThroughExecutor(t *testing.T) {
	inst := newTinySocial(t)
	if _, err := inst.Execute(`
create function unemployed() {
  for $msu in dataset MugshotUsers
  where (every $e in $msu.employment satisfies not(is-null($e.end-date)))
  return { "name": $msu.name, "address": $msu.address }
};`); err != nil {
		t.Fatal(err)
	}
	res, err := inst.Query(`
for $un in unemployed()
where $un.address.zip = "98765"
return $un;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("function query returned %d rows, want 2", len(res))
	}
}

// TestConcurrentQueriesWithOptions exercises the QueryWithOptions data race
// fixed by threading options through the compile call: concurrent queries
// with different optimizer options on one instance must be safe (run under
// -race).
func TestConcurrentQueriesWithOptions(t *testing.T) {
	inst := newTinySocial(t)
	query := `
for $m in dataset MugshotMessages
where $m.timestamp >= datetime("2014-01-01T00:00:00")
return $m.message-id;`
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				var res []adm.Value
				var err error
				if i%2 == 0 {
					res, err = inst.QueryWithOptions(query, algebra.Options{DisableIndexAccess: true})
				} else {
					res, err = inst.Query(query)
				}
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
					return
				}
				if len(res) != 4 {
					t.Errorf("worker %d: got %d rows, want 4", i, len(res))
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestEveryDifferentialQueryCompilesToAJob asserts that BuildJob can express
// every differential query, set-statement prologues included: a parseable
// query that fails to compile into a Hyracks job is an error the user sees,
// so for this corpus it is a bug.
func TestEveryDifferentialQueryCompilesToAJob(t *testing.T) {
	inst := newTinySocial(t)
	for _, q := range differentialQueries {
		if _, _, err := inst.compileJob(q.query); err != nil {
			t.Errorf("%s: BuildJob failed: %v", q.name, err)
		}
	}
}

// TestIndexNLHintPlanNamesTheJob: the optimizer alone decides whether an
// indexnl hint is honoured, so the plan text names what the job runs — a hash
// join when the inner dataset has no index on the join field, otherwise the
// Figure 6 chain fed by the outer side, with no scan of the inner dataset in
// either the plan or the job. The chain runs as one fused operator per
// partition, its primary-key sort included.
func TestIndexNLHintPlanNamesTheJob(t *testing.T) {
	inst := newTinySocial(t)
	for _, c := range []struct {
		name, query string
		want        []string // lines of the plan and of the job, in order
		absent      []string
	}{
		{"no index on the inner field", `
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.in-response-to /*+ indexnl */ = $user.id
return $message.message-id;`,
			[]string{"datasource-scan MugshotMessages -> $message", "join (hybrid-hash-join)", "join(hybrid-hash-join)"},
			[]string{"btree-search"}},
		{"inner primary key", `
for $message in dataset MugshotMessages
for $user in dataset MugshotUsers
where $message.author-id /*+ indexnl */ = $user.id
return $user.name;`,
			[]string{"datasource-scan MugshotMessages -> $message", "btree-search (primary MugshotUsers)",
				"datasource-scan(MugshotMessages)", "assign(probe-key)", "--MToNPartitioningConnector-->", "btree-search(MugshotUsers)"},
			[]string{"datasource-scan MugshotUsers", "datasource-scan(MugshotUsers)", "join", "sort", "select"}},
		{"inner secondary B+-tree field", `
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id /*+ indexnl */ = $user.id
return $message.message-id;`,
			[]string{"datasource-scan MugshotUsers -> $user", "btree-search (secondary msAuthorIdx on MugshotMessages)",
				"sort (primary keys)", "btree-search (primary MugshotMessages)", "select",
				"datasource-scan(MugshotUsers)  --MToNReplicatingConnector-->  fused[btree-search(msAuthorIdx) -> sort(primary-keys) -> btree-search(MugshotMessages) -> select"},
			[]string{"datasource-scan MugshotMessages", "datasource-scan(MugshotMessages)", "join"}},
	} {
		explain, err := inst.Explain(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rest := explain
		for _, w := range c.want {
			_, after, found := strings.Cut(rest, w)
			if !found {
				t.Errorf("%s: explain is missing %q (in this order):\n%s", c.name, w, explain)
				break
			}
			rest = after
		}
		for _, a := range c.absent {
			if strings.Contains(explain, a) {
				t.Errorf("%s: explain must not mention %q:\n%s", c.name, a, explain)
			}
		}
	}
}

// findOp returns the parallelism of the first job operator whose name starts
// with the given prefix, or -1 when no such operator exists. Operators fused
// into a chain are found through the chain (a fused stage runs at the chain's
// parallelism).
func findOp(job *hyracks.Job, prefix string) int {
	for _, op := range job.FlatOperators() {
		if strings.HasPrefix(op.Name(), prefix) {
			return op.Parallelism()
		}
	}
	return -1
}

// TestCompiledAccessPathsRunPerPartition is the parallelism regression test:
// every secondary-index access path must compile into per-partition
// secondary-search -> PK-sort -> primary-search stages (parallelism = the
// instance's partition count), not a parallelism-1 materialized source.
func TestCompiledAccessPathsRunPerPartition(t *testing.T) {
	inst := newTinySocial(t) // Partitions: 2
	const parts = 2
	cases := []struct {
		name      string
		query     string
		secondary string
	}{
		{"btree", `
for $m in dataset MugshotMessages
where $m.timestamp >= datetime("2014-01-01T00:00:00") and $m.timestamp < datetime("2014-04-01T00:00:00")
return $m;`, "btree-search(msTimestampIdx)"},
		{"rtree", `
for $m in dataset MugshotMessages
where spatial-intersect($m.sender-location, create-rectangle(create-point(41.0, 80.0), create-point(42.0, 81.0)))
return $m.message-id;`, "rtree-search(msSenderLocIndex)"},
		{"inverted-ngram", `
for $m in dataset MugshotMessages
where contains($m.message, "data")
return $m.message-id;`, "inverted-search(msMessageNGramIdx)"},
		{"inverted-keyword", `
for $m in dataset MugshotMessages
where (some $w in word-tokens($m.message) satisfies $w = "tonight")
return $m.message-id;`, "inverted-search(msMessageIdx)"},
	}
	for _, c := range cases {
		job, _, err := inst.compileJob(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, stage := range []string{c.secondary, "sort(primary-keys)", "btree-search(MugshotMessages)"} {
			par := findOp(job, stage)
			if par < 0 {
				t.Errorf("%s: job is missing stage %q:\n%s", c.name, stage, job.Describe())
				continue
			}
			if par != parts {
				t.Errorf("%s: stage %q runs at parallelism %d, want %d (per-partition)", c.name, stage, par, parts)
			}
		}
	}
	// The correlated unnest compiles as a partitioned operator over the scan.
	job, _, err := inst.compileJob(`
for $m in dataset MugshotMessages
for $t in $m.tags
return { "id": $m.message-id, "tag": $t };`)
	if err != nil {
		t.Fatal(err)
	}
	if par := findOp(job, "unnest($t)"); par != parts {
		t.Errorf("unnest operator parallelism = %d, want %d:\n%s", par, parts, job.Describe())
	}
}

// TestSelfJoinLargeDataset is the regression test for the scan-vs-scan
// deadlock: a compiled self-join runs two pipelined scans of the same
// dataset, and with more rows than the dataflow channels buffer, the probe
// scan blocks mid-stream while the build scan must still finish. This hung
// before ScanPartition moved its visitor outside the partition lock.
func TestSelfJoinLargeDataset(t *testing.T) {
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	if _, err := inst.Execute(`
create type N as closed { id: int32, k: int32 };
create dataset Nums(N) primary key id;`); err != nil {
		t.Fatal(err)
	}
	ds, _ := inst.Dataset("Nums")
	var recs []*adm.Record
	for i := 1; i <= 20000; i++ {
		recs = append(recs, adm.NewRecord(
			adm.Field{Name: "id", Value: adm.Int32(int32(i))},
			adm.Field{Name: "k", Value: adm.Int32(int32(i % 100))},
		))
	}
	if _, err := ds.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var res []adm.Value
	var qerr error
	go func() {
		res, qerr = inst.Query(`
for $a in dataset Nums
for $b in dataset Nums
where $a.id = $b.id and $a.id <= 3
return $b.id;`)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("self-join deadlocked")
	}
	if qerr != nil {
		t.Fatal(qerr)
	}
	if len(res) != 3 {
		t.Fatalf("self-join returned %d rows, want 3", len(res))
	}
}
