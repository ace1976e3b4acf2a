package algebra

import (
	"strings"
	"testing"

	"asterixdb/internal/aql"
)

// fakeCatalog maps dataset names to what the optimizer sees of them.
type fakeCatalog map[string]DatasetInfo

func (c fakeCatalog) DatasetInfo(_, name string) DatasetInfo { return c[name] }

// tinySocial has MugshotMessages with timestamp B+-tree, sender-location
// R-tree and message keyword/ngram indexes, and MugshotUsers with none.
var tinySocial = fakeCatalog{
	"MugshotMessages": {PrimaryKey: []string{"message-id"}, Indexes: []IndexInfo{
		{Name: "msTimestampIdx", Kind: BTreeIndex, Field: "timestamp"},
		{Name: "msSenderLocIndex", Kind: RTreeIndex, Field: "sender-location"},
		{Name: "msMessageIdx", Kind: KeywordIndex, Field: "message"},
		{Name: "msMessageNGramIdx", Kind: NGramIndex, Field: "message", GramLength: 3},
	}},
	"MugshotUsers": {PrimaryKey: []string{"id"}},
}

func compile(t *testing.T, src string, opts Options) *Plan {
	t.Helper()
	return compileWith(t, tinySocial, src, opts)
}

func compileWith(t *testing.T, cat Catalog, src string, opts Options) *Plan {
	t.Helper()
	e, err := aql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	fl, ok := e.(*aql.FLWORExpr)
	if !ok {
		t.Fatalf("not a FLWOR: %T", e)
	}
	plan, err := Build(fl)
	if err != nil {
		t.Fatal(err)
	}
	return Optimize(plan, cat, opts)
}

func TestIndexAccessPathRewrite(t *testing.T) {
	plan := compile(t, `
for $m in dataset MugshotMessages
where $m.timestamp >= datetime("2014-01-01T00:00:00") and $m.timestamp < datetime("2014-04-01T00:00:00")
return $m;`, Options{})
	explain := Explain(plan)
	for _, want := range []string{"btree-search (secondary msTimestampIdx", "sort (primary keys)", "btree-search (primary MugshotMessages)", "select"} {
		if !strings.Contains(explain, want) {
			t.Errorf("explain missing %q:\n%s", want, explain)
		}
	}
	// Disabling the rule keeps the scan.
	plan = compile(t, `
for $m in dataset MugshotMessages
where $m.timestamp >= datetime("2014-01-01T00:00:00")
return $m;`, Options{DisableIndexAccess: true})
	if strings.Contains(Explain(plan), "btree-search (secondary") {
		t.Error("index access path introduced despite being disabled")
	}
	// A predicate on an unindexed field keeps the scan.
	plan = compile(t, `
for $m in dataset MugshotMessages
where $m.author-id = 7
return $m;`, Options{})
	if strings.Contains(Explain(plan), "btree-search (secondary") {
		t.Error("index access path introduced for unindexed field")
	}
}

func TestRTreeAccessPathRewrite(t *testing.T) {
	plan := compile(t, `
for $m in dataset MugshotMessages
where spatial-intersect($m.sender-location, create-rectangle(create-point(41.0, 80.0), create-point(42.0, 81.0)))
return $m;`, Options{})
	explain := Explain(plan)
	for _, want := range []string{"rtree-search (secondary msSenderLocIndex", "sort (primary keys)", "btree-search (primary MugshotMessages)", "select"} {
		if !strings.Contains(explain, want) {
			t.Errorf("explain missing %q:\n%s", want, explain)
		}
	}
	// Reversed argument order also qualifies.
	plan = compile(t, `
for $m in dataset MugshotMessages
where spatial-intersect(create-point(41.0, 80.0), $m.sender-location)
return $m;`, Options{})
	if !strings.Contains(Explain(plan), "rtree-search (secondary") {
		t.Errorf("reversed spatial-intersect not rewritten:\n%s", Explain(plan))
	}
}

func TestInvertedAccessPathRewrite(t *testing.T) {
	// contains with a long-enough literal uses the ngram index.
	plan := compile(t, `
for $m in dataset MugshotMessages
where contains($m.message, "data")
return $m;`, Options{})
	if !strings.Contains(Explain(plan), "inverted-search (secondary msMessageNGramIdx") {
		t.Errorf("contains not rewritten to ngram search:\n%s", Explain(plan))
	}
	// A probe shorter than the gram length cannot bound the candidates.
	plan = compile(t, `
for $m in dataset MugshotMessages
where contains($m.message, "da")
return $m;`, Options{})
	if strings.Contains(Explain(plan), "inverted-search") {
		t.Errorf("short contains probe must not use the ngram index:\n%s", Explain(plan))
	}
	// Tokenized equality uses the keyword index.
	plan = compile(t, `
for $m in dataset MugshotMessages
where (some $w in word-tokens($m.message) satisfies $w = "tonight")
return $m;`, Options{})
	if !strings.Contains(Explain(plan), "inverted-search (secondary msMessageIdx") {
		t.Errorf("tokenized equality not rewritten to keyword search:\n%s", Explain(plan))
	}
	// DisableIndexAccess keeps the scan.
	plan = compile(t, `
for $m in dataset MugshotMessages
where contains($m.message, "data")
return $m;`, Options{DisableIndexAccess: true})
	if strings.Contains(Explain(plan), "inverted-search") {
		t.Error("inverted access path introduced despite being disabled")
	}
}

func TestCorrelatedUnnestBecomesOperator(t *testing.T) {
	plan := compile(t, `
for $m in dataset MugshotMessages
for $t in $m.tags
return $t;`, Options{})
	if !strings.Contains(Explain(plan), "unnest $t") {
		t.Errorf("correlated for-clause not compiled as unnest:\n%s", Explain(plan))
	}
	// An uncorrelated non-dataset source stays a standalone subplan source.
	plan = compile(t, `
for $m in dataset MugshotMessages
for $x in [1, 2, 3]
return $x;`, Options{})
	explain := Explain(plan)
	if !strings.Contains(explain, "subplan") || strings.Contains(explain, "unnest") {
		t.Errorf("uncorrelated list source should stay a subplan source:\n%s", explain)
	}
}

func TestPositionalVariableCompiles(t *testing.T) {
	plan := compile(t, `for $m at $i in dataset MugshotMessages return $i;`, Options{})
	if !strings.Contains(Explain(plan), "datasource-scan MugshotMessages -> $m at $i") {
		t.Errorf("positional for-clause not recorded on the scan:\n%s", Explain(plan))
	}
	// A positional scan keeps its full scan: an index access path would emit
	// only the matching records and lose the full-scan positions.
	plan = compile(t, `
for $m at $i in dataset MugshotMessages
where $m.timestamp >= datetime("2014-01-01T00:00:00")
return $i;`, Options{})
	if strings.Contains(Explain(plan), "btree-search") {
		t.Errorf("positional scan must not be rewritten to an index access path:\n%s", Explain(plan))
	}
	// Likewise the indexnl hint degrades to a position-preserving hash join
	// when the probed side carries the positional variable, although its
	// primary key is the join field.
	plan = compile(t, `
for $u in dataset MugshotUsers
for $m at $i in dataset MugshotMessages
where $u.id /*+ indexnl */ = $m.message-id
return $i;`, Options{})
	if explain := Explain(plan); strings.Contains(explain, "btree-search") || !strings.Contains(explain, "join (hybrid-hash-join)") {
		t.Errorf("indexnl over a positional scan must degrade to hash join:\n%s", explain)
	}
	// Correlated positional sources become unnests that carry the variable.
	plan = compile(t, `
for $m in dataset MugshotMessages
for $t at $j in $m.tags
return $j;`, Options{})
	if !strings.Contains(Explain(plan), "unnest $t at $j") {
		t.Errorf("correlated positional for-clause not compiled as positional unnest:\n%s", Explain(plan))
	}
}

func TestPKSortAblation(t *testing.T) {
	plan := compile(t, `
for $m in dataset MugshotMessages
where $m.timestamp >= datetime("2014-01-01T00:00:00")
return $m;`, Options{DisablePKSort: true})
	if strings.Contains(Explain(plan), "sort (primary keys)") {
		t.Error("PK sort present despite being disabled")
	}
}

func TestEquijoinBecomesHashJoin(t *testing.T) {
	plan := compile(t, `
for $u in dataset MugshotUsers
for $m in dataset MugshotMessages
where $m.author-id = $u.id
return { "u": $u.name };`, Options{})
	explain := Explain(plan)
	if !strings.Contains(explain, "join (hybrid-hash-join)") {
		t.Errorf("equijoin not rewritten to hash join:\n%s", explain)
	}
}

// TestIndexNLHint: the plan names the join the job runs. A hint the inner
// dataset has no index for is a hash join; an honoured one is the access path
// fed by the outer side, and the inner dataset is never scanned.
func TestIndexNLHint(t *testing.T) {
	for _, tc := range []struct {
		name, where string
		opts        Options
		want        string
	}{
		{"no index on the inner field", `$m.author-id /*+ indexnl */ = $u.id`, Options{}, `
datasource-scan MugshotUsers -> $u
datasource-scan MugshotMessages -> $m
join (hybrid-hash-join)
distribute-result`},
		// A primary-key probe is exact: only the other conjuncts are selected.
		{"inner primary key", `$u.id /*+ indexnl */ = $m.message-id`, Options{}, `
datasource-scan MugshotUsers -> $u
btree-search (primary MugshotMessages)
distribute-result`},
		{"inner primary key and a residual conjunct", `$u.id /*+ indexnl */ = $m.message-id and $u.id > 1`, Options{}, `
datasource-scan MugshotUsers -> $u
btree-search (primary MugshotMessages)
select ($u.id > 1)
distribute-result`},
		{"inner secondary B+-tree field", `$m.timestamp /*+ indexnl */ = $u.user-since and $u.id > 1`, Options{}, `
datasource-scan MugshotUsers -> $u
btree-search (secondary msTimestampIdx on MugshotMessages)
sort (primary keys)
btree-search (primary MugshotMessages)
select (($m.timestamp /*+ indexnl */ = $u.user-since) and ($u.id > 1))
distribute-result`},
		{"PK sort ablated", `$m.timestamp /*+ indexnl */ = $u.user-since`, Options{DisablePKSort: true}, `
datasource-scan MugshotUsers -> $u
btree-search (secondary msTimestampIdx on MugshotMessages)
btree-search (primary MugshotMessages)
select ($m.timestamp /*+ indexnl */ = $u.user-since)
distribute-result`},
		// DisableIndexAccess ablates the select rule only; a hint is explicit.
		{"index access ablated", `$u.id /*+ indexnl */ = $m.message-id`, Options{DisableIndexAccess: true}, `
datasource-scan MugshotUsers -> $u
btree-search (primary MugshotMessages)
distribute-result`},
		{"inner key is not a field", `$u.id /*+ indexnl */ = $m.message-id + 1`, Options{}, `
datasource-scan MugshotUsers -> $u
datasource-scan MugshotMessages -> $m
join (hybrid-hash-join)
distribute-result`},
	} {
		plan := compile(t, "for $u in dataset MugshotUsers for $m in dataset MugshotMessages where "+tc.where+" return $u;", tc.opts)
		if got := Explain(plan); got != strings.TrimSpace(tc.want) {
			t.Errorf("%s: plan\n%s\nwant\n%s", tc.name, got, strings.TrimSpace(tc.want))
		}
	}
}

// TestAccessPathRule drives the one access-method rule through the index
// list: every kind is matched by its own entry, in list (creation) order.
func TestAccessPathRule(t *testing.T) {
	ix := func(name string, kind IndexKind, field string) IndexInfo {
		return IndexInfo{Name: name, Kind: kind, Field: field, GramLength: 3}
	}
	all := []IndexInfo{ix("bt", BTreeIndex, "ts"), ix("rt", RTreeIndex, "loc"), ix("kw", KeywordIndex, "msg"), ix("ng", NGramIndex, "msg")}
	const scan = "datasource-scan D -> $d"
	const primary = "btree-search (primary D)"
	for _, tc := range []struct {
		name    string
		indexes []IndexInfo
		source  string // the for clause's source
		where   string
		opts    Options
		want    string // the plan's first line
	}{
		{"btree", all, "", `$d.ts >= 1 and $d.ts < 9`, Options{}, "btree-search (secondary bt on D)"},
		{"btree reversed", all, "", `1 <= $d.ts`, Options{}, "btree-search (secondary bt on D)"},
		{"rtree", all, "", `spatial-intersect($d.loc, create-point(1.0, 2.0))`, Options{}, "rtree-search (secondary rt on D)"},
		{"keyword", all, "", `(some $w in word-tokens($d.msg) satisfies $w = "x")`, Options{}, "inverted-search (secondary kw on D)"},
		{"ngram", all, "", `contains($d.msg, "data")`, Options{}, "inverted-search (secondary ng on D)"},
		{"ngram probe too short", all, "", `contains($d.msg, "da")`, Options{}, scan},
		{"no index on the field", all, "", `$d.other = 1`, Options{}, scan},
		{"value references the scan variable", all, "", `$d.ts = $d.other`, Options{}, scan},
		// An unindexed range conjunct ahead of the indexed one used to hide it.
		{"unindexed conjunct first", all, "", `$d.a >= 1 and $d.ts >= 1`, Options{}, "btree-search (secondary bt on D)"},
		{"indexed conjunct first", all, "", `$d.ts >= 1 and $d.a >= 1`, Options{}, "btree-search (secondary bt on D)"},
		{"first created of two on one field", []IndexInfo{ix("first", BTreeIndex, "ts"), ix("second", BTreeIndex, "ts")}, "",
			`$d.ts = 1`, Options{}, "btree-search (secondary first on D)"},
		{"list order across kinds", []IndexInfo{ix("ng", NGramIndex, "msg"), ix("bt", BTreeIndex, "ts")}, "",
			`$d.ts = 1 and contains($d.msg, "data")`, Options{}, "inverted-search (secondary ng on D)"},
		{"unknown kind is skipped", []IndexInfo{ix("odd", "bitmap", "ts"), ix("bt", BTreeIndex, "ts")}, "",
			`$d.ts = 1`, Options{}, "btree-search (secondary bt on D)"},
		{"positional scan", all, "$d at $i in dataset D", `$d.ts >= 1`, Options{}, "datasource-scan D -> $d at $i"},
		{"DisableIndexAccess", all, "", `$d.ts >= 1`, Options{DisableIndexAccess: true}, scan},
		{"the primary index answers a key equality", all, "", `$d.id = 1`, Options{}, primary},
		{"key equality reversed", nil, "", `1 + 1 = $d.id`, Options{}, primary},
		{"key probe references the scan variable", all, "", `$d.id = $d.other`, Options{}, scan},
		{"composite primary key", all, "$d in dataset C", `$d.id = 1 and $d.sub = 2`, Options{}, "datasource-scan C -> $d"},
		{"key range", all, "", `$d.id >= 1`, Options{}, scan},
		{"key equality with DisableIndexAccess", all, "", `$d.id = 1`, Options{DisableIndexAccess: true}, scan},
		{"key equality beside an indexed conjunct", all, "", `$d.ts = 1 and $d.id = 2`, Options{}, primary},
		{"key equality on a positional scan", all, "$d at $i in dataset D", `$d.id = 1`, Options{}, "datasource-scan D -> $d at $i"},
	} {
		source := tc.source
		if source == "" {
			source = "$d in dataset D"
		}
		cat := fakeCatalog{
			"D": {PrimaryKey: []string{"id"}, Indexes: tc.indexes},
			"C": {PrimaryKey: []string{"id", "sub"}, Indexes: tc.indexes},
		}
		plan := compileWith(t, cat, "for "+source+" where "+tc.where+" return $d;", tc.opts)
		explain := Explain(plan)
		if first, _, _ := strings.Cut(explain, "\n"); first != tc.want {
			t.Errorf("%s: plan starts %q, want %q:\n%s", tc.name, first, tc.want, explain)
		}
		// Whatever the access path, the whole predicate is re-applied above it.
		if !strings.Contains(explain, "\nselect ") {
			t.Errorf("%s: post-validating select missing:\n%s", tc.name, explain)
		}
	}
	// DisablePKSort removes exactly the sort from the chain.
	cat := fakeCatalog{"D": {Indexes: all}}
	want := "btree-search (secondary bt on D)\nbtree-search (primary D)\nselect ($d.ts >= 1)\ndistribute-result"
	if got := Explain(compileWith(t, cat, "for $d in dataset D where $d.ts >= 1 return $d;", Options{DisablePKSort: true})); got != want {
		t.Errorf("DisablePKSort plan\n%s\nwant\n%s", got, want)
	}
}

func TestWrapAggregate(t *testing.T) {
	base := compile(t, `for $m in dataset MugshotMessages return string-length($m.message);`, Options{})
	split := WrapAggregate(base, "avg", false)
	explain := Explain(split)
	if !strings.Contains(explain, "aggregate (local-avg)") || !strings.Contains(explain, "aggregate (global-avg)") {
		t.Errorf("aggregate split missing:\n%s", explain)
	}
	noSplit := WrapAggregate(base, "avg", true)
	if strings.Contains(Explain(noSplit), "local-avg") {
		t.Errorf("split applied despite being disabled:\n%s", Explain(noSplit))
	}
}

func TestBuildRejectsEmptyFLWOR(t *testing.T) {
	if _, err := Build(&aql.FLWORExpr{Return: &aql.Literal{}}); err == nil {
		t.Error("FLWOR without clauses should be rejected")
	}
}

func TestGroupOrderLimitPreserved(t *testing.T) {
	plan := compile(t, `
for $m in dataset MugshotMessages
group by $a := $m.author-id with $m
let $cnt := count($m)
order by $cnt desc
limit 3
return { "a": $a };`, Options{})
	explain := Explain(plan)
	for _, want := range []string{"group-by $a", "order", "limit"} {
		if !strings.Contains(explain, want) {
			t.Errorf("explain missing %q:\n%s", want, explain)
		}
	}
}

// TestNestDatasetsKeys pins when a dataset inside an expression is a keyed
// (hybrid hash) nest join and when it must stay keyless (nested loop): only
// a where equality between the for variable alone and the node's input,
// before anything that sees every row, narrows the list.
func TestNestDatasetsKeys(t *testing.T) {
	for _, c := range []struct {
		name, query, want string
	}{
		{"keyed", `for $u in dataset U return for $m in dataset M where $m.a = $u.id return $m`, "join (hybrid-hash-join) nest $#nest-0"},
		{"keyed either way round, after an inner-only conjunct", `for $u in dataset U return for $m in dataset M where $m.b > 1 and $u.id = $m.a return $m`, "join (hybrid-hash-join) nest $#nest-0"},
		{"non-equi", `for $u in dataset U return for $m in dataset M where $m.a < $u.id return $m`, "join (nested-loop-join) nest $#nest-0"},
		{"positional", `for $u in dataset U return for $m at $i in dataset M where $m.a = $u.id return $i`, "join (nested-loop-join) nest $#nest-0"},
		{"limit before the where", `for $u in dataset U return for $m in dataset M limit 1 where $m.a = $u.id return $m`, "join (nested-loop-join) nest $#nest-0"},
		{"group-by before the where", `for $u in dataset U return for $m in dataset M group by $g := $m.a with $m where $g = $u.id return $g`, "join (nested-loop-join) nest $#nest-0"},
		{"probe side rebound inside", `for $u in dataset U return for $m in dataset M let $u := 1 where $m.a = $u return $m`, "join (nested-loop-join) nest $#nest-0"},
		{"for variable rebound", `for $u in dataset U return for $m in dataset M let $m := $u where $m.a = $u.id return $m`, "join (nested-loop-join) nest $#nest-0"},
		{"build side reads more than the for variable", `for $u in dataset U return for $m in dataset M for $x in [1] where $m.a + $x = $u.id return $m`, "join (nested-loop-join) nest $#nest-0"},
		{"unbound probe variable", `for $u in dataset U return for $m in dataset M where $m.a = $v return $m`, "join (nested-loop-join) nest $#nest-0"},
		{"over an order by", `for $u in dataset U order by $u.id let $n := count(for $m in dataset M where $m.a = $u.id return $m) return $n`, "join (nested-loop-join) nest $#nest-0"},
	} {
		e, err := aql.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Build(e.(*aql.FLWORExpr))
		if err != nil {
			t.Fatal(err)
		}
		if plan, err = NestDatasets(plan); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if explain := Explain(plan); !strings.Contains(explain, c.want) {
			t.Errorf("%s: want %q in\n%s", c.name, c.want, explain)
		}
		if strings.Contains(plan.Query.Return.String(), "dataset ") {
			t.Errorf("%s: the return still reads a dataset: %s", c.name, plan.Query.Return)
		}
	}
}

// TestNestDatasetsSplitsSelects: a select keeps its dataset-free conjuncts
// below the nest join, where the access-path rule still finds them.
func TestNestDatasetsSplitsSelects(t *testing.T) {
	e, err := aql.ParseQuery(`for $m in dataset MugshotMessages
where $m.timestamp >= datetime("2014-01-01T00:00:00") and count(for $u in dataset MugshotUsers where $u.id = $m.author-id return $u) > 0
return $m`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(e.(*aql.FLWORExpr))
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = NestDatasets(plan); err != nil {
		t.Fatal(err)
	}
	want := `btree-search (secondary msTimestampIdx on MugshotMessages)
sort (primary keys)
btree-search (primary MugshotMessages)
select ($m.timestamp >= datetime("2014-01-01T00:00:00.000"))
datasource-scan MugshotUsers -> $#nest-0
join (hybrid-hash-join) nest $#nest-0
select (count(for $u in $#nest-0 where ($u.id = $m.author-id) return $u) > 0)
distribute-result`
	if got := Explain(Optimize(plan, tinySocial, Options{})); got != want {
		t.Errorf("plan:\n%s\nwant:\n%s", got, want)
	}
}

// TestJoinFiltering pins where each where-conjunct over a join runs: the key
// is found through each input's bound variables, a conjunct over one input
// is a select below the join (an access-path candidate when it lands on a
// scan), and a conjunct that spans both inputs, has no free variables or can
// raise an error stays above.
func TestJoinFiltering(t *testing.T) {
	for _, tc := range []struct {
		name, query, want string
	}{
		{"single-side conjuncts on both inputs", `for $u in dataset MugshotUsers for $m in dataset MugshotMessages
where $m.author-id = $u.id and $u.name = "x" and $m.author-id >= 10 and $m.author-id < 20 return $m;`, `
datasource-scan MugshotUsers -> $u
select ($u.name = "x")
datasource-scan MugshotMessages -> $m
select (($m.author-id >= 10) and ($m.author-id < 20))
join (hybrid-hash-join)
distribute-result`},
		{"a pushed range becomes an index path", `for $u in dataset MugshotUsers for $m in dataset MugshotMessages
where $m.author-id = $u.id and $m.timestamp >= datetime("2014-01-01T00:00:00") return $m;`, `
datasource-scan MugshotUsers -> $u
btree-search (secondary msTimestampIdx on MugshotMessages)
sort (primary keys)
btree-search (primary MugshotMessages)
select ($m.timestamp >= datetime("2014-01-01T00:00:00.000"))
join (hybrid-hash-join)
distribute-result`},
		{"a key through a let variable", `for $u in dataset MugshotUsers let $k := $u.id for $m in dataset MugshotMessages
where $m.author-id = $k return $m;`, `
datasource-scan MugshotUsers -> $u
assign $k
datasource-scan MugshotMessages -> $m
join (hybrid-hash-join)
distribute-result`},
		{"a key between the two inner inputs of a 3-way join", `for $a in dataset MugshotUsers for $b in dataset MugshotMessages for $c in dataset MugshotMessages
where $b.author-id = $a.id and $c.in-response-to = $b.message-id and $a.id > 3 and $c.message-id != $a.id return $c;`, `
datasource-scan MugshotUsers -> $a
select ($a.id > 3)
datasource-scan MugshotMessages -> $b
join (hybrid-hash-join)
datasource-scan MugshotMessages -> $c
join (hybrid-hash-join)
select ($c.message-id != $a.id)
distribute-result`},
		{"a conjunct that can raise stays above", `for $u in dataset MugshotUsers for $m in dataset MugshotMessages
where $m.author-id = $u.id and $m.x + 1 > 0 and string-length($u.name) > 2 return $m;`, `
datasource-scan MugshotUsers -> $u
datasource-scan MugshotMessages -> $m
join (hybrid-hash-join)
select ((($m.x + 1) > 0) and (string-length($u.name) > 2))
distribute-result`},
		{"constant and spanning non-equi conjuncts stay above", `for $u in dataset MugshotUsers for $m in dataset MugshotMessages
where 1 = 1 and $m.author-id < $u.id and not($m.author-id = 3) return $m;`, `
datasource-scan MugshotUsers -> $u
datasource-scan MugshotMessages -> $m
select not(($m.author-id = 3))
join (nested-loop-join)
select ((1 = 1) and ($m.author-id < $u.id))
distribute-result`},
		{"a rebound name is the right input's", `for $x in dataset MugshotUsers for $x in dataset MugshotMessages
where $x.author-id = 2 return $x;`, `
datasource-scan MugshotUsers -> $x
datasource-scan MugshotMessages -> $x
select ($x.author-id = 2)
join (nested-loop-join)
distribute-result`},
	} {
		if got, want := Explain(compile(t, tc.query, Options{})), strings.TrimSpace(tc.want); got != want {
			t.Errorf("%s: plan\n%s\nwant\n%s", tc.name, got, want)
		}
	}
}
