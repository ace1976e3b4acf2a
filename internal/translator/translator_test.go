package translator

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/expr/oracle"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/storage"
)

// testRuntime is a Runtime and Catalog over a real two-partition storage
// manager, so compiled jobs get partitioned scans and real shuffles. Its
// catalog lists the indexes createIndex built, by dataset.
type testRuntime struct {
	m       *storage.Manager
	ctx     *expr.Context
	indexes map[string][]*storage.Index
}

func (r *testRuntime) createIndex(t *testing.T, dataset string, spec storage.IndexSpec) {
	t.Helper()
	ds, _ := r.m.Dataset(dataset)
	x, err := ds.CreateIndex(spec)
	if err != nil {
		t.Fatal(err)
	}
	r.indexes[dataset] = append(r.indexes[dataset], x)
}

func (r *testRuntime) LookupIndex(_, dataset, index string) (*storage.Index, bool) {
	for _, x := range r.indexes[dataset] {
		if x.Spec().Name == index {
			return x, true
		}
	}
	return nil, false
}

func (r *testRuntime) EvalContext() *expr.Context { return r.ctx }

func (r *testRuntime) LookupDataset(_, name string) (*storage.Dataset, bool) {
	return r.m.Dataset(name)
}

func (r *testRuntime) ScanDataset(_, name string, _ func(*adm.Record) bool) error {
	return fmt.Errorf("no dataset %q", name)
}

func (r *testRuntime) Function(string) (*aql.CreateFunction, bool) { return nil, false }

func (r *testRuntime) DatasetInfo(_, name string) algebra.DatasetInfo {
	ds, ok := r.m.Dataset(name)
	if !ok {
		return algebra.DatasetInfo{}
	}
	info := algebra.DatasetInfo{PrimaryKey: ds.Spec().PrimaryKey}
	for _, x := range r.indexes[name] {
		ix := x.Spec()
		info.Indexes = append(info.Indexes, algebra.IndexInfo{Name: ix.Name, Kind: algebra.IndexKind(ix.Kind), Field: ix.Fields[0]})
	}
	return info
}

// newTestRuntime stores Users(id, name) 1..4 and Msgs(mid, uid, len): message
// i belongs to user i%3 and is i*10 long; uid 0 is stored as null, so those
// messages have no join partner and an unknown key.
func newTestRuntime(t *testing.T) *testRuntime {
	t.Helper()
	m, err := storage.NewManager(t.TempDir(), storage.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	int32T, open := adm.Prim(adm.TagInt32), true
	users, err := m.CreateDataset(storage.DatasetSpec{Name: "Users", PrimaryKey: []string{"id"},
		Type: &adm.RecordType{Name: "UserType", Open: open, Fields: []adm.FieldType{{Name: "id", Type: int32T}}}})
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := m.CreateDataset(storage.DatasetSpec{Name: "Msgs", PrimaryKey: []string{"mid"},
		Type: &adm.RecordType{Name: "MsgType", Open: open, Fields: []adm.FieldType{{Name: "mid", Type: int32T}}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		rec := adm.NewRecord(adm.Field{Name: "id", Value: adm.Int32(int32(i))},
			adm.Field{Name: "name", Value: adm.String(fmt.Sprintf("u%d", i))})
		if err := users.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 9; i++ {
		var uid adm.Value = adm.Null{}
		if i%3 != 0 {
			uid = adm.Int32(int32(i % 3))
		}
		rec := adm.NewRecord(adm.Field{Name: "mid", Value: adm.Int32(int32(i))},
			adm.Field{Name: "uid", Value: uid}, adm.Field{Name: "len", Value: adm.Int32(int32(i * 10))})
		if err := msgs.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	return &testRuntime{m: m, ctx: expr.NewContext(), indexes: map[string][]*storage.Index{}}
}

// compile builds the unfused job, so every operator is inspectable.
func compile(t *testing.T, rt *testRuntime, src string) (*algebra.Plan, *hyracks.Job) {
	t.Helper()
	e, err := aql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(e, rt, algebra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := BuildJob(plan, rt, JobOptions{Partitions: 2, DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	return plan, job
}

func describe(plan *algebra.Plan, job *hyracks.Job) string {
	return algebra.Explain(plan) + "\n--\n" + job.Describe()
}

// results runs the job and returns its values, sorted.
func results(t *testing.T, job *hyracks.Job) string {
	t.Helper()
	tuples, err := hyracks.Execute(job)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(tuples))
	for i, tu := range tuples {
		out[i] = tu[0].String()
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// opNamed returns the job's operator with the given label and its index.
func opNamed(t *testing.T, job *hyracks.Job, label string) (hyracks.Operator, int) {
	t.Helper()
	for i, op := range job.Operators {
		if op.Name() == label {
			return op, i
		}
	}
	t.Fatalf("no operator %q in\n%s", label, job.Describe())
	return nil, 0
}

// edgeFrom returns the edge leaving operator from.
func edgeFrom(t *testing.T, job *hyracks.Job, from int) hyracks.Edge {
	t.Helper()
	for _, e := range job.Edges {
		if e.From == from {
			return e
		}
	}
	t.Fatalf("operator %d has no consumer", from)
	return hyracks.Edge{}
}

// apply runs a pipelined operator's function on one tuple.
func apply(t *testing.T, op hyracks.Operator, in hyracks.Tuple) []hyracks.Tuple {
	t.Helper()
	var out []hyracks.Tuple
	err := op.(*hyracks.FlatMapOp).Fn(0, in, func(tu hyracks.Tuple) bool {
		out = append(out, tu)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func msg(mid int, uid adm.Value, length int) *adm.Record {
	return adm.NewRecord(adm.Field{Name: "mid", Value: adm.Int32(int32(mid))},
		adm.Field{Name: "uid", Value: uid}, adm.Field{Name: "len", Value: adm.Int32(int32(length))})
}

func wantInts(t *testing.T, what string, got, want []int) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// TestJoinKeysLandInHashedColumns: both sides of a hybrid hash join get their
// key as the trailing column the partitioning connector hashes on, and a
// tuple with an unknown key is dropped before the shuffle.
func TestJoinKeysLandInHashedColumns(t *testing.T) {
	rt := newTestRuntime(t)
	plan, job := compile(t, rt, `for $u in dataset Users for $m in dataset Msgs where $u.id = $m.uid return { "u": $u.name, "m": $m.mid }`)
	want := `datasource-scan Users -> $u
datasource-scan Msgs -> $m
join (hybrid-hash-join)
distribute-result
--
datasource-scan(Users)  --OneToOneConnector-->  assign(probe-key)
datasource-scan(Msgs)  --OneToOneConnector-->  assign(build-key)
assign(probe-key)  --MToNPartitioningConnector-->  join(hybrid-hash-join)
assign(build-key)  --MToNPartitioningConnector-->  join(hybrid-hash-join)
join(hybrid-hash-join)  --OneToOneConnector-->  distribute-result
distribute-result
`
	if got := describe(plan, job); got != want {
		t.Errorf("plan and job:\n%s\nwant:\n%s", got, want)
	}
	build, idx := opNamed(t, job, "assign(build-key)")
	edge := edgeFrom(t, job, idx)
	wantInts(t, "build side hash columns", edge.Connector.HashColumns, []int{1})
	if edge.Port != 1 {
		t.Errorf("build side feeds port %d, want 1", edge.Port)
	}
	out := apply(t, build, hyracks.Tuple{msg(7, adm.Int32(2), 70)})
	if len(out) != 1 || len(out[0]) != 2 || out[0][1].String() != adm.Int32(2).String() {
		t.Errorf("build key assign produced %v", out)
	}
	for _, unknown := range []adm.Value{adm.Null{}, adm.Missing{}} {
		if out := apply(t, build, hyracks.Tuple{msg(7, unknown, 70)}); len(out) != 0 {
			t.Errorf("%s key was not dropped: %v", unknown, out)
		}
	}
	_, idx = opNamed(t, job, "assign(probe-key)")
	wantInts(t, "probe side hash columns", edgeFrom(t, job, idx).Connector.HashColumns, []int{1})
	if got, want := results(t, job), `{ "u": "u1", "m": 1 } { "u": "u1", "m": 4 } { "u": "u1", "m": 7 } { "u": "u2", "m": 2 } { "u": "u2", "m": 5 } { "u": "u2", "m": 8 }`; got != want {
		t.Errorf("results %s\nwant    %s", got, want)
	}
}

// TestIndexProbeChainFedByOuter: an honoured indexnl hint compiles to the
// Figure 6 chain with the outer side replicated into it. The outer columns
// survive the search, the sort and the fetch; the PK sort sorts on the key
// column, wherever the outer columns put it; an unknown outer key joins
// nothing; and the results are the hash join's.
func TestIndexProbeChainFedByOuter(t *testing.T) {
	rt := newTestRuntime(t)
	rt.createIndex(t, "Msgs", storage.IndexSpec{Name: "msgUid", Fields: []string{"uid"}, Kind: storage.BTreeIndex})
	const joined = `{ "u": "u1", "m": 1 } { "u": "u1", "m": 4 } { "u": "u1", "m": 7 } { "u": "u2", "m": 2 } { "u": "u2", "m": 5 } { "u": "u2", "m": 8 }`

	// The inner side has a secondary B+-tree index on the join field.
	plan, job := compile(t, rt, `for $u in dataset Users let $n := $u.name for $m in dataset Msgs where $u.id /*+ indexnl */ = $m.uid return { "u": $n, "m": $m.mid }`)
	want := `datasource-scan Users -> $u
assign $n
btree-search (secondary msgUid on Msgs)
sort (primary keys)
btree-search (primary Msgs)
select ($u.id /*+ indexnl */ = $m.uid)
distribute-result
--
datasource-scan(Users)  --OneToOneConnector-->  assign
assign  --MToNReplicatingConnector-->  btree-search(msgUid)
btree-search(msgUid)  --OneToOneConnector-->  sort(primary-keys)
sort(primary-keys)  --OneToOneConnector-->  btree-search(Msgs)
btree-search(Msgs)  --OneToOneConnector-->  select
select  --OneToOneConnector-->  distribute-result
distribute-result
`
	if got := describe(plan, job); got != want {
		t.Errorf("plan and job:\n%s\nwant:\n%s", got, want)
	}
	user2 := adm.NewRecord(adm.Field{Name: "id", Value: adm.Int32(2)}, adm.Field{Name: "name", Value: adm.String("u2")})
	search, _ := opNamed(t, job, "btree-search(msgUid)")
	fetch, _ := opNamed(t, job, "btree-search(Msgs)")
	if par := search.Parallelism(); par != 2 {
		t.Errorf("search runs at parallelism %d, want one instance per partition", par)
	}
	srt, _ := opNamed(t, job, "sort(primary-keys)")
	wantInts(t, "PK sort columns", srt.(*hyracks.SortOp).Columns, []int{2})
	var mids []string
	for p := 0; p < 2; p++ { // each instance probes its own partition
		fn := func(op hyracks.Operator, in hyracks.Tuple) (out []hyracks.Tuple) {
			if err := op.(*hyracks.FlatMapOp).Fn(p, in, func(tu hyracks.Tuple) bool { out = append(out, tu); return true }); err != nil {
				t.Fatal(err)
			}
			return out
		}
		for _, found := range fn(search, hyracks.Tuple{user2, adm.String("u2")}) {
			if len(found) != 3 || found[0] != adm.Value(user2) || found[1].String() != `"u2"` || found[2].Tag() != adm.TagBinary {
				t.Fatalf("search emitted %v, want the outer columns and an encoded key", found)
			}
			for _, rec := range fn(fetch, found) {
				if len(rec) != 3 || rec[0] != adm.Value(user2) || rec[1].String() != `"u2"` {
					t.Fatalf("primary search emitted %v, want the outer columns and the record", rec)
				}
				mids = append(mids, field(rec[2], "mid"))
			}
		}
	}
	sort.Strings(mids)
	if got := strings.Join(mids, " "); got != "2 5 8" {
		t.Errorf("user 2 probes found messages %s, want 2 5 8", got)
	}
	if got := results(t, job); got != joined {
		t.Errorf("results %s\nwant    %s", got, joined)
	}

	// The inner side's primary key is the join field: messages 3, 6 and 9
	// have a null uid and join nothing.
	plan, job = compile(t, rt, `for $m in dataset Msgs for $u in dataset Users where $m.uid /*+ indexnl */ = $u.id return { "u": $u.name, "m": $m.mid }`)
	want = `datasource-scan Msgs -> $m
btree-search (primary Users)
distribute-result
--
datasource-scan(Msgs)  --OneToOneConnector-->  assign(probe-key)
assign(probe-key)  --MToNPartitioningConnector-->  btree-search(Users)
btree-search(Users)  --OneToOneConnector-->  distribute-result
distribute-result
`
	if got := describe(plan, job); got != want {
		t.Errorf("plan and job:\n%s\nwant:\n%s", got, want)
	}
	// The outer tuple is routed on its evaluated key to the one partition
	// that owns it, and an unknown key is dropped before the connector.
	key, idx := opNamed(t, job, "assign(probe-key)")
	wantInts(t, "probe routing hash columns", edgeFrom(t, job, idx).Connector.HashColumns, []int{1})
	for _, unknown := range []adm.Value{adm.Null{}, adm.Missing{}} {
		if out := apply(t, key, hyracks.Tuple{msg(3, unknown, 30)}); len(out) != 0 {
			t.Errorf("%s key reached the probe: %v", unknown, out)
		}
	}
	probe, _ := opNamed(t, job, "btree-search(Users)")
	owners := 0
	for p := 0; p < 2; p++ {
		m5 := msg(5, adm.Int32(2), 50)
		err := probe.(*hyracks.FlatMapOp).Fn(p, hyracks.Tuple{m5, adm.Int32(2)}, func(tu hyracks.Tuple) bool {
			if len(tu) != 2 || tu[0] != adm.Value(m5) || field(tu[1], "name") != `"u2"` {
				t.Errorf("primary probe emitted %v, want the outer column and user 2", tu)
			}
			owners++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if owners != 1 {
		t.Errorf("user 2 found in %d partitions, want exactly its owner", owners)
	}
	if got := results(t, job); got != joined {
		t.Errorf("results %s\nwant    %s", got, joined)
	}
}

// TestGroupKeysLandInShuffledColumns: the evaluated grouping keys are the
// trailing columns the shuffle hashes on and the group-by groups on.
func TestGroupKeysLandInShuffledColumns(t *testing.T) {
	rt := newTestRuntime(t)
	plan, job := compile(t, rt, `for $m in dataset Msgs group by $u := $m.uid, $odd := $m.mid % 2 with $m return { "u": $u, "odd": $odd, "n": count($m) }`)
	want := `datasource-scan Msgs -> $m
group-by $u, $odd
distribute-result
--
datasource-scan(Msgs)  --OneToOneConnector-->  assign(group-keys)
assign(group-keys)  --MToNPartitioningConnector-->  hash-group-by
hash-group-by  --OneToOneConnector-->  distribute-result
distribute-result
`
	if got := describe(plan, job); got != want {
		t.Errorf("plan and job:\n%s\nwant:\n%s", got, want)
	}
	keys, idx := opNamed(t, job, "assign(group-keys)")
	wantInts(t, "shuffle hash columns", edgeFrom(t, job, idx).Connector.HashColumns, []int{1, 2})
	group, _ := opNamed(t, job, "hash-group-by")
	wantInts(t, "group key columns", group.(*hyracks.HashGroupOp).KeyColumns, []int{1, 2})
	out := apply(t, keys, hyracks.Tuple{msg(7, adm.Null{}, 70)})
	if len(out) != 1 || len(out[0]) != 3 || out[0][1].String() != "null" || out[0][2].String() != adm.Int64(1).String() {
		t.Errorf("group key assign produced %v (an unknown grouping key is a group, not a dropped tuple)", out)
	}
	if got, want := results(t, job), `{ "u": 1, "odd": 0i64, "n": 1i64 } { "u": 1, "odd": 1i64, "n": 2i64 } { "u": 2, "odd": 0i64, "n": 2i64 } { "u": 2, "odd": 1i64, "n": 1i64 } { "u": null, "odd": 0i64, "n": 1i64 } { "u": null, "odd": 1i64, "n": 2i64 }`; got != want {
		t.Errorf("results %s\nwant    %s", got, want)
	}
}

// TestOrderKeysLandInSortedColumns: computed order terms are evaluated into
// trailing columns the sort compares; bare variables sort in place.
func TestOrderKeysLandInSortedColumns(t *testing.T) {
	rt := newTestRuntime(t)
	plan, job := compile(t, rt, `for $m in dataset Msgs order by $m.len % 20 desc, $m.mid return $m.mid`)
	want := `datasource-scan Msgs -> $m
order
distribute-result
--
datasource-scan(Msgs)  --OneToOneConnector-->  assign(order-keys)
assign(order-keys)  --MToNPartitioningMergingConnector-->  sort
sort  --OneToOneConnector-->  distribute-result
distribute-result
`
	if got := describe(plan, job); got != want {
		t.Errorf("plan and job:\n%s\nwant:\n%s", got, want)
	}
	srt, _ := opNamed(t, job, "sort")
	wantInts(t, "sort columns", srt.(*hyracks.SortOp).Columns, []int{1, 2})
	if desc := srt.(*hyracks.SortOp).Desc; fmt.Sprint(desc) != "[true false]" {
		t.Errorf("sort directions %v", desc)
	}
	keys, _ := opNamed(t, job, "assign(order-keys)")
	out := apply(t, keys, hyracks.Tuple{msg(7, adm.Null{}, 70)})
	if len(out) != 1 || len(out[0]) != 3 || out[0][1].String() != adm.Int64(10).String() || out[0][2].String() != adm.Int32(7).String() {
		t.Errorf("order key assign produced %v", out)
	}
	tuples, err := hyracks.Execute(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(tuples); got != "[[1] [3] [5] [7] [9] [2] [4] [6] [8]]" {
		t.Errorf("sorted mids %s", got)
	}

	plan, job = compile(t, rt, `for $m in dataset Msgs let $k := $m.len order by $k desc return $k`)
	want = `datasource-scan Msgs -> $m
assign $k
order
distribute-result
--
datasource-scan(Msgs)  --OneToOneConnector-->  assign
assign  --MToNPartitioningMergingConnector-->  sort
sort  --OneToOneConnector-->  distribute-result
distribute-result
`
	if got := describe(plan, job); got != want {
		t.Errorf("plan and job:\n%s\nwant:\n%s", got, want)
	}
	srt, _ = opNamed(t, job, "sort")
	wantInts(t, "bare-variable sort columns", srt.(*hyracks.SortOp).Columns, []int{1})
}

// TestLimitBoundsTheSortBelowIt: a constant limit directly above an order
// builds the one sort with Limit = offset + limit, labelled with it; the
// limit above still skips the offset. No limit, limit 0 and a bound past
// 2^31-1 leave the sort unbounded.
func TestLimitBoundsTheSortBelowIt(t *testing.T) {
	rt := newTestRuntime(t)
	const order = `for $m in dataset Msgs order by $m.len % 20 desc, $m.mid `
	for _, c := range []struct {
		name, query string
		limit       int
		results     string
	}{
		{"limit", order + `limit 10 return $m.mid`, 10, "[[1] [3] [5] [7] [9] [2] [4] [6] [8]]"},
		{"limit and offset", order + `limit 3 offset 2 return $m.mid`, 5, "[[5] [7] [9]]"},
		{"no limit", order + `return $m.mid`, 0, "[[1] [3] [5] [7] [9] [2] [4] [6] [8]]"},
		{"group-by, order, limit", `for $m in dataset Msgs group by $odd := $m.mid % 2 with $m order by count($m) desc, $odd limit 2 return $odd`, 2, "[[1i64] [0i64]]"},
		{"limit 0", order + `limit 0 return $m.mid`, 0, "[]"},
		{"bound past 2^31-1", order + `limit 2147483647 offset 1 return $m.mid`, 0, "[[3] [5] [7] [9] [2] [4] [6] [8]]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, job := compile(t, rt, c.query)
			var sorts []*hyracks.SortOp
			for _, op := range job.Operators {
				if s, ok := op.(*hyracks.SortOp); ok {
					sorts = append(sorts, s)
				}
			}
			if len(sorts) != 1 || sorts[0].Limit != c.limit || sorts[0].Partitions != 1 {
				t.Fatalf("sorts %+v, want one instance with Limit %d in\n%s", sorts, c.limit, job.Describe())
			}
			tuples, err := hyracks.Execute(job)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(tuples); got != c.results {
				t.Errorf("results %s, want %s", got, c.results)
			}
		})
	}

	plan, job := compile(t, rt, order+`limit 3 offset 2 return $m.mid`)
	want := `datasource-scan Msgs -> $m
order
limit
distribute-result
--
datasource-scan(Msgs)  --OneToOneConnector-->  assign(order-keys)
assign(order-keys)  --MToNPartitioningMergingConnector-->  sort (limit 5)
sort (limit 5)  --OneToOneConnector-->  limit
limit  --OneToOneConnector-->  distribute-result
distribute-result
`
	if got := describe(plan, job); got != want {
		t.Errorf("plan and job:\n%s\nwant:\n%s", got, want)
	}
}

// TestGroupFoldSelection: a group-by folds one accumulator per aggregate
// call over a with-variable above it, and adds the variable's listify when
// any other free reference to it remains (or when an operator above rebinds
// its name, which stops the analysis). Either way the values are the
// interpreter's.
func TestGroupFoldSelection(t *testing.T) {
	rt := newTestRuntime(t)
	const head = `for $m in dataset Msgs group by $u := $m.uid with $m `
	cases := []struct {
		name, tail string
		aggs       string
		results    string
	}{
		{"aggregate calls only", `return { "u": $u, "n": count($m) }`, "count",
			`{ "u": 1, "n": 3i64 } { "u": 2, "n": 3i64 } { "u": null, "n": 3i64 }`},
		{"aggregates in where, order by and return", `where count($m) > 2 order by count($m), $u return sql-count($m)`, "count sql-count",
			`3i64 3i64 3i64`},
		{"the bag itself is returned", `return { "n": count($m), "all": $m }`, "count listify", ""},
		{"the bag is iterated", `return count(for $x in $m return $x.len)`, "listify", `3i64 3i64 3i64`},
		{"an aggregate of something else", `return count([$m])`, "listify", `1i64 1i64 1i64`},
		{"a nested for shadows the with-variable", `return { "n": count($m), "s": (for $m in [1, 2] return $m) }`, "count",
			`{ "n": 3i64, "s": [ 1, 2 ] } { "n": 3i64, "s": [ 1, 2 ] } { "n": 3i64, "s": [ 1, 2 ] }`},
		{"a quantifier shadows it in its predicate only", `return some $m in $m satisfies $m.len > 80`, "listify",
			`false false true`},
		{"a nested group-by collects it with with", `return { "n": count($m), "g": (for $x in [1] group by $k := $x with $m return count($m)) }`, "count listify",
			`{ "n": 3i64, "g": [ 1i64 ] } { "n": 3i64, "g": [ 1i64 ] } { "n": 3i64, "g": [ 1i64 ] }`},
		{"an assign above the group-by rebinds the name", `let $m := 1 return count($m)`, "listify", `1i64 1i64 1i64`},
		{"the bag holds the group's items", `return { "u": $u, "mids": (for $x in $m order by $x.mid return $x.mid), "n": count($m) }`, "count listify",
			`{ "u": 1, "mids": [ 1, 4, 7 ], "n": 3i64 } { "u": 2, "mids": [ 2, 5, 8 ], "n": 3i64 } { "u": null, "mids": [ 3, 6, 9 ], "n": 3i64 }`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, job := compile(t, rt, head+c.tail)
			group, _ := opNamed(t, job, "hash-group-by")
			var fns []string
			for _, ag := range group.(*hyracks.HashGroupOp).Aggs {
				fns = append(fns, ag.Func)
			}
			if got := strings.Join(fns, " "); got != c.aggs {
				t.Errorf("group-by folds %q, want %q", got, c.aggs)
			}
			if got := results(t, job); c.results != "" && got != c.results {
				t.Errorf("results %s\nwant    %s", got, c.results)
			}
		})
	}
}

// TestNestJoinKeepsEveryProbeTuple: a dataset inside the return expression
// is a nest join below distribute-result, keyed on the nested where's
// equality. Both scans are in the plan and the job; every outer tuple leaves
// once, with its matches — none for a user without messages, and none for a
// message whose unknown key the probe side keeps.
func TestNestJoinKeepsEveryProbeTuple(t *testing.T) {
	rt := newTestRuntime(t)
	plan, job := compile(t, rt, `for $u in dataset Users return { "u": $u.name, "ms": for $m in dataset Msgs where $m.uid = $u.id order by $m.mid return $m.mid }`)
	want := `datasource-scan Users -> $u
datasource-scan Msgs -> $#nest-0
join (hybrid-hash-join) nest $#nest-0
distribute-result
--
datasource-scan(Users)  --OneToOneConnector-->  assign(probe-key)
datasource-scan(Msgs)  --OneToOneConnector-->  assign(build-key)
assign(probe-key)  --MToNPartitioningConnector-->  nest-join(hybrid-hash-join)
assign(build-key)  --MToNPartitioningConnector-->  nest-join(hybrid-hash-join)
nest-join(hybrid-hash-join)  --OneToOneConnector-->  distribute-result
distribute-result
`
	if got := describe(plan, job); got != want {
		t.Errorf("plan and job:\n%s\nwant:\n%s", got, want)
	}
	if got, want := results(t, job), `{ "u": "u1", "ms": [ 1, 4, 7 ] } { "u": "u2", "ms": [ 2, 5, 8 ] } { "u": "u3", "ms": [  ] } { "u": "u4", "ms": [  ] }`; got != want {
		t.Errorf("results %s\nwant    %s", got, want)
	}
	_, job = compile(t, rt, `for $m in dataset Msgs return { "m": $m.mid, "u": for $u in dataset Users where $u.id = $m.uid return $u.name }`)
	if got, want := results(t, job), `{ "m": 1, "u": [ "u1" ] } { "m": 2, "u": [ "u2" ] } { "m": 3, "u": [  ] } { "m": 4, "u": [ "u1" ] } { "m": 5, "u": [ "u2" ] } { "m": 6, "u": [  ] } { "m": 7, "u": [ "u1" ] } { "m": 8, "u": [ "u2" ] } { "m": 9, "u": [  ] }`; got != want {
		t.Errorf("results %s\nwant    %s", got, want)
	}
}

// TestNestJoinWithoutKeyBroadcasts: a nested FLWOR with no equality to key
// on, and a dataset in a constant query, join the whole dataset through the
// broadcast nested-loop nest join.
func TestNestJoinWithoutKeyBroadcasts(t *testing.T) {
	rt := newTestRuntime(t)
	plan, job := compile(t, rt, `for $u in dataset Users return { "u": $u.id, "n": count(for $m in dataset Msgs where $m.len > $u.id * 20 return $m) }`)
	want := `datasource-scan Users -> $u
datasource-scan Msgs -> $#nest-0
join (nested-loop-join) nest $#nest-0
distribute-result
--
datasource-scan(Users)  --OneToOneConnector-->  nest-join(nested-loop-join)
datasource-scan(Msgs)  --MToNReplicatingConnector-->  nest-join(nested-loop-join)
nest-join(nested-loop-join)  --OneToOneConnector-->  distribute-result
distribute-result
`
	if got := describe(plan, job); got != want {
		t.Errorf("plan and job:\n%s\nwant:\n%s", got, want)
	}
	if got, want := results(t, job), `{ "u": 1, "n": 7i64 } { "u": 2, "n": 5i64 } { "u": 3, "n": 3i64 } { "u": 4, "n": 1i64 }`; got != want {
		t.Errorf("results %s\nwant    %s", got, want)
	}
	plan, job = compile(t, rt, `{ "n": count(for $u in dataset Users return $u) }`)
	want = `datasource-scan Users -> $#nest-0
join (nested-loop-join) nest $#nest-0
distribute-result
--
empty-tuple-source  --OneToOneConnector-->  nest-join(nested-loop-join)
datasource-scan(Users)  --MToNReplicatingConnector-->  nest-join(nested-loop-join)
nest-join(nested-loop-join)  --OneToOneConnector-->  distribute-result
distribute-result
`
	if got := describe(plan, job); got != want {
		t.Errorf("plan and job:\n%s\nwant:\n%s", got, want)
	}
	if got, want := results(t, job), `{ "n": 4i64 }`; got != want {
		t.Errorf("results %s\nwant    %s", got, want)
	}
}

// TestNestDatasetsRefusesLimitReads: limit and offset are folded before any
// tuple exists, so a dataset there has no job to read it.
func TestNestDatasetsRefusesLimitReads(t *testing.T) {
	rt := newTestRuntime(t)
	for _, q := range []string{
		`for $u in dataset Users limit count(for $m in dataset Msgs return $m) return $u`,
		`for $u in dataset Users return (for $x in [1, 2] limit 1 offset count(dataset Msgs) return $x)`,
	} {
		e, err := aql.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(e, rt, algebra.Options{}); err == nil || !strings.Contains(err.Error(), "dataset Msgs") {
			t.Errorf("%s: Compile error = %v, want one naming dataset Msgs", q, err)
		}
	}
}

// TestInlineMatchesCallTime: a query compiled after inline gives the
// oracle's value, or its error text, where the oracle binds each user
// function's parameters at call time: parameters over fields, a function
// calling another, a call nested in its own argument, a caller variable
// named like a parameter or passed to the other one, a body that rebinds its
// parameter, nested FLWORs
// with group by, at, order by and limit, a quantifier, and a function a
// builtin of its name shadows. A call with the wrong arity and a cycle are
// errors of inline itself.
func TestInlineMatchesCallTime(t *testing.T) {
	fns := funcs{}
	ctx := &oracle.Context{Context: expr.NewContext(), Functions: fns}
	for name, def := range map[string]string{
		"incr($x)":     `$x + 1`,
		"twice($x)":    `incr(incr($x))`,
		"pick($r, $f)": `if ($f) then $r.a else $r.b`,
		"shadow($x)":   `for $x in [$x, $x + 1] let $y := $x * 2 return $y`,
		"grp($l)":      `for $t at $i in $l group by $k := $t % 2 with $i order by $k return { "k": $k, "n": count($i), "i": $i }`,
		"top($l, $n)":  `for $t in $l order by $t desc limit 2 offset 1 return $t + $n`,
		"pair()":       `[1, 2]`,
		"has($l, $v)":  `some $t in $l satisfies $t = $v`,
		"sub($a, $b)":  `$a - $b`,
		"selfish($a)":  `selfish2($a)`,
		"selfish2($a)": `selfish($a)`,
		"len($l)":      `99`, // shadowed by the builtin
	} {
		call, err := aql.ParseQuery(name)
		if err != nil {
			t.Fatal(err)
		}
		body, err := aql.ParseQuery(def)
		if err != nil {
			t.Fatal(err)
		}
		var params []string
		for _, a := range call.(*aql.CallExpr).Args {
			params = append(params, a.(*aql.VariableRef).Name)
		}
		name := call.(*aql.CallExpr).Func
		fns[name] = &aql.CreateFunction{Name: name, Params: params, Body: body}
	}
	slots := []string{"x", "l", "r"}
	row := []adm.Value{
		adm.Int64(3),
		&adm.OrderedList{Items: []adm.Value{adm.Int64(4), adm.Int64(1), adm.Int64(3), adm.Int64(2)}},
		adm.NewRecord(adm.Field{Name: "a", Value: adm.Int32(1)}, adm.Field{Name: "b", Value: adm.String("b")}),
	}
	env := oracle.Env{"x": row[0], "l": row[1], "r": row[2]}
	for _, src := range []string{
		`incr($x)`,
		`twice($x) + incr(1)`,
		`incr(incr($x))`,
		`for $x in [1, 2] return incr($x)`,
		`for $y in [1, 2] let $x := $y * 10 return twice($x)`,
		`shadow($x)`,
		`[pick($r, true), pick($r, $x = 4), pick($l, false)]`,
		`[grp($l), grp([1, 2, 3, 4, 5])]`,
		`top($l, $x)`,
		`[pair(), count(pair()), pair()[1]]`,
		`has($l, 2) and has(pair(), $x)`,
		`for $a in [10] let $b := 3 return [sub($b, $a), sub($a, $b)]`,
		`incr("a")`,
		`len($l)`,
	} {
		e, err := aql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := oracle.Eval(ctx, env, e)
		inlined, err := inline(e, fns, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got, gotErr := expr.Compile(ctx.Context, inlined, slots)(row)
		switch {
		case wantErr != nil || gotErr != nil:
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Errorf("%s\noracle error: %v\ninlined %s error: %v", src, wantErr, inlined, gotErr)
			}
		case got.String() != want.String():
			t.Errorf("%s\noracle: %s\ninlined %s: %s", src, want, inlined, got)
		}
	}
	for src, msg := range map[string]string{
		`incr(1, 2)`:             "function incr expects 1 arguments, got 2",
		`selfish(1)`:             "recursive function call selfish -> selfish2 -> selfish",
		`[1, incr(selfish2(0))]`: "recursive function call selfish2 -> selfish -> selfish2",
	} {
		e, err := aql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inline(e, fns, nil); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("inline(%s) = %v, want an error containing %q", src, err, msg)
		}
	}
}

// field is the text of a record's field.
func field(v adm.Value, name string) string {
	rec, _ := adm.AsRecord(v)
	return rec.Get(name).String()
}

// funcs is a Catalog of user functions and no datasets.
type funcs map[string]*aql.CreateFunction

func (funcs) DatasetInfo(_, _ string) algebra.DatasetInfo { return algebra.DatasetInfo{} }

func (f funcs) Function(name string) (*aql.CreateFunction, bool) {
	fn, ok := f[name]
	return fn, ok
}
