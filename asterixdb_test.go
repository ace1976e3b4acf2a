package asterixdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/temporal"
)

// tinySocialDDL is Data definition 1 + 2 from the paper.
const tinySocialDDL = `
drop dataverse TinySocial if exists;
create dataverse TinySocial;
use dataverse TinySocial;

create type EmploymentType as open {
  organization-name: string,
  start-date: date,
  end-date: date?
}

create type MugshotUserType as {
  id: int32,
  alias: string,
  name: string,
  user-since: datetime,
  address: {
    street: string,
    city: string,
    state: string,
    zip: string,
    country: string
  },
  friend-ids: {{ int32 }},
  employment: [EmploymentType]
}

create type MugshotMessageType as closed {
  message-id: int32,
  author-id: int32,
  timestamp: datetime,
  in-response-to: int32?,
  sender-location: point?,
  tags: {{ string }},
  message: string
}
` + tinySocialDatasets

// tinySocialKeyOnlyDDL declares the same datasets and indexes over open types
// that declare only the primary key: the paper's "Asterix (KeyOnly)"
// configuration.
const tinySocialKeyOnlyDDL = `
drop dataverse TinySocial if exists;
create dataverse TinySocial;
use dataverse TinySocial;
create type MugshotUserType as open { id: int32 }
create type MugshotMessageType as open { message-id: int32 }
` + tinySocialDatasets

const tinySocialDatasets = `
create dataset MugshotUsers(MugshotUserType) primary key id;
create dataset MugshotMessages(MugshotMessageType) primary key message-id;

create index msUserSinceIdx on MugshotUsers(user-since);
create index msTimestampIdx on MugshotMessages(timestamp);
create index msAuthorIdx on MugshotMessages(author-id) type btree;
create index msSenderLocIndex on MugshotMessages(sender-location) type rtree;
create index msMessageIdx on MugshotMessages(message) type keyword;
create index msMessageNGramIdx on MugshotMessages(message) type ngram(3);
`

func newTinySocial(t testing.TB) *Instance {
	t.Helper()
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	inst.EvalContext().Clock = temporal.FixedClock{T: time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)}
	if _, err := inst.Execute(tinySocialDDL); err != nil {
		t.Fatalf("DDL: %v", err)
	}
	loadTinySocial(t, inst)
	return inst
}

func loadTinySocial(t testing.TB, inst *Instance) {
	t.Helper()
	users := []string{
		`{ "id": 1, "alias": "Margarita", "name": "MargaritaStoddard",
		   "address": { "street": "234 Thomas Ave", "city": "San Hugo", "zip": "98765", "state": "CA", "country": "USA" },
		   "user-since": datetime("2012-08-20T10:10:00"),
		   "friend-ids": {{ 2, 3, 6, 10 }},
		   "employment": [ { "organization-name": "Codetechno", "start-date": date("2006-08-06") } ] }`,
		`{ "id": 2, "alias": "Isbel", "name": "IsbelDull",
		   "address": { "street": "345 Forest St", "city": "Portland", "zip": "98765", "state": "OR", "country": "USA" },
		   "user-since": datetime("2011-01-22T10:10:00"),
		   "friend-ids": {{ 1, 4 }},
		   "employment": [ { "organization-name": "Hexviafind", "start-date": date("2010-04-27"), "end-date": date("2014-01-01") } ] }`,
		`{ "id": 3, "alias": "Emory", "name": "EmoryUnk",
		   "address": { "street": "456 Hill St", "city": "Portland", "zip": "98765", "state": "OR", "country": "USA" },
		   "user-since": datetime("2012-07-10T10:10:00"),
		   "friend-ids": {{ 1, 5, 8, 9 }},
		   "employment": [ { "organization-name": "geomedia", "start-date": date("2010-06-17"), "end-date": date("2010-01-26"), "job-kind": "part-time" } ] }`,
		`{ "id": 4, "alias": "Nicholas", "name": "NicholasStroh",
		   "address": { "street": "99 Third St", "city": "Irvine", "zip": "92617", "state": "CA", "country": "USA" },
		   "user-since": datetime("2010-12-27T10:10:00"),
		   "friend-ids": {{ 2 }},
		   "employment": [ { "organization-name": "Zamcorporation", "start-date": date("2010-06-08") } ] }`,
	}
	for _, u := range users {
		if _, err := inst.Execute(`insert into dataset MugshotUsers (` + u + `);`); err != nil {
			t.Fatalf("insert user: %v", err)
		}
	}
	messages := []string{
		`{ "message-id": 1, "author-id": 1, "timestamp": datetime("2014-02-20T08:00:00"),
		   "in-response-to": null, "sender-location": point("41.66,80.87"),
		   "tags": {{ "big-data", "systems" }}, "message": " love big data systems tonight" }`,
		`{ "message-id": 2, "author-id": 1, "timestamp": datetime("2014-02-20T09:00:00"),
		   "in-response-to": 1, "sender-location": point("41.66,80.89"),
		   "tags": {{ "big-data" }}, "message": " big data is the future" }`,
		`{ "message-id": 3, "author-id": 2, "timestamp": datetime("2014-02-20T18:30:00"),
		   "in-response-to": null, "sender-location": point("37.73,97.04"),
		   "tags": {{ "databases" }}, "message": " going out tonite " }`,
		`{ "message-id": 4, "author-id": 3, "timestamp": datetime("2014-01-05T12:00:00"),
		   "in-response-to": null, "sender-location": point("24.55,88.41"),
		   "tags": {{ "systems", "databases" }}, "message": " parallel database systems rock" }`,
		`{ "message-id": 5, "author-id": 4, "timestamp": datetime("2013-12-30T23:00:00"),
		   "in-response-to": 2, "sender-location": point("41.67,80.88"),
		   "tags": {{ "big-data", "systems" }}, "message": " one size fits a bunch " }`,
	}
	for _, m := range messages {
		if _, err := inst.Execute(`insert into dataset MugshotMessages (` + m + `);`); err != nil {
			t.Fatalf("insert message: %v", err)
		}
	}
}

func TestQuery1MetadataDatasets(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`for $ds in dataset Metadata.Dataset return $ds;`)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, v := range res {
		names[string(v.(*adm.Record).Get("DatasetName").(adm.String))] = true
	}
	if !names["MugshotUsers"] || !names["MugshotMessages"] {
		t.Errorf("Metadata.Dataset = %v", names)
	}
	idx, err := inst.Query(`for $ix in dataset Metadata.Index return $ix;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) < 5 {
		t.Errorf("Metadata.Index returned %d entries", len(idx))
	}
}

func TestQuery2RangeScan(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
  and $user.user-since <= datetime('2012-07-29T23:59:59')
return $user;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("range scan returned %d users, want 3", len(res))
	}
}

func TestQuery3Equijoin(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id = $user.id
  and $user.user-since >= datetime('2010-07-22T00:00:00')
  and $user.user-since <= datetime('2012-07-29T23:59:59')
return { "uname": $user.name, "message": $message.message };`)
	if err != nil {
		t.Fatal(err)
	}
	// Users 2, 3, 4 qualify; they authored messages 3, 4, 5.
	if len(res) != 3 {
		t.Fatalf("equijoin returned %d rows, want 3", len(res))
	}
	for _, v := range res {
		rec := v.(*adm.Record)
		if !rec.Has("uname") || !rec.Has("message") {
			t.Errorf("bad join row: %v", rec)
		}
	}
}

func TestQuery4NestedOuterJoin(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
return {
  "uname": $user.name,
  "messages":
    for $message in dataset MugshotMessages
    where $message.author-id = $user.id
    return $message.message
};`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("outer join returned %d users", len(res))
	}
	// Every user appears, including those without messages; Margarita has 2.
	for _, v := range res {
		rec := v.(*adm.Record)
		msgs := rec.Get("messages").(*adm.OrderedList)
		if string(rec.Get("uname").(adm.String)) == "MargaritaStoddard" && len(msgs.Items) != 2 {
			t.Errorf("Margarita should have 2 messages, got %d", len(msgs.Items))
		}
	}
}

func TestQuery5SpatialJoin(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
for $t in dataset MugshotMessages
return {
  "message": $t.message,
  "nearby-messages":
    for $t2 in dataset MugshotMessages
    where spatial-distance($t.sender-location, $t2.sender-location) <= 1
    return { "msgtxt": $t2.message }
};`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("spatial join returned %d rows", len(res))
	}
	// Messages 1, 2 and 5 are within distance 1 of each other.
	for _, v := range res {
		rec := v.(*adm.Record)
		if strings.Contains(string(rec.Get("message").(adm.String)), "love big data") {
			nearby := rec.Get("nearby-messages").(*adm.OrderedList)
			if len(nearby.Items) != 3 {
				t.Errorf("message 1 should have 3 nearby messages, got %d", len(nearby.Items))
			}
		}
	}
}

func TestQuery6FuzzySelection(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
set simfunction "edit-distance";
set simthreshold "3";
for $msu in dataset MugshotUsers
for $msm in dataset MugshotMessages
where $msu.id = $msm.author-id
  and (some $word in word-tokens($msm.message) satisfies $word ~= "tonight")
return { "name": $msu.name, "message": $msm.message };`)
	if err != nil {
		t.Fatal(err)
	}
	// "tonight" (message 1) and "tonite" (message 3) both match.
	if len(res) != 2 {
		t.Fatalf("fuzzy selection returned %d rows, want 2", len(res))
	}
}

func TestQuery7Existential(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
for $msu in dataset MugshotUsers
where (some $e in $msu.employment satisfies is-null($e.end-date) and $e.job-kind = "part-time")
return $msu;`)
	if err != nil {
		t.Fatal(err)
	}
	// job-kind is an open (undeclared) field; only user 3 has it, but their
	// end-date is not null, so nobody qualifies... except the paper's intent:
	// user 3's employment has end-date present, so the result is empty.
	if len(res) != 0 {
		t.Fatalf("existential query returned %d rows, want 0", len(res))
	}
}

func TestQuery8And9FunctionDefinitionAndUse(t *testing.T) {
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
	// Users 2 and 3 have all employments ended and zip 98765.
	if len(res) != 2 {
		t.Fatalf("function query returned %d rows, want 2", len(res))
	}
}

func TestQuery10SimpleAggregation(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
avg(
  for $m in dataset MugshotMessages
  where $m.timestamp >= datetime("2014-01-01T00:00:00")
    and $m.timestamp < datetime("2014-04-01T00:00:00")
  return string-length($m.message)
)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("aggregate returned %d values", len(res))
	}
	avg, ok := adm.NumericAsDouble(res[0])
	if !ok || avg <= 0 {
		t.Errorf("avg = %v", res[0])
	}
	// 4 messages fall into Q1 2014 (ids 1-4); their lengths average to the
	// same value the interpreter computes.
	want := (len(" love big data systems tonight") + len(" big data is the future") +
		len(" going out tonite ") + len(" parallel database systems rock")) / 4
	if int(avg) != want {
		t.Errorf("avg = %v, want about %d", avg, want)
	}
}

func TestQuery11GroupedAggregation(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
for $msg in dataset MugshotMessages
where $msg.timestamp >= datetime("2014-02-20T00:00:00")
  and $msg.timestamp < datetime("2014-02-21T00:00:00")
group by $aid := $msg.author-id with $msg
let $cnt := count($msg)
order by $cnt desc
limit 3
return { "author": $aid, "no messages": $cnt };`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("grouped aggregation returned %d rows, want 2", len(res))
	}
	first := res[0].(*adm.Record)
	cnt, _ := adm.NumericAsInt64(first.Get("no messages"))
	if cnt != 2 {
		t.Errorf("top author should have 2 messages, got %d", cnt)
	}
}

func TestQuery12ExternalDataActiveUsers(t *testing.T) {
	inst := newTinySocial(t)
	// Build the CSV access log of Figure 3.
	logPath := filepath.Join(t.TempDir(), "access.log")
	content := "12.34.56.78|2014-02-22T12:13:32|Nicholas|GET|/|200|2279\n" +
		"12.34.56.78|2014-02-23T12:13:33|Margarita|GET|/list|200|5299\n" +
		"12.34.56.78|2013-01-01T00:00:00|Isbel|GET|/|200|100\n"
	if err := os.WriteFile(logPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ddl := fmt.Sprintf(`
create type AccessLogType as closed {
  ip: string, time: string, user: string, verb: string, path: string, stat: int32, size: int32
};
create external dataset AccessLog(AccessLogType) using localfs
  (("path"="localhost://%s"),("format"="delimited-text"),("delimiter"="|"));`, logPath)
	if _, err := inst.Execute(ddl); err != nil {
		t.Fatal(err)
	}
	res, err := inst.Query(`
let $end := current-datetime()
let $start := $end - duration("P30D")
for $user in dataset MugshotUsers
where some $logrecord in dataset AccessLog satisfies $user.alias = $logrecord.user
  and datetime($logrecord.time) >= $start
  and datetime($logrecord.time) <= $end
group by $country := $user.address.country with $user
return { "country": $country, "active users": count($user) }`)
	if err != nil {
		t.Fatal(err)
	}
	// The fixed clock is 2014-03-01; Nicholas and Margarita were active in
	// the last 30 days, Isbel was not. Both are in the USA.
	if len(res) != 1 {
		t.Fatalf("active users returned %d rows, want 1", len(res))
	}
	rec := res[0].(*adm.Record)
	n, _ := adm.NumericAsInt64(rec.Get("active users"))
	if n != 2 {
		t.Errorf("active users = %d, want 2", n)
	}
}

func TestQuery13FuzzyJoin(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
set simfunction "jaccard";
set simthreshold "0.3";
for $msg in dataset MugshotMessages
let $msgsSimilarTags := (
  for $m2 in dataset MugshotMessages
  where $m2.tags ~= $msg.tags and $m2.message-id != $msg.message-id
  return $m2.message
)
where count($msgsSimilarTags) > 0
return { "message": $msg.message, "similarly tagged": $msgsSimilarTags };`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 4 {
		t.Fatalf("fuzzy join returned %d rows, want at least 4", len(res))
	}
}

func TestQuery14IndexNLHintJoin(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id /*+ indexnl */ = $user.id
return { "uname": $user.name, "message": $message.message };`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("index NL join returned %d rows, want 5", len(res))
	}
}

func TestUpdates1And2InsertDelete(t *testing.T) {
	inst := newTinySocial(t)
	if _, err := inst.Execute(`
insert into dataset MugshotUsers
(
  { "id": 11, "alias": "John", "name": "JohnDoe",
    "address": { "street": "789 Jane St", "city": "San Harry", "zip": "98767", "state": "CA", "country": "USA" },
    "user-since": datetime("2010-08-15T08:10:00"),
    "friend-ids": {{ 5, 9, 11 }},
    "employment": [ { "organization-name": "Kongreen", "start-date": date("2012-06-05") } ] }
);`); err != nil {
		t.Fatal(err)
	}
	res, err := inst.Query(`for $u in dataset MugshotUsers where $u.id = 11 return $u.name;`)
	if err != nil || len(res) != 1 {
		t.Fatalf("inserted record not found: %v, %v", res, err)
	}
	del, err := inst.Execute(`delete $user from dataset MugshotUsers where $user.id = 11;`)
	if err != nil || del.Count != 1 {
		t.Fatalf("delete: %+v, %v", del, err)
	}
	res, _ = inst.Query(`for $u in dataset MugshotUsers where $u.id = 11 return $u;`)
	if len(res) != 0 {
		t.Error("deleted record still visible")
	}
}

func TestArithmeticQuery(t *testing.T) {
	inst := newTinySocial(t)
	res, err := inst.Query(`1 + 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	if n, _ := adm.NumericAsInt64(res[0]); n != 2 {
		t.Errorf("1+1 = %v", res[0])
	}
}

func TestIndexedRangeUsesIndexPlan(t *testing.T) {
	inst := newTinySocial(t)
	explain, err := inst.Explain(`
for $m in dataset MugshotMessages
where $m.timestamp >= datetime("2014-01-01T00:00:00")
  and $m.timestamp < datetime("2014-04-01T00:00:00")
return $m;`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"btree-search (secondary msTimestampIdx", "sort (primary keys)", "btree-search (primary MugshotMessages)", "select"} {
		if !strings.Contains(explain, want) {
			t.Errorf("explain missing %q:\n%s", want, explain)
		}
	}
	// A range conjunct on an unindexed field ahead of the indexed one must
	// not hide the index (it used to: the first comparable field won).
	explain, err = inst.Explain(`
for $m in dataset MugshotMessages
where $m.message-id >= 1 and $m.timestamp >= datetime("2014-01-01T00:00:00")
return $m.message-id;`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "btree-search (secondary msTimestampIdx") {
		t.Errorf("index on timestamp missed behind the message-id conjunct:\n%s", explain)
	}
}

// TestFigure6JobShape asserts that the compiled Hyracks job for Query 10 has
// the operator and connector structure of Figure 6: secondary index search,
// PK sort, primary index search, post-validation select, assign, local
// aggregate, n:1 replicating connector, global aggregate. With -v it prints
// the Explain text it checks: the optimized plan and Figure 6's job.
func TestFigure6JobShape(t *testing.T) {
	inst := newTinySocial(t)
	const query10 = `
avg(
  for $m in dataset MugshotMessages
  where $m.timestamp >= datetime("2014-01-01T00:00:00")
    and $m.timestamp < datetime("2014-04-01T00:00:00")
  return string-length($m.message)
)`
	job, plan, err := inst.compileJob(query10)
	if err != nil {
		t.Fatal(err)
	}
	desc := job.Describe()
	ordered := []string{
		"btree-search(msTimestampIdx)",
		"sort(primary-keys)",
		"btree-search(MugshotMessages)",
		"select",
		"aggregate(local-avg)",
		"aggregate(global-avg)",
	}
	pos := -1
	for _, want := range ordered {
		idx := strings.Index(desc, want)
		if idx < 0 {
			t.Fatalf("job description missing %q:\n%s", want, desc)
		}
		if idx < pos {
			t.Errorf("operator %q out of order in:\n%s", want, desc)
		}
		pos = idx
	}
	if !strings.Contains(desc, string("MToNReplicatingConnector")) {
		t.Errorf("job should use an n:1 replicating connector before the global aggregate:\n%s", desc)
	}
	if plan.Root.Kind != algebra.OpDistribute {
		t.Errorf("plan root = %v", plan.Root.Kind)
	}
	explain, err := inst.Explain(query10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(explain, desc) {
		t.Errorf("Explain does not end with the checked job:\n%s", explain)
	}
	t.Logf("Figure 6: the job for Query 10\n%s", explain)
	res, err := inst.Query(query10)
	if err != nil || len(res) != 1 {
		t.Fatalf("query 10 execution failed: %v %v", res, err)
	}
}

func TestRTreeAndKeywordIndexQueries(t *testing.T) {
	inst := newTinySocial(t)
	ds, _ := inst.Dataset("MugshotMessages")
	probe := adm.Rectangle{LowerLeft: adm.Point{X: 41, Y: 80}, UpperRight: adm.Point{X: 42, Y: 81}}
	recs, err := ds.SearchSecondaryRTree("msSenderLocIndex", probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("rtree search returned %d messages, want 3", len(recs))
	}
	kw, err := ds.SearchSecondaryInverted("msMessageIdx", "data", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kw) != 2 {
		t.Errorf("keyword search returned %d messages, want 2", len(kw))
	}
}

// TestSchemaAndKeyOnlyInstances: the paper's KeyOnly configuration is a
// Datatype that declares only the primary key. The same data stored under it
// takes more bytes (every other field carries its name) and answers every
// differential query with the same rows as the fully declared Schema
// instance, with index access on and off.
func TestSchemaAndKeyOnlyInstances(t *testing.T) {
	open := func(ddl string) *Instance {
		inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inst.Close() })
		if _, err := inst.Execute(ddl); err != nil {
			t.Fatalf("DDL: %v", err)
		}
		loadTinySocial(t, inst)
		return inst
	}
	schema, keyOnly := open(tinySocialDDL), open(tinySocialKeyOnlyDDL)
	size := func(inst *Instance) int64 {
		ds, _ := inst.Dataset("MugshotMessages")
		n, err := ds.SizeBytes()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if s, k := size(schema), size(keyOnly); s >= k {
		t.Errorf("Schema messages take %d bytes, KeyOnly %d; want Schema smaller", s, k)
	}
	// Field order and integer widths follow the Datatype, so rows compare as
	// JSON objects.
	rows := func(inst *Instance, q diffQuery, opts algebra.Options) []string {
		vals, err := inst.QueryWithOptions(q.query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if q.bags {
			vals = canonicalBags(t, vals)
		}
		out := make([]string, len(vals))
		for i, v := range vals {
			var x any
			if err := json.Unmarshal(adm.AppendJSON(nil, v), &x); err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(x)
			out[i] = string(b)
		}
		if !q.ordered {
			sort.Strings(out)
		}
		return out
	}
	for _, q := range differentialQueries {
		for _, opts := range []algebra.Options{{}, {DisableIndexAccess: true}} {
			want, got := rows(schema, q, opts), rows(keyOnly, q, opts)
			if !slices.Equal(got, want) {
				t.Errorf("%s (%+v): KeyOnly rows\n  %v\nSchema rows\n  %v", q.name, opts, got, want)
			}
		}
	}
}

// TestPartialOwnerRefusesUpdatesThatReadDatasets: an instance that owns some
// partitions stores a slice of every dataset, and a compiled scan reads that
// slice (its share of a distributed job) — a dataset inside an expression
// too, through its nest join. Every node runs an update statement on its own
// slice, so an insert body or a delete condition that reads a stored dataset
// is a typed error naming the dataset, and stores or deletes nothing.
func TestPartialOwnerRefusesUpdatesThatReadDatasets(t *testing.T) {
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 4, OwnsPartition: func(p int) bool { return p == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Execute(`create type T as { id: int64 } create dataset D(T) primary key id; create dataset D2(T) primary key id;`); err != nil {
		t.Fatal(err)
	}
	var recs []string
	for i := 0; i < 40; i++ {
		recs = append(recs, fmt.Sprintf(`{ "id": %d }`, i))
	}
	res, err := inst.Execute(`insert into dataset D ([` + strings.Join(recs, ",") + `]);`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 10 {
		t.Fatalf("stored %d of 40 records in partition 0 of 4, want 10", res.Count)
	}
	for _, q := range []string{`count(for $d in dataset D return $d)`, `for $x in [1] return count(for $d in dataset D return $d)`} {
		vals, err := inst.Query(q)
		if err != nil || len(vals) != 1 {
			t.Fatalf("%s = %v, %v", q, vals, err)
		}
		if n, _ := adm.NumericAsInt64(vals[0]); n != 10 {
			t.Fatalf("%s = %v, want the owned slice 10", q, vals[0])
		}
	}
	for _, stmt := range []string{
		`insert into dataset D2 (for $d in dataset D return { "id": $d.id + 100 });`,
		`delete $x from dataset D where $x.id < count(for $d in dataset D return $d);`,
	} {
		if _, err := inst.Execute(stmt); ErrorCode(err) != CodeInvalid || !strings.Contains(fmt.Sprint(err), `"D"`) {
			t.Fatalf("%s: %v; want a CodeInvalid error naming D", stmt, err)
		}
	}
	for name, want := range map[string]int64{"D": 10, "D2": 0} {
		vals, err := inst.Query(`count(for $d in dataset ` + name + ` return $d)`)
		if n, _ := adm.NumericAsInt64(vals[0]); err != nil || n != want {
			t.Fatalf("%s holds %v (%v) after the refusals, want %d", name, vals, err, want)
		}
	}
	// A delete whose condition reads only its own dataset is its slice's.
	if res, err := inst.Execute(`delete $x from dataset D where $x.id >= 0;`); err != nil || res.Count != 10 {
		t.Fatalf("own-slice delete = %+v, %v; want 10 deleted", res, err)
	}
}

// TestInsertBodyReadsDatasets: an insert body is a query like any other, so
// one that reads a dataset runs as a job and stores what it returns.
func TestInsertBodyReadsDatasets(t *testing.T) {
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	var recs []string
	for i := 0; i < 40; i++ {
		recs = append(recs, fmt.Sprintf(`{ "id": %d }`, i))
	}
	if _, err := inst.Execute(`create type T as { id: int64 } create dataset D1(T) primary key id; create dataset D2(T) primary key id;
insert into dataset D1 ([` + strings.Join(recs, ",") + `]);`); err != nil {
		t.Fatal(err)
	}
	res, err := inst.Execute(`insert into dataset D2 (for $x in dataset D1 where $x.id < 5 return {"id": $x.id + 100});`)
	if err != nil || res.Count != 5 {
		t.Fatalf("insert from D1 = %+v, %v; want 5 stored", res, err)
	}
	// Stored records, returned whole, are stored whole.
	if res, err = inst.Execute(`insert into dataset D2 (for $x in dataset D1 where $x.id >= 35 return $x);`); err != nil || res.Count != 5 {
		t.Fatalf("insert of D1's records = %+v, %v; want 5 stored", res, err)
	}
	vals, err := inst.Query(`for $x in dataset D2 order by $x.id return $x.id`)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, v := range vals {
		n, _ := adm.NumericAsInt64(v)
		ids = append(ids, n)
	}
	if want := []int64{35, 36, 37, 38, 39, 100, 101, 102, 103, 104}; !slices.Equal(ids, want) {
		t.Fatalf("D2 ids = %v, want %v", ids, want)
	}
}

func TestDDLErrors(t *testing.T) {
	inst := newTinySocial(t)
	if _, err := inst.Execute(`create dataset MugshotUsers(MugshotUserType) primary key id;`); err == nil {
		t.Error("duplicate dataset should fail")
	}
	if _, err := inst.Execute(`create dataset X(NoSuchType) primary key id;`); err == nil {
		t.Error("unknown type should fail")
	}
	if _, err := inst.Execute(`use dataverse NoSuchDataverse;`); err == nil {
		t.Error("unknown dataverse should fail")
	}
	if _, err := inst.Execute(`for $x in dataset NoSuchDataset return $x;`); err == nil {
		t.Error("query over unknown dataset should fail")
	}
	if _, err := inst.Execute(`insert into dataset MugshotUsers ( { "alias": "x" } );`); err == nil {
		t.Error("insert without primary key should fail")
	}
}
