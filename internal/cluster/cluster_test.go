package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"asterixdb"
	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/server"
)

// testDDL is the paper's TinySocial schema (Data definition 1 + 2), the same
// corpus the root package's differential tests run, so the distributed
// executor is held to the single-process executor's exact results across
// every access path: parallel scans, secondary btree/rtree/keyword/ngram
// indexes, hash joins, group-by, sort and the aggregation split.
const testDDL = `
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

create dataset MugshotUsers(MugshotUserType) primary key id;
create dataset MugshotMessages(MugshotMessageType) primary key message-id;

create index msUserSinceIdx on MugshotUsers(user-since);
create index msTimestampIdx on MugshotMessages(timestamp);
create index msAuthorIdx on MugshotMessages(author-id) type btree;
create index msSenderLocIndex on MugshotMessages(sender-location) type rtree;
create index msMessageIdx on MugshotMessages(message) type keyword;
create index msMessageNGramIdx on MugshotMessages(message) type ngram(3);

create type AuthorType as closed { id: int64, since: int16 }
create dataset Authors(AuthorType) primary key id;
`

// testAuthors are int64 keys, written at three widths, joined against the
// messages' int32 author-id.
const testAuthors = `[{ "id": int64("1"), "since": int16("2010") }, { "id": 2, "since": int16("2011") },
  { "id": int8("3"), "since": int16("2012") }, { "id": int64("9"), "since": int16("2013") }]`

var testUsers = []string{
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

var testMessages = []string{
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

func loadTestCorpus(t *testing.T, exec func(string) error) {
	t.Helper()
	if err := exec(testDDL); err != nil {
		t.Fatalf("DDL: %v", err)
	}
	for _, u := range testUsers {
		if err := exec(`use dataverse TinySocial; insert into dataset MugshotUsers (` + u + `);`); err != nil {
			t.Fatalf("insert user: %v", err)
		}
	}
	for _, m := range testMessages {
		if err := exec(`use dataverse TinySocial; insert into dataset MugshotMessages (` + m + `);`); err != nil {
			t.Fatalf("insert message: %v", err)
		}
	}
	if err := exec(`use dataverse TinySocial; insert into dataset Authors (` + testAuthors + `);`); err != nil {
		t.Fatalf("insert authors: %v", err)
	}
}

// indexNLJoin probes MugshotMessages' secondary index on author-id once per
// user.
const indexNLJoin = `
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id /*+ indexnl */ = $user.id
return { "uname": $user.name, "message": $message.message };`

// differentialQueries holds corpus queries across every access path, each
// of which compiles into one distributable job — a dataset inside an
// expression too, as a nest join. bags marks rows whose nested lists have no
// inner order by: their order is unspecified, so they compare as bags.
var differentialQueries = []struct {
	name          string
	query         string
	ordered, bags bool
}{
	{"full-scan", `for $u in dataset MugshotUsers return $u;`, false, false},
	// The primary search is a source whose instances each fetch the key only
	// if their partition owns it: the one get runs on the node that owns the
	// stored int32 key, probed at int64.
	{"primary-key-equality", `for $m in dataset MugshotMessages where $m.message-id = int64("3") return $m;`, false, false},
	{"range-index-scan", `
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
  and $user.user-since <= datetime('2012-07-29T23:59:59')
return $user;`, false, false},
	{"equijoin", `
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id = $user.id
  and $user.user-since >= datetime('2010-07-22T00:00:00')
  and $user.user-since <= datetime('2012-07-29T23:59:59')
return { "uname": $user.name, "message": $message.message };`, false, false},
	// The index nested-loop join distributes: the outer side is broadcast to
	// the inner dataset's partitions and every instance probes the index of
	// the partition its node owns.
	{"indexnl-join", indexNLJoin, false, false},
	{"indexnl-join-primary-key", `
for $message in dataset MugshotMessages
for $user in dataset MugshotUsers
where $message.author-id /*+ indexnl */ = $user.id
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
	// A computed key with ties, broken by the key: the one sort behind the
	// gather keeps offset+limit rows.
	{"topk-computed-offset", `
for $m in dataset MugshotMessages
order by string-length($m.message) desc, $m.message-id
limit 3 offset 2
return { "id": $m.message-id, "len": string-length($m.message) };`, true, false},
	{"let-first", `
let $cutoff := datetime("2014-01-01T00:00:00")
for $m in dataset MugshotMessages
where $m.timestamp >= $cutoff
return $m.message-id;`, false, false},
	{"self-join", `
for $a in dataset MugshotMessages
for $b in dataset MugshotMessages
where $a.author-id = $b.author-id
return { "a": $a.message-id, "b": $b.message-id };`, false, false},
	{"rtree-spatial", `
for $m in dataset MugshotMessages
where spatial-intersect($m.sender-location, create-rectangle(create-point(41.0, 80.0), create-point(42.0, 81.0)))
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
	{"unnest-group", `
for $m in dataset MugshotMessages
for $t in $m.tags
group by $tag := $t with $m
return { "tag": $tag, "cnt": count($m) };`, false, false},
	{"unnest-employment", `
for $u in dataset MugshotUsers
for $e in $u.employment
return { "u": $u.id, "org": $e.organization-name };`, false, false},
	// Positional variables distribute: the per-partition scan instances stay
	// on their owner nodes tagging (partition, seq), and the single-instance
	// sort + position counter above them reproduces the global partition-
	// concatenation order across the cluster.
	{"positional-scan", `
for $m at $i in dataset MugshotMessages
order by $i
return { "i": $i, "id": $m.message-id };`, true, false},
	{"positional-unnest", `
for $m in dataset MugshotMessages
for $t at $j in $m.tags
return { "id": $m.message-id, "j": $j, "tag": $t };`, false, false},
	{"metadata-scan", `for $ds in dataset Metadata.Dataset return $ds;`, false, false},
	{"agg-avg", `avg(for $m in dataset MugshotMessages return string-length($m.message))`, true, false},
	{"agg-count", `count(for $m in dataset MugshotMessages return $m.message-id)`, true, false},
	// An int32 field joined against an int64 key: a number's key is its value,
	// so the partitioning connector routes both sides of a pair to one place.
	{"mixed-width-join", `
for $a in dataset Authors
for $m in dataset MugshotMessages
where $m.author-id = $a.id
return { "author": $a.id, "message": $m.message-id };`, false, false},
	{"mixed-width-indexnl-join-primary-key", `
for $m in dataset MugshotMessages
for $a in dataset Authors
where $m.author-id /*+ indexnl */ = $a.id
return { "author": $a.id, "message": $m.message-id };`, false, false},
	{"mixed-width-indexnl-join", `
for $a in dataset Authors
for $m in dataset MugshotMessages
where $m.author-id /*+ indexnl */ = $a.id
return { "author": $a.id, "message": $m.message-id };`, false, false},
	{"agg-min", `min(for $m in dataset MugshotMessages return $m.message-id)`, true, false},
	{"agg-max", `max(for $m in dataset MugshotMessages return $m.timestamp)`, true, false},
	{"agg-over-index-path", `
avg(
  for $m in dataset MugshotMessages
  where $m.timestamp >= datetime("2014-01-01T00:00:00")
    and $m.timestamp < datetime("2014-04-01T00:00:00")
  return string-length($m.message)
)`, true, false},
	// The paper's Query 4 (a keyed nest join) and Query 5 (a keyless one).
	{"query4-nested-outer-join", `
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
return {
  "uname": $user.name,
  "messages":
    for $message in dataset MugshotMessages
    where $message.author-id = $user.id
    return $message.message
};`, false, true},
	{"query5-spatial-nest-join", `
for $t in dataset MugshotMessages
return {
  "message": $t.message,
  "nearby-messages":
    for $t2 in dataset MugshotMessages
    where spatial-distance($t.sender-location, $t2.sender-location) <= 1
    return { "msgtxt": $t2.message }
};`, false, true},
}

// testCluster is one in-process cluster: a controller plus node controllers
// running as goroutines, every boundary a real loopback TCP connection.
type testCluster struct {
	cc    *Controller
	inst  *asterixdb.Instance
	nodes []*Node
	stops []context.CancelFunc
	runs  []chan struct{}
}

func startCluster(t *testing.T, nNodes, partitions int) *testCluster {
	t.Helper()
	inst, err := asterixdb.Open(asterixdb.Config{
		DataDir:       t.TempDir(),
		Partitions:    partitions,
		OwnsPartition: func(int) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewController(inst, ControllerConfig{
		ExpectNodes:       nNodes,
		HeartbeatInterval: 200 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Second,
		RPCTimeout:        20 * time.Second,
	})
	if err != nil {
		inst.Close()
		t.Fatal(err)
	}
	tc := &testCluster{cc: cc, inst: inst}
	for i := 0; i < nNodes; i++ {
		node, err := NewNode(NodeConfig{
			Name:             fmt.Sprintf("nc%d", i+1),
			CCAddr:           cc.CtrlAddr(),
			DataDir:          t.TempDir(),
			Partitions:       partitions,
			HeartbeatTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = node.Run(ctx)
		}()
		tc.nodes = append(tc.nodes, node)
		tc.stops = append(tc.stops, cancel)
		tc.runs = append(tc.runs, done)
	}
	t.Cleanup(tc.shutdown)
	if err := cc.WaitReady(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	return tc
}

func (tc *testCluster) shutdown() {
	for _, stop := range tc.stops {
		stop()
	}
	for _, done := range tc.runs {
		<-done
	}
	tc.cc.Close()
	tc.inst.Close()
}

// stopNode tears one node down (graceful close of its sockets, as a crashed
// process's OS would) and waits for its goroutines to exit.
func (tc *testCluster) stopNode(i int) {
	tc.stops[i]()
	<-tc.runs[i]
}

func drainCursor(cur *asterixdb.Cursor) ([]string, error) {
	defer cur.Close()
	var out []string
	for cur.Next() {
		out = append(out, string(adm.AppendJSON(nil, cur.Value())))
	}
	return out, cur.Err()
}

// TestClusterDifferential is the core acceptance test of the distributed
// runtime: every corpus query must return results identical to a
// single-process instance holding the same data — exact sequence for ordered
// queries, equal multisets otherwise.
func TestClusterDifferential(t *testing.T) {
	tc := startCluster(t, 2, 4)
	loadTestCorpus(t, func(src string) error {
		_, err := tc.cc.ExecuteContext(context.Background(), src)
		return err
	})

	ref, err := asterixdb.Open(asterixdb.Config{DataDir: t.TempDir(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	loadTestCorpus(t, func(src string) error {
		_, err := ref.Execute(src)
		return err
	})

	// Row counts for the mixed-width joins, so they cannot pass by returning
	// nothing on both sides: authors 1, 2 and 3 wrote messages 1-2, 3 and 4.
	wantRows := map[string]int{"mixed-width-join": 4, "mixed-width-indexnl-join-primary-key": 4, "mixed-width-indexnl-join": 4}
	ctx := context.Background()
	for _, q := range differentialQueries {
		t.Run(q.name, func(t *testing.T) {
			src := "use dataverse TinySocial;\n" + q.query
			distCur, err := tc.cc.QueryStream(ctx, src)
			if err != nil {
				t.Fatalf("cluster query: %v", err)
			}
			dist, err := drainCursor(distCur)
			if err != nil {
				t.Fatalf("cluster stream: %v", err)
			}
			refCur, err := ref.QueryStream(ctx, src)
			if err != nil {
				t.Fatalf("reference query: %v", err)
			}
			want, err := drainCursor(refCur)
			if err != nil {
				t.Fatalf("reference stream: %v", err)
			}
			if q.bags {
				dist, want = bagJSON(t, dist), bagJSON(t, want)
			}
			if !q.ordered {
				sort.Strings(dist)
				sort.Strings(want)
			}
			if len(dist) != len(want) {
				t.Fatalf("result count differs: cluster %d, single-process %d\ncluster: %v\nsingle:  %v",
					len(dist), len(want), dist, want)
			}
			if n, ok := wantRows[q.name]; ok && len(want) != n {
				t.Errorf("single-process returned %d rows, want %d: %v", len(want), n, want)
			}
			for i := range want {
				if dist[i] != want[i] {
					t.Errorf("result %d differs:\n  cluster: %s\n  single:  %s", i, dist[i], want[i])
				}
			}
		})
	}
}

// bagJSON sorts every array inside each JSON row, for rows whose nested
// lists are bags.
func bagJSON(t *testing.T, rows []string) []string {
	t.Helper()
	var bag func(v any) any
	bag = func(v any) any {
		switch x := v.(type) {
		case []any:
			keys := make([]string, len(x))
			for i, it := range x {
				b, err := json.Marshal(bag(it))
				if err != nil {
					t.Fatal(err)
				}
				keys[i] = string(b)
			}
			sort.Strings(keys)
			out := make([]any, len(x))
			for i, k := range keys {
				out[i] = json.RawMessage(k)
			}
			return out
		case map[string]any:
			for k, f := range x {
				x[k] = bag(f)
			}
		}
		return v
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		var v any
		if err := json.Unmarshal([]byte(r), &v); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(bag(v))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// TestClusterProfileParity is the acceptance test of distributed profiling:
// a profiled query on a 2-node cluster must report per-operator tuple counts
// identical to a single-process instance holding the same data, with every
// row labelled by the node that ran it — so profile=true output looks the
// same distributed as local, plus node labels.
func TestClusterProfileParity(t *testing.T) {
	tc := startCluster(t, 2, 4)
	ctx := context.Background()
	loadTestCorpus(t, func(src string) error {
		_, err := tc.cc.ExecuteContext(ctx, src)
		return err
	})
	ref, err := asterixdb.Open(asterixdb.Config{DataDir: t.TempDir(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	loadTestCorpus(t, func(src string) error {
		_, err := ref.Execute(src)
		return err
	})

	profiled := func(open func(context.Context, string) (*asterixdb.Cursor, error), src string) (*hyracks.JobProfile, int) {
		t.Helper()
		cur, err := open(asterixdb.WithProfiling(ctx), src)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := drainCursor(cur)
		if err != nil {
			t.Fatal(err)
		}
		p := cur.Profile()
		if p == nil {
			t.Fatal("profiled query yielded no profile")
		}
		return p, len(rows)
	}

	for _, q := range []struct{ name, query string }{
		{"full-scan", `for $u in dataset MugshotUsers return $u;`},
		{"group-by", `
for $m in dataset MugshotMessages
group by $aid := $m.author-id with $m
return { "author": $aid, "cnt": count($m) };`},
		{"equijoin", `
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id = $user.id
return { "uname": $user.name, "message": $message.message };`},
		{"indexnl-join", indexNLJoin},
	} {
		t.Run(q.name, func(t *testing.T) {
			src := "use dataverse TinySocial;\n" + q.query
			dist, distRows := profiled(tc.cc.QueryStream, src)
			local, localRows := profiled(ref.QueryStream, src)
			if distRows != localRows {
				t.Fatalf("row counts differ: cluster %d, single-process %d", distRows, localRows)
			}
			do, lo := dist.OutByName(), local.OutByName()
			if len(do) != len(lo) {
				t.Fatalf("operator sets differ:\ncluster: %v\nsingle:  %v", do, lo)
			}
			for name, n := range lo {
				if do[name] != n {
					t.Errorf("%s: cluster out %d != single-process out %d", name, do[name], n)
				}
			}
			di, li := dist.InByName(), local.InByName()
			for name, n := range li {
				if di[name] != n {
					t.Errorf("%s: cluster in %d != single-process in %d", name, di[name], n)
				}
			}
			// Every distributed row carries the label of the node that ran it.
			seen := map[string]bool{}
			for _, r := range dist.Operators {
				if r.Node != "nc1" && r.Node != "nc2" {
					t.Fatalf("row %q has node label %q, want nc1 or nc2", r.Name, r.Node)
				}
				seen[r.Node] = true
			}
			if len(seen) != 2 {
				t.Errorf("profile rows came from %v, want both nodes", seen)
			}
			if q.name == "indexnl-join" {
				// The index probes run where the partitions live: both nodes
				// search, sort and fetch, and every user reaches every search
				// instance (4 partitions).
				for _, stage := range []string{"btree-search(msAuthorIdx)", "sort(primary-keys)", "btree-search(MugshotMessages)"} {
					nodes := map[string]bool{}
					for _, r := range dist.Operators {
						if r.Name == stage {
							nodes[r.Node] = true
						}
					}
					if len(nodes) != 2 {
						t.Errorf("%s ran on %v, want both nodes", stage, nodes)
					}
				}
				if got, want := di["btree-search(msAuthorIdx)"], int64(4*len(testUsers)); got != want {
					t.Errorf("search instances saw %d outer tuples, want %d (every user broadcast to 4 partitions)", got, want)
				}
				if got := do["btree-search(MugshotMessages)"]; got != int64(len(testMessages)) {
					t.Errorf("primary search fetched %d records, want %d", got, len(testMessages))
				}
			}
			for _, r := range local.Operators {
				if r.Node != "" {
					t.Fatalf("single-process row %q unexpectedly labelled %q", r.Name, r.Node)
				}
			}
		})
	}

	// The scan count in the distributed profile is the dataset cardinality.
	dist, _ := profiled(tc.cc.QueryStream, "use dataverse TinySocial;\nfor $u in dataset MugshotUsers return $u;")
	if got := dist.OutByName()["datasource-scan(MugshotUsers)"]; got != int64(len(testUsers)) {
		t.Fatalf("scan out = %d, want %d", got, len(testUsers))
	}
}

// TestClusterDMLCounts checks that DML counts aggregate across the cluster:
// each node stores only its owned partitions, and the controller (owning
// none) sums the node counts back to the cluster-wide total.
func TestClusterDMLCounts(t *testing.T) {
	tc := startCluster(t, 2, 4)
	ctx := context.Background()
	mustExec := func(src string) *asterixdb.Result {
		t.Helper()
		res, err := tc.cc.ExecuteContext(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mustExec(`
drop dataverse Counts if exists;
create dataverse Counts;
use dataverse Counts;
create type T as { id: int64 }
create dataset D(T) primary key id;`)

	var recs []string
	for i := 0; i < 40; i++ {
		recs = append(recs, fmt.Sprintf(`{ "id": %d }`, i))
	}
	res := mustExec(`use dataverse Counts; insert into dataset D ([` + strings.Join(recs, ",") + `]);`)
	if res.Count != 40 {
		t.Fatalf("insert count = %d, want 40 (summed across nodes)", res.Count)
	}

	cur, err := tc.cc.QueryStream(ctx, `use dataverse Counts; count(for $d in dataset D return $d)`)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := drainCursor(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != "40" {
		t.Fatalf("count query = %v, want [40]", vals)
	}

	res = mustExec(`use dataverse Counts; delete $d from dataset D where $d.id < 10;`)
	if res.Count != 10 {
		t.Fatalf("delete count = %d, want 10", res.Count)
	}
}

// TestClusterAnswersExpressionDatasetReads: a dataset read inside an
// expression is a nest join in the distributed job, whose scan instances
// run on the nodes owning their partitions, so the cluster answers with the
// whole dataset's count, through the API and over HTTP.
func TestClusterAnswersExpressionDatasetReads(t *testing.T) {
	tc := startCluster(t, 2, 4)
	ctx := context.Background()
	var recs []string
	for i := 0; i < 40; i++ {
		recs = append(recs, fmt.Sprintf(`{ "id": %d }`, i))
	}
	if _, err := tc.cc.ExecuteContext(ctx, `
create dataverse Sub;
use dataverse Sub;
create type T as { id: int64 }
create dataset D(T) primary key id;
insert into dataset D ([`+strings.Join(recs, ",")+`]);`); err != nil {
		t.Fatal(err)
	}
	const query = `use dataverse Sub; for $x in [1] return count(for $d in dataset D return $d);`
	cur, err := tc.cc.QueryStream(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if vals, err := drainCursor(cur); err != nil || len(vals) != 1 || vals[0] != "40" {
		t.Fatalf("cluster answered %v, %v; want [40]", vals, err)
	}

	svc := server.New(tc.cc, server.Options{})
	defer svc.Close()
	w := httptest.NewRecorder()
	svc.ServeHTTP(w, httptest.NewRequest("POST", "/query", strings.NewReader(query)))
	if w.Code != http.StatusOK || strings.TrimSpace(w.Body.String()) != "40" {
		t.Fatalf("POST /query = %d %q, want 200 and 40", w.Code, w.Body)
	}
}

// TestClusterExplainExecutesNothing: Explain runs on the controller's catalog
// replica only, so a statement it executed would never reach the nodes. It
// rejects a leading create instead, and the replica and the nodes stay in
// step: the same create through ExecuteContext then succeeds everywhere.
func TestClusterExplainExecutesNothing(t *testing.T) {
	tc := startCluster(t, 2, 4)
	ctx := context.Background()
	if _, err := tc.cc.ExecuteContext(ctx, `
create dataverse Z;
use dataverse Z;
create type T as { id: int64 }`); err != nil {
		t.Fatal(err)
	}
	const create = `use dataverse Z; create dataset E(T) primary key id;`
	const query = `for $e in dataset E return $e.id`
	if out, err := tc.cc.Explain(create + query); asterixdb.ErrorCode(err) != asterixdb.CodeInvalid || out != "" {
		t.Fatalf("Explain with a leading create = %q, %v; want a CodeInvalid error", out, err)
	}
	if _, err := tc.cc.ExecuteContext(ctx, create+`insert into dataset E ([{ "id": 1 }, { "id": 2 }, { "id": 3 }]);`); err != nil {
		t.Fatalf("create + insert after the rejected explain: %v", err)
	}
	if out, err := tc.cc.Explain(`use dataverse Z; ` + query); err != nil || !strings.Contains(out, "datasource-scan E") {
		t.Errorf("Explain with a use-dataverse prologue = %q, %v", out, err)
	}
	cur, err := tc.cc.QueryStream(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if vals, err := drainCursor(cur); err != nil || len(vals) != 3 {
		t.Errorf("query on E = %v, %v; want 3 rows", vals, err)
	}
}

// TestClusterStatementErrors checks that a malformed statement is rejected
// on the controller's catalog before any node sees it, with the same typed
// error a single process returns.
func TestClusterStatementErrors(t *testing.T) {
	tc := startCluster(t, 2, 4)
	ctx := context.Background()
	if _, err := tc.cc.ExecuteContext(ctx, `this is not AQL`); asterixdb.ErrorCode(err) != asterixdb.CodeSyntax {
		t.Fatalf("syntax error code = %q (%v), want %q", asterixdb.ErrorCode(err), err, asterixdb.CodeSyntax)
	}
	// An unknown dataset surfaces through the cursor, exactly as a single
	// process reports it.
	cur, err := tc.cc.QueryStream(ctx, `for $x in dataset NoSuchDataset return $x;`)
	if err != nil {
		if asterixdb.ErrorCode(err) != asterixdb.CodeNotFound {
			t.Fatalf("unknown dataset open error = %v, want not-found", err)
		}
		return
	}
	if _, err := drainCursor(cur); asterixdb.ErrorCode(err) != asterixdb.CodeNotFound {
		t.Fatalf("unknown dataset code = %q (%v), want %q", asterixdb.ErrorCode(err), err, asterixdb.CodeNotFound)
	}
}

// TestClusterConstantQueries: queries with no dataset access — a bare
// expression and a let-first FLWOR — are distributed jobs like any other
// (their empty-tuple-source is placed on one node), not something the
// controller evaluates on the side: one row each, and a node-built profile.
func TestClusterConstantQueries(t *testing.T) {
	tc := startCluster(t, 2, 4)
	for src, want := range map[string]string{
		`1 + 1`:                     "2",
		`let $x := 2 return $x * 2`: "4",
	} {
		cur, err := tc.cc.QueryStream(asterixdb.WithProfiling(context.Background()), src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		vals, err := drainCursor(cur)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(vals) != 1 || vals[0] != want {
			t.Errorf("%s = %v, want [%s]", src, vals, want)
		}
		if prof := cur.Profile(); prof == nil || prof.OutByName()["empty-tuple-source"] != 1 {
			t.Errorf("%s: profile %+v, want one tuple out of an empty-tuple-source", src, prof)
		}
	}
}

// TestClusterNodeWithoutInstanceCompletes: a job whose operators all run on
// node 0 still starts a slice on node 1, with no instance in it; that slice
// completes at once, so the query does, again and again.
func TestClusterNodeWithoutInstanceCompletes(t *testing.T) {
	tc := startCluster(t, 2, 4)
	const src = `count(for $x in [1, 2, 3] return $x)`
	req, q, _, err := tc.inst.ExecuteForQuery(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	_, job, err := req.CompileQuery(q, algebra.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := placement{nodes: 2}
	for _, op := range job.Operators {
		if pl.hasInstance(1, op.Parallelism()) {
			t.Fatalf("operator %s has an instance on node 1:\n%s", op.Name(), job.Describe())
		}
	}
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cur, err := tc.cc.QueryStream(ctx, src)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		vals, err := drainCursor(cur)
		cancel()
		if err != nil || len(vals) != 1 || vals[0] != "3" {
			t.Fatalf("run %d: %v, %v; want [3]", i, vals, err)
		}
	}
}

// TestClusterNotFormed: statements against a cluster still waiting for nodes
// fail fast with the typed unavailable error (HTTP 503 through the server).
func TestClusterNotFormed(t *testing.T) {
	inst, err := asterixdb.Open(asterixdb.Config{
		DataDir:       t.TempDir(),
		Partitions:    4,
		OwnsPartition: func(int) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	cc, err := NewController(inst, ControllerConfig{ExpectNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Health(); asterixdb.ErrorCode(err) != asterixdb.CodeUnavailable {
		t.Fatalf("health before formation = %v, want unavailable", err)
	}
	if _, err := cc.ExecuteContext(context.Background(), `create dataverse X;`); asterixdb.ErrorCode(err) != asterixdb.CodeUnavailable {
		t.Fatalf("statement before formation = %v, want unavailable", err)
	}
}

// TestClusterNodeDownRefusesQueries: once a node dies, the cluster refuses
// new queries with a typed unavailable error (its data slice is gone), while
// the controller itself stays healthy.
func TestClusterNodeDownRefusesQueries(t *testing.T) {
	tc := startCluster(t, 2, 4)
	ctx := context.Background()
	loadTestCorpus(t, func(src string) error {
		_, err := tc.cc.ExecuteContext(ctx, src)
		return err
	})
	tc.stopNode(1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := tc.cc.QueryStream(ctx, `use dataverse TinySocial; for $u in dataset MugshotUsers return $u;`)
		if asterixdb.ErrorCode(err) == asterixdb.CodeUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query after node death = %v, want unavailable", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := tc.cc.Health(); err != nil {
		t.Fatalf("controller health after node death = %v, want nil (degraded, not down)", err)
	}
}
