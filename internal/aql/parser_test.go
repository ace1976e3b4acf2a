package aql

import (
	"strings"
	"testing"

	"asterixdb/internal/adm"
)

func parseOne(t *testing.T, src string) Statement {
	t.Helper()
	stmts, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if len(stmts) != 1 {
		t.Fatalf("Parse(%q) returned %d statements", src, len(stmts))
	}
	return stmts[0]
}

func TestParseDataDefinition1(t *testing.T) {
	// Data definition 1 from the paper: dataverse + three types.
	src := `
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
`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(stmts) != 6 {
		t.Fatalf("got %d statements, want 6", len(stmts))
	}
	if d, ok := stmts[0].(*DropDataverse); !ok || !d.IfExists || d.Name != "TinySocial" {
		t.Errorf("stmt 0 = %#v", stmts[0])
	}
	if _, ok := stmts[1].(*CreateDataverse); !ok {
		t.Errorf("stmt 1 = %#v", stmts[1])
	}
	if u, ok := stmts[2].(*DataverseDecl); !ok || u.Name != "TinySocial" {
		t.Errorf("stmt 2 = %#v", stmts[2])
	}
	emp := stmts[3].(*CreateType)
	if emp.Name != "EmploymentType" || !emp.Definition.Open || len(emp.Definition.Fields) != 3 {
		t.Errorf("EmploymentType = %#v", emp)
	}
	if !emp.Definition.Fields[2].Optional {
		t.Error("end-date should be optional")
	}
	user := stmts[4].(*CreateType)
	if !user.Definition.Open {
		t.Error("MugshotUserType should default to open")
	}
	addr := user.Definition.Fields[4]
	if addr.Name != "address" || addr.Type.Record == nil || len(addr.Type.Record.Fields) != 5 {
		t.Errorf("address field = %#v", addr)
	}
	friends := user.Definition.Fields[5]
	if friends.Type.UnorderedItem == nil || friends.Type.UnorderedItem.Name != "int32" {
		t.Errorf("friend-ids field = %#v", friends)
	}
	employment := user.Definition.Fields[6]
	if employment.Type.OrderedItem == nil || employment.Type.OrderedItem.Name != "EmploymentType" {
		t.Errorf("employment field = %#v", employment)
	}
	msg := stmts[5].(*CreateType)
	if msg.Definition.Open {
		t.Error("MugshotMessageType should be closed")
	}
}

func TestParseDataDefinition2(t *testing.T) {
	src := `
create dataset MugshotUsers(MugshotUserType) primary key id;
create dataset MugshotMessages(MugshotMessageType) primary key message-id;
create index msUserSinceIdx on MugshotUsers(user-since);
create index msTimestampIdx on MugshotMessages(timestamp);
create index msAuthorIdx on MugshotMessages(author-id) type btree;
create index msSenderLocIndex on MugshotMessages(sender-location) type rtree;
create index msMessageIdx on MugshotMessages(message) type keyword;
`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(stmts) != 7 {
		t.Fatalf("got %d statements", len(stmts))
	}
	ds := stmts[0].(*CreateDataset)
	if ds.Name != "MugshotUsers" || ds.TypeName != "MugshotUserType" || len(ds.PrimaryKey) != 1 || ds.PrimaryKey[0] != "id" {
		t.Errorf("MugshotUsers = %#v", ds)
	}
	idx := stmts[2].(*CreateIndex)
	if idx.Kind != IndexBTree || idx.Fields[0] != "user-since" {
		t.Errorf("default index kind = %#v", idx)
	}
	if stmts[5].(*CreateIndex).Kind != IndexRTree {
		t.Error("rtree index kind not parsed")
	}
	if stmts[6].(*CreateIndex).Kind != IndexKeyword {
		t.Error("keyword index kind not parsed")
	}
}

func TestParseExternalDatasetAndFeed(t *testing.T) {
	src := `
create external dataset AccessLog(AccessLogType) using localfs
  (("path"="localhost:///tmp/log.csv"),
   ("format"="delimited-text"),
   ("delimiter"="|"));

create feed socket_feed using socket_adaptor
  (("sockets"="127.0.0.1:10001"),
   ("addressType"="IP"),
   ("type-name"="MugshotMessageType"),
   ("format"="adm"));

connect feed socket_feed to dataset MugshotMessages;
disconnect feed socket_feed from dataset MugshotMessages;
`
	stmts, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ext := stmts[0].(*CreateDataset)
	if !ext.External || ext.Adaptor != "localfs" || ext.Properties["delimiter"] != "|" {
		t.Errorf("external dataset = %#v", ext)
	}
	feed := stmts[1].(*CreateFeed)
	if feed.Adaptor != "socket_adaptor" || feed.Properties["format"] != "adm" {
		t.Errorf("feed = %#v", feed)
	}
	conn := stmts[2].(*ConnectFeed)
	if conn.Feed != "socket_feed" || conn.Dataset != "MugshotMessages" {
		t.Errorf("connect = %#v", conn)
	}
	if _, ok := stmts[3].(*DisconnectFeed); !ok {
		t.Errorf("disconnect = %#v", stmts[3])
	}
}

func TestParseQuery1MetadataScan(t *testing.T) {
	q := parseOne(t, `for $ds in dataset Metadata.Dataset return $ds;`).(*QueryStatement)
	fl := q.Body.(*FLWORExpr)
	forClause := fl.Clauses[0].(*ForClause)
	ds := forClause.Source.(*DatasetRef)
	if ds.Dataverse != "Metadata" || ds.Name != "Dataset" {
		t.Errorf("dataset ref = %#v", ds)
	}
	if _, ok := fl.Return.(*VariableRef); !ok {
		t.Errorf("return = %#v", fl.Return)
	}
}

func TestParseQuery2RangeScan(t *testing.T) {
	q := parseOne(t, `
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
  and $user.user-since <= datetime('2012-07-29T23:59:59')
return $user;`).(*QueryStatement)
	fl := q.Body.(*FLWORExpr)
	if len(fl.Clauses) != 2 {
		t.Fatalf("clauses = %d", len(fl.Clauses))
	}
	where := fl.Clauses[1].(*WhereClause)
	and := where.Cond.(*BinaryExpr)
	if and.Op != OpAnd {
		t.Errorf("top op = %v", and.Op)
	}
	ge := and.Left.(*BinaryExpr)
	if ge.Op != OpGe {
		t.Errorf("left op = %v", ge.Op)
	}
	// datetime('...') folds into a Datetime literal.
	lit, ok := ge.Right.(*Literal)
	if !ok || lit.Value.Tag() != adm.TagDatetime {
		t.Errorf("datetime literal = %#v", ge.Right)
	}
	fa := ge.Left.(*FieldAccess)
	if fa.Field != "user-since" {
		t.Errorf("field access = %#v", fa)
	}
}

func TestParseQuery3Equijoin(t *testing.T) {
	q := parseOne(t, `
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id = $user.id
  and $user.user-since >= datetime('2010-07-22T00:00:00')
return { "uname": $user.name, "message": $message.message };`).(*QueryStatement)
	fl := q.Body.(*FLWORExpr)
	if len(fl.Clauses) != 3 {
		t.Fatalf("clauses = %d", len(fl.Clauses))
	}
	rc := fl.Return.(*RecordConstructor)
	if len(rc.Fields) != 2 || rc.Fields[0].Name != "uname" {
		t.Errorf("record constructor = %#v", rc)
	}
}

func TestParseQuery4NestedOuterJoin(t *testing.T) {
	q := parseOne(t, `
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
return {
  "uname": $user.name,
  "messages":
    for $message in dataset MugshotMessages
    where $message.author-id = $user.id
    return $message.message
};`).(*QueryStatement)
	rc := q.Body.(*FLWORExpr).Return.(*RecordConstructor)
	if _, ok := rc.Fields[1].Value.(*FLWORExpr); !ok {
		t.Errorf("nested FLWOR not parsed: %#v", rc.Fields[1].Value)
	}
}

func TestParseQuery5SpatialJoin(t *testing.T) {
	q := parseOne(t, `
for $t in dataset MugshotMessages
return {
  "message": $t.message,
  "nearby-messages":
    for $t2 in dataset MugshotMessages
    where spatial-distance($t.sender-location, $t2.sender-location) <= 1
    return { "msgtxt": $t2.message }
};`).(*QueryStatement)
	nested := q.Body.(*FLWORExpr).Return.(*RecordConstructor).Fields[1].Value.(*FLWORExpr)
	cond := nested.Clauses[1].(*WhereClause).Cond.(*BinaryExpr)
	call := cond.Left.(*CallExpr)
	if call.Func != "spatial-distance" || len(call.Args) != 2 {
		t.Errorf("call = %#v", call)
	}
}

func TestParseQuery6FuzzySelection(t *testing.T) {
	stmts, err := Parse(`
set simfunction "edit-distance";
set simthreshold "3";
for $msu in dataset MugshotUsers
for $msm in dataset MugshotMessages
where $msu.id = $msm.author-id
  and (some $word in word-tokens($msm.message) satisfies $word ~= "tonight")
return { "name": $msu.name, "message": $msm.message };`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(stmts) != 3 {
		t.Fatalf("statements = %d", len(stmts))
	}
	set := stmts[0].(*SetStatement)
	if set.Name != "simfunction" || set.Value != "edit-distance" {
		t.Errorf("set = %#v", set)
	}
	fl := stmts[2].(*QueryStatement).Body.(*FLWORExpr)
	where := fl.Clauses[2].(*WhereClause).Cond.(*BinaryExpr)
	quant, ok := where.Right.(*QuantifiedExpr)
	if !ok || quant.Every {
		t.Fatalf("quantifier = %#v", where.Right)
	}
	fz := quant.Satisfies.(*BinaryExpr)
	if fz.Op != OpFuzzyEq {
		t.Errorf("fuzzy op = %v", fz.Op)
	}
}

func TestParseQuery7Existential(t *testing.T) {
	q := parseOne(t, `
for $msu in dataset MugshotUsers
where (some $e in $msu.employment satisfies is-null($e.end-date) and $e.job-kind = "part-time")
return $msu;`).(*QueryStatement)
	where := q.Body.(*FLWORExpr).Clauses[1].(*WhereClause)
	if _, ok := where.Cond.(*QuantifiedExpr); !ok {
		t.Errorf("cond = %#v", where.Cond)
	}
}

func TestParseQuery8And9FunctionDefinitionAndUse(t *testing.T) {
	stmts, err := Parse(`
create function unemployed() {
  for $msu in dataset MugshotUsers
  where (every $e in $msu.employment satisfies not(is-null($e.end-date)))
  return { "name": $msu.name, "address": $msu.address }
};

for $un in unemployed()
where $un.address.zip = "98765"
return $un;`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fn := stmts[0].(*CreateFunction)
	if fn.Name != "unemployed" || len(fn.Params) != 0 {
		t.Errorf("function = %#v", fn)
	}
	if _, ok := fn.Body.(*FLWORExpr); !ok {
		t.Errorf("function body = %#v", fn.Body)
	}
	use := stmts[1].(*QueryStatement).Body.(*FLWORExpr)
	call := use.Clauses[0].(*ForClause).Source.(*CallExpr)
	if call.Func != "unemployed" {
		t.Errorf("call = %#v", call)
	}
	// $un.address.zip is a chained field access.
	where := use.Clauses[1].(*WhereClause).Cond.(*BinaryExpr)
	fa := where.Left.(*FieldAccess)
	if fa.Field != "zip" || fa.Base.(*FieldAccess).Field != "address" {
		t.Errorf("chained field access = %#v", fa)
	}
}

func TestParseQuery10Aggregation(t *testing.T) {
	q := parseOne(t, `
avg(
  for $m in dataset MugshotMessages
  where $m.timestamp >= datetime("2014-01-01T00:00:00")
    and $m.timestamp < datetime("2014-04-01T00:00:00")
  return string-length($m.message)
)`).(*QueryStatement)
	call := q.Body.(*CallExpr)
	if call.Func != "avg" || len(call.Args) != 1 {
		t.Fatalf("call = %#v", call)
	}
	if _, ok := call.Args[0].(*FLWORExpr); !ok {
		t.Errorf("avg argument = %#v", call.Args[0])
	}
}

func TestParseQuery11GroupBy(t *testing.T) {
	q := parseOne(t, `
for $msg in dataset MugshotMessages
where $msg.timestamp >= datetime("2014-02-20T00:00:00")
  and $msg.timestamp < datetime("2014-02-21T00:00:00")
group by $aid := $msg.author-id with $msg
let $cnt := count($msg)
order by $cnt desc
limit 3
return { "author": $aid, "no messages": $cnt };`).(*QueryStatement)
	fl := q.Body.(*FLWORExpr)
	var haveGroup, haveOrder, haveLimit, haveLet bool
	for _, c := range fl.Clauses {
		switch x := c.(type) {
		case *GroupByClause:
			haveGroup = true
			if x.Keys[0].Var != "aid" || x.With[0] != "msg" {
				t.Errorf("group by = %#v", x)
			}
		case *OrderByClause:
			haveOrder = true
			if !x.Terms[0].Desc {
				t.Error("order by should be desc")
			}
		case *LimitClause:
			haveLimit = true
		case *LetClause:
			haveLet = true
		}
	}
	if !haveGroup || !haveOrder || !haveLimit || !haveLet {
		t.Errorf("missing clauses: group=%v order=%v limit=%v let=%v", haveGroup, haveOrder, haveLimit, haveLet)
	}
}

func TestParseQuery12ActiveUsers(t *testing.T) {
	q := parseOne(t, `
let $end := current-datetime()
let $start := $end - duration("P30D")
for $user in dataset MugshotUsers
where some $logrecord in dataset AccessLog satisfies $user.alias = $logrecord.user
  and datetime($logrecord.time) >= $start
  and datetime($logrecord.time) <= $end
group by $country := $user.address.country with $user
return { "country": $country, "active users": count($user) }`).(*QueryStatement)
	fl := q.Body.(*FLWORExpr)
	let1 := fl.Clauses[0].(*LetClause)
	if let1.Var != "end" {
		t.Errorf("first let = %#v", let1)
	}
	let2 := fl.Clauses[1].(*LetClause)
	sub := let2.Expr.(*BinaryExpr)
	if sub.Op != OpSub {
		t.Errorf("datetime arithmetic = %#v", sub)
	}
}

func TestParseQuery13FuzzyJoin(t *testing.T) {
	stmts, err := Parse(`
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
		t.Fatalf("Parse: %v", err)
	}
	fl := stmts[2].(*QueryStatement).Body.(*FLWORExpr)
	let := fl.Clauses[1].(*LetClause)
	if _, ok := let.Expr.(*FLWORExpr); !ok {
		t.Errorf("let expression = %#v", let.Expr)
	}
}

func TestParseQuery14IndexHint(t *testing.T) {
	q := parseOne(t, `
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id /*+ indexnl */ = $user.id
return { "uname": $user.name, "message": $message.message };`).(*QueryStatement)
	where := q.Body.(*FLWORExpr).Clauses[2].(*WhereClause)
	be := where.Cond.(*BinaryExpr)
	if be.Hint != "indexnl" {
		t.Errorf("hint = %q", be.Hint)
	}
}

func TestParseUpdates(t *testing.T) {
	stmts, err := Parse(`
insert into dataset MugshotUsers
(
  {
    "id": 11,
    "alias": "John",
    "name": "JohnDoe",
    "address": { "street": "789 Jane St", "city": "San Harry", "zip": "98767", "state": "CA", "country": "USA" },
    "user-since": datetime("2010-08-15T08:10:00"),
    "friend-ids": {{ 5, 9, 11 }},
    "employment": [ { "organization-name": "Kongreen", "start-date": date("2012-06-05") } ]
  }
);

delete $user from dataset MugshotUsers where $user.id = 11;
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ins := stmts[0].(*InsertStatement)
	if ins.Dataset != "MugshotUsers" {
		t.Errorf("insert dataset = %q", ins.Dataset)
	}
	// A body adm reads whole is one value, not a constructor.
	rec := ins.Body.(*Literal).Value.(*adm.Record)
	if len(rec.Fields) != 7 {
		t.Errorf("insert record has %d fields", len(rec.Fields))
	}
	del := stmts[1].(*DeleteStatement)
	if del.Var != "user" || del.Dataset != "MugshotUsers" || del.Where == nil {
		t.Errorf("delete = %#v", del)
	}
}

func TestParseArithmeticExpression(t *testing.T) {
	// "1+1 is a valid AQL query that evaluates to 2."
	q := parseOne(t, `1 + 1`).(*QueryStatement)
	be := q.Body.(*BinaryExpr)
	if be.Op != OpAdd {
		t.Errorf("op = %v", be.Op)
	}
	// Precedence: 1 + 2 * 3 parses as 1 + (2 * 3).
	q = parseOne(t, `1 + 2 * 3`).(*QueryStatement)
	be = q.Body.(*BinaryExpr)
	if be.Op != OpAdd {
		t.Fatalf("top op = %v", be.Op)
	}
	if be.Right.(*BinaryExpr).Op != OpMul {
		t.Error("multiplication should bind tighter than addition")
	}
}

func TestParseLoadStatement(t *testing.T) {
	stmt := parseOne(t, `load dataset MugshotUsers using localfs (("path"="/tmp/users.adm"),("format"="adm"));`)
	load := stmt.(*LoadStatement)
	if load.Dataset != "MugshotUsers" || load.Adaptor != "localfs" || load.Properties["format"] != "adm" {
		t.Errorf("load = %#v", load)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`for`,
		`for $x in`,
		`for $x in dataset D`,
		`create type T`,
		`create dataset D`,
		`create index I on`,
		`insert into dataset`,
		`{ "a" 1 }`,
		`for $x in dataset D return`,
		`where $x.y = 1`,
		`$x ~`,
		`for $x in dataset D return $x extra`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	// A group key that is also a with variable would name two values after
	// the clause.
	src := `for $x in [1, 2, 1] group by $x := $x with $x return $x`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "$x is both a group key and a with variable") {
		t.Errorf("Parse(%q) = %v, want the clash on $x refused", src, err)
	}
}

func TestStatementStrings(t *testing.T) {
	stmts, err := Parse(`
use dataverse TinySocial;
create dataset D(T) primary key id;
create index i on D(f) type rtree;
for $x in dataset D where $x.f > 1 order by $x.f limit 2 return { "v": $x.f };
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		if s.String() == "" {
			t.Errorf("%T has empty String()", s)
		}
	}
	q := stmts[3].(*QueryStatement).String()
	for _, want := range []string{"for $x", "where", "order by", "limit 2", "return"} {
		if !strings.Contains(q, want) {
			t.Errorf("query string %q missing %q", q, want)
		}
	}
}

func TestParseQueryHelper(t *testing.T) {
	e, err := ParseQuery(`for $x in dataset D return $x`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*FLWORExpr); !ok {
		t.Errorf("ParseQuery returned %#v", e)
	}
	if _, err := ParseQuery(`create dataverse X`); err == nil {
		t.Error("ParseQuery should reject DDL")
	}
	if _, err := ParseQuery(`1; 2`); err == nil {
		t.Error("ParseQuery should reject multiple statements")
	}
}
