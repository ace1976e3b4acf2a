package asterixdb

import (
	"fmt"
	"strings"
	"testing"
)

// newJoinFilterInstance loads users 1..users and messages 1..messages, the
// message with id i written by user i%users + 1, plus the orphan message 0
// written by no user, whose x is the only string x.
func newJoinFilterInstance(t *testing.T, users, messages int) *Instance {
	t.Helper()
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	var b strings.Builder
	b.WriteString(`create type JU as open { id: int32 };
create type JM as open { id: int32 };
create dataset U(JU) primary key id;
create dataset M(JM) primary key id;
insert into dataset U ([`)
	for i := 1; i <= users; i++ {
		fmt.Fprintf(&b, `{"id": %d, "name": "u%d"}, `, i, i)
	}
	b.WriteString(`{"id": 999999, "name": "nobody's"}]);
insert into dataset M ([{"id": 0, "author": -1, "x": "not a number"}`)
	for i := 1; i <= messages; i++ {
		fmt.Fprintf(&b, `, {"id": %d, "author": %d, "x": %d}`, i, i%users+1, i)
	}
	b.WriteString("]);")
	if _, err := inst.Execute(b.String()); err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestJoinConjunctThatCanRaiseStaysAbove: the one message whose x is a string
// has no matching user, so the join discards it before `$m.x + 1 > 0` sees
// it. The conjunct can raise, so it must stay above the join, where it still
// never sees that message; pushed below, it would fail the query.
func TestJoinConjunctThatCanRaiseStaysAbove(t *testing.T) {
	inst := newJoinFilterInstance(t, 4, 8)
	const query = `for $u in dataset U for $m in dataset M
where $m.author = $u.id and $m.x + 1 > 0 return $m.id;`
	if _, err := inst.Query(`for $m in dataset M where $m.x + 1 > 0 return $m.id;`); err == nil {
		t.Fatal("the conjunct over every message must raise, or this test checks nothing")
	}
	vals, err := inst.Query(query)
	if err != nil {
		t.Fatalf("join with a raising conjunct: %v", err)
	}
	if len(vals) != 8 {
		t.Errorf("%d rows, want the 8 matched messages: %v", len(vals), vals)
	}
	explain, err := inst.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	plan := explain[:strings.Index(explain, "\n\n")]
	want := `datasource-scan U -> $u
datasource-scan M -> $m
join (hybrid-hash-join)
select (($m.x + 1) > 0)
distribute-result`
	if plan != want {
		t.Errorf("plan\n%s\nwant\n%s", plan, want)
	}
}

// TestProfileJoinBuildsFilteredSide: in the bench join's shape the author
// range is a select over the messages scan, so the join's build port gets
// the quarter of the messages in range, not all of them.
func TestProfileJoinBuildsFilteredSide(t *testing.T) {
	const users, messages = 40, 160
	inst := newJoinFilterInstance(t, users, messages)
	out, _, rows := profiledQuery(t, inst, fmt.Sprintf(`for $u in dataset U for $m in dataset M
where $m.author = $u.id and $m.author >= %d and $m.author < %d return { "u": $u.name, "m": $m.id };`, 11, 11+users/4))
	if rows != messages/4 {
		t.Fatalf("rows = %d, want %d", rows, messages/4)
	}
	if got := out["datasource-scan(M)"]; got != messages+1 {
		t.Errorf("messages scan out = %d, want %d (out=%v)", got, messages+1, out)
	}
	for _, op := range []string{"select", "assign(build-key)"} {
		if got := out[op]; got != messages/4 {
			t.Errorf("%s out = %d, want |M|/4 = %d (out=%v)", op, got, messages/4, out)
		}
	}
}
