package asterixdb

import (
	"sort"
	"strings"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
)

// numberKeysDDL stores numbers at widths other than the ones declared: an
// int64 and a double field under B+-tree indexes, an int32 key inserted three
// times at three widths, and an int32 key joined against an int64 key and an
// int64 indexed field.
const numberKeysDDL = `
create type AT as closed { id: int32, f: int64, g: double }
create dataset A(AT) primary key id;
create index aF on A(f) type btree;
create index aG on A(g) type btree;
insert into dataset A ([{"id": 1, "f": 1, "g": 1.0}, {"id": 2, "f": int64("5"), "g": int8("2")},
  {"id": 3, "f": int64("6"), "g": 7.5}, {"id": 4, "f": 7, "g": float("8")}]);
create type CT as closed { id: int32, n: int32 }
create dataset C(CT) primary key id;
insert into dataset C ([{"id": 5, "n": 1}, {"id": int8("5"), "n": 2}, {"id": int16("5"), "n": 3}, {"id": 6, "n": 4}]);
create type XT as closed { id: int32 }
create type YT as closed { id: int64, ref: int64 }
create dataset X(XT) primary key id;
create dataset Y(YT) primary key id;
create index yRef on Y(ref) type btree;
insert into dataset X ([{"id": 5}, {"id": 6}]);
insert into dataset Y ([{"id": int64("5"), "ref": int64("6")}, {"id": int64("7"), "ref": int64("5")}]);
`

// TestNumberKeysAgreeWithEquals: wherever a number's key decides a result —
// a secondary B+-tree range or equality, the one record a primary key holds, a
// hash or indexnl join, a group — the numbers `=` finds equal share a key
// whatever their widths, and numbers it tells apart do not (2^53 and 2^53+1
// round to one float64 but compare unequal).
func TestNumberKeysAgreeWithEquals(t *testing.T) {
	checkKeyRows(t, numberKeysDDL, []keyRow{
		{"int64 index range", `for $d in dataset A where $d.f >= 4 return $d.id;`, "btree-search (secondary aF on A)", "2 3 4"},
		{"int64 index equality", `for $d in dataset A where $d.f = int64("7") return $d.id;`, "btree-search (secondary aF on A)", "4"},
		{"int64 index equality by a double", `for $d in dataset A where $d.f = 5.0 return $d.id;`, "btree-search (secondary aF on A)", "2"},
		{"double index range", `for $d in dataset A where $d.g < 5 return $d.id;`, "btree-search (secondary aG on A)", "1 2"},
		{"double index equality by an int8", `for $d in dataset A where $d.g = int8("8") return $d.id;`, "btree-search (secondary aG on A)", "4"},
		{"int32 key holds one record", `for $d in dataset C where $d.id = 5 return $d.n;`, "btree-search (primary C)", "3"},
		{"int32 key record count", `count(for $d in dataset C return $d)`, "", "2i64"},
		{"int32 vs int64 hash join", `for $x in dataset X for $y in dataset Y where $x.id = $y.id return $y.ref;`,
			"join (hybrid-hash-join)", "6i64"},
		{"int32 vs int64 indexnl primary key", `for $x in dataset X for $y in dataset Y where $x.id /*+ indexnl */ = $y.id return $y.ref;`,
			"btree-search (primary Y)", "6i64"},
		{"int32 vs int64 indexnl secondary", `for $x in dataset X for $y in dataset Y where $x.id /*+ indexnl */ = $y.ref return $y.id;`,
			"btree-search (secondary yRef on Y)", "5i64 7i64"},
		{"group by across widths", `for $x in [5, int64("5"), int8("5"), 6.0, int16("6")] group by $k := $x with $x return count($x);`,
			"", "2i64 3i64"},
		{"2^53+1 = 2^53", `int64("9007199254740993") = int64("9007199254740992")`, "", "false"},
		{"2^53+1 > 2^53 as a double", `int64("9007199254740993") > 9007199254740992.0`, "", "true"},
		{"2^53+1 selected by 2^53", `for $x in [int64("9007199254740993")] where $x = int64("9007199254740992") return $x;`, "", ""},
	})
}

// keysDDL stores values of every other kind a key decides for: durations,
// lists and points under B+-tree indexes, and lists and records written with
// other widths and field orders in P and Q.
const keysDDL = `
create type PT as open { id: int32 }
create dataset P(PT) primary key id;
create index pD on P(d) type btree;
create index pL on P(l) type btree;
create index pP on P(p) type btree;
insert into dataset P ([
  {"id": 1, "d": duration("PT3H"), "l": [1, 2], "p": point("-1.0,5.0"), "r": {"a": 1, "b": 2} },
  {"id": 2, "d": duration("PT1H"), "l": [2], "p": point("0.0,1.0"), "r": {"a": 1, "b": int8("2")} },
  {"id": 3, "d": duration("P1M"), "l": [1, 2, 3], "p": point("-0.0,-1.0"), "r": {"a": 2} },
  {"id": 4, "d": duration("-PT5M"), "l": [], "p": point("2.0,0.0"), "r": {"b": 2} }]);
create type QT as open { id: int32 }
create dataset Q(QT) primary key id;
insert into dataset Q ([{"id": 1, "l": [int64("1"), int8("2")], "r": {"b": 2, "a": 1} }]);
`

// TestKeysAgreeWithEquals: every kind has one key per `=` class, so a
// group-by, a hash join and a B+-tree index over records, lists, bags,
// durations and points agree with `=`, and values of different kinds inside a
// composite order by kind.
func TestKeysAgreeWithEquals(t *testing.T) {
	groups := func(pair string) string {
		return `for $x in [` + pair + `] group by $k := $x with $x return count($x);`
	}
	checkKeyRows(t, keysDDL, []keyRow{
		{"group by a record's field order", groups(`{"a": 1, "b": 2}, {"b": 2, "a": 1}`), "", "2i64"},
		{"group by a bag's item order", groups(`{{1, 2}}, {{2, 1}}`), "", "2i64"},
		{"group by a point at -0.0", groups(`point("0.0,1.0"), point("-0.0,1.0")`), "", "2i64"},
		{"group by P1M and P30D", groups(`duration("P1M"), duration("P30D")`), "", "2i64"},
		{"group by a list's item width", groups(`[1], [int64("1")]`), "", "2i64"},
		{"list hash join across widths", `for $p in dataset P for $q in dataset Q where $p.l = $q.l return $q.id;`,
			"join (hybrid-hash-join)", "1"},
		{"record hash join across field orders", `for $p in dataset P for $q in dataset Q where $p.r = $q.r return $p.id;`,
			"join (hybrid-hash-join)", "1 2"},
		{"duration index range", `for $p in dataset P where $p.d < duration("PT2H") return $p.id;`,
			"btree-search (secondary pD on P)", "2 4"},
		{"list index equality across widths", `for $p in dataset P where $p.l = [1, int8("2")] return $p.id;`,
			"btree-search (secondary pL on P)", "1"},
		{"point index range", `for $d in dataset P where $d.p < point("0.0,0.0") return $d.id;`,
			"btree-search (secondary pP on P)", "1 3"},
		{"kinds inside a list order by kind", `[1] < ["a"]`, "", "true"},
		{"kinds at the top level do not compare", `1 = "a"`, "", "null"},
	})
}

type keyRow struct {
	name, query, plan, want string
}

// checkKeyRows runs each row on 3 partitions after ddl: the plan runs the
// operator the row names, and it, the scan (DisableIndexAccess) and the
// interpreter oracle all return the pinned rows.
func checkKeyRows(t *testing.T, ddl string, rows []keyRow) {
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Execute(ddl); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.plan != "" {
				plan, err := inst.Explain(row.query)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan, row.plan) {
					t.Fatalf("the plan does not run %q:\n%s", row.plan, plan)
				}
			}
			indexed, err := inst.Query(row.query)
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := inst.QueryWithOptions(row.query, algebra.Options{DisableIndexAccess: true})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := inst.interpret(row.query, algebra.Options{DisableIndexAccess: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, side := range []struct {
				name string
				rows []adm.Value
			}{{"indexed", indexed}, {"scanned", scanned}, {"oracle", oracle}} {
				if got := printedRows(side.rows); got != row.want {
					t.Errorf("%s rows %q, want %q", side.name, got, row.want)
				}
			}
		})
	}
}

// printedRows prints values in sorted order, space-separated.
func printedRows(vals []adm.Value) string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}
