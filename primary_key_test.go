package asterixdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
)

// keyDatasets are the datasets of TestPrimaryKeyEqualsScan: one per declared
// key type, plus an open type whose key field is undeclared. Each inserts keys
// written as literals narrower than declared where the type allows (Validate
// accepts them and the record keeps the width it was written at). A key is
// written from the number's value, not its width, so a later insert of an
// equal number replaces the record stored before it.
var keyDatasets = []struct {
	name, typ string // typ "" is the open type
	keys      []string
}{
	{"int8", "int8", []string{`int8("5")`, `int8("6")`, `int8("0")`}},
	{"int16", "int16", []string{`int8("5")`, `int16("5")`, `int16("300")`}},
	{"int32", "int32", []string{`int8("5")`, `int16("5")`, `5`, `0`}},
	{"int64", "int64", []string{`int8("5")`, `5`, `int64("5")`, `0`, `9007199254740993`}},
	{"float", "float", []string{`int8("5")`, `5`, `float("5")`, `float("6.5")`, `float("0")`, `9007199254740993`}},
	{"double", "double", []string{`5`, `int64("5")`, `6.5`, `0.0`, `9007199254740993`}},
	{"string", "string", []string{`"5"`, `"6"`}},
	{"open", "", []string{`int8("5")`, `5`, `int64("5")`, `5.0`, `"5"`, `0.0`, `6.5`, `9007199254740993`}},
}

// keyProbes are the right-hand sides of the key equalities: every numeric
// width, an int64 sum, a string, both unknowns, a fraction, 2^53 (which an
// int64 2^53+1 does not equal, though both round to one float64) and a
// negative zero (which equals the stored 0.0).
var keyProbes = []string{`5`, `5.0`, `int64("5")`, `int8("5")`, `float("5")`, `"5"`, `null`, `missing`,
	`6.5`, `5 + 0`, `9007199254740992`, `-0.0`}

// createKeyDataset creates dataset name keyed on id of the given declared
// type ("" for an open type without the field) and inserts one record per key
// literal.
func createKeyDataset(t testing.TB, inst *Instance, name, typ string, keys []string) {
	t.Helper()
	ddl := fmt.Sprintf(`create type %sType as open { n: int32 }`, name)
	if typ != "" {
		ddl = fmt.Sprintf(`create type %sType as closed { id: %s, n: int32 }`, name, typ)
	}
	recs := make([]string, len(keys))
	for i, k := range keys {
		recs[i] = fmt.Sprintf(`{"id": %s, "n": %d}`, k, i)
	}
	stmt := fmt.Sprintf("%s\ncreate dataset %s(%sType) primary key id;\ninsert into dataset %s ([%s]);",
		ddl, name, name, name, strings.Join(recs, ", "))
	if _, err := inst.Execute(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
}

// checkKeyProbe asserts that the key equality query runs as the primary
// search with the select directly above it and returns what the scan returns,
// and returns the scan's rows.
func checkKeyProbe(t *testing.T, inst *Instance, dataset, query string) []adm.Value {
	t.Helper()
	plan, err := inst.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.SplitN(plan, "\n", 3); len(lines) < 2 || lines[0] != "btree-search (primary "+dataset+")" ||
		!strings.HasPrefix(lines[1], "select ") {
		t.Fatalf("the plan does not start with the primary search:\n%s", plan)
	}
	indexed, err := inst.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := inst.QueryWithOptions(query, algebra.Options{DisableIndexAccess: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "indexed vs scanned", indexed, scanned, false)
	return scanned
}

// TestPrimaryKeyEqualsScan: a key equality answered by the primary index
// returns the rows a scan returns, and the rows the interpreter oracle
// returns, for every declared key type against every probe width. `=` matches
// numbers by value and a number has one key whatever its width, so the probe
// is one get.
func TestPrimaryKeyEqualsScan(t *testing.T) {
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	for _, kd := range keyDatasets {
		createKeyDataset(t, inst, "K"+kd.name, kd.typ, kd.keys)
	}
	// The scan's row counts for some rows, so the table cannot pass by
	// returning nothing on both sides: each equal key inserted replaced the
	// record before it, and 2^53 matches no stored 2^53+1.
	wantRows := map[string]int{
		"int32/5 + 0": 1, "int64/5": 1, "int64/9007199254740992": 0, "double/-0.0": 1,
		"float/int64(\"5\")": 1, "open/5": 1, "open/\"5\"": 1, "int16/5.0": 1,
	}
	for _, kd := range keyDatasets {
		for _, probe := range keyProbes {
			name := kd.name + "/" + probe
			t.Run(name, func(t *testing.T) {
				query := fmt.Sprintf(`for $d in dataset K%s where $d.id = %s return $d;`, kd.name, probe)
				scanned := checkKeyProbe(t, inst, "K"+kd.name, query)
				oracle, err := inst.interpret(query, algebra.Options{})
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, "scanned vs oracle", scanned, oracle, false)
				if want, ok := wantRows[name]; ok && len(scanned) != want {
					t.Errorf("the scan returns %d rows, want %d", len(scanned), want)
				}
			})
		}
	}
	// A delete by key runs the same access path and removes the one record
	// the number's key holds.
	res, err := inst.Execute(`delete $d from dataset Kopen where $d.id = int64("5");`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Errorf("delete by key removed %d records, want 1", res.Count)
	}
	if left, err := inst.QueryWithOptions(`for $d in dataset Kopen where $d.id = 5 return $d;`,
		algebra.Options{DisableIndexAccess: true}); err != nil || len(left) != 0 {
		t.Errorf("after the delete the scan finds %d records (%v)", len(left), err)
	}
}

// TestIndexServedRecordsAreViews: a record a primary-key equality or a
// secondary range fetches is the zero-copy view a scan yields, and a whole
// *adm.Record when records decode eagerly; both write the same NDJSON bytes.
func TestIndexServedRecordsAreViews(t *testing.T) {
	const ddl = `create type MT as closed { id: int32, k: int32, at: datetime, text: string, tags: {{ string }} }
create dataset M(MT) primary key id;
create index mK on M(k) type btree;
insert into dataset M ([
  {"id": 1, "k": 10, "at": datetime("1969-12-31T23:59:59.999"), "text": "<a> & \"b\"\n", "tags": {{ "x" }}},
  {"id": 2, "k": 20, "at": datetime("2014-02-20T08:00:00.000"), "text": "` + "h\u00e9llo \u2028" + `", "tags": {{ }}},
  {"id": 3, "k": 30, "at": datetime("0001-01-01T00:00:00.000"), "text": "", "tags": {{ "y", "z" }}}]);`
	ndjson := func(t *testing.T, eager bool, plan, query string) string {
		t.Helper()
		inst, err := open(Config{DataDir: t.TempDir(), Partitions: 3}, variant{eagerDecode: eager})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		if _, err := inst.Execute(ddl); err != nil {
			t.Fatal(err)
		}
		if got, err := inst.Explain(query); err != nil || !strings.Contains(got, plan) {
			t.Fatalf("the plan does not run %q (%v):\n%s", plan, err, got)
		}
		rows, err := inst.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, len(rows))
		for i, v := range rows {
			switch v.(type) {
			case *adm.LazyRecord:
				if eager {
					t.Errorf("row %d is a lazy view under eager decode", i)
				}
			case *adm.Record:
				if !eager {
					t.Errorf("row %d is a decoded *adm.Record, want the lazy view", i)
				}
			default:
				t.Errorf("row %d is %T", i, v)
			}
			lines[i] = string(adm.AppendJSON(nil, v))
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	for _, q := range []struct {
		name, plan, query string
		rows              int
	}{
		{"pk", "btree-search (primary M)", `for $m in dataset M where $m.id = 2 return $m;`, 1},
		{"range", "btree-search (secondary mK on M)", `for $m in dataset M where $m.k >= 10 return $m;`, 3},
	} {
		t.Run(q.name, func(t *testing.T) {
			lazy, eager := ndjson(t, false, q.plan, q.query), ndjson(t, true, q.plan, q.query)
			if lazy != eager {
				t.Errorf("NDJSON differs:\nlazy:\n%s\neager:\n%s", lazy, eager)
			}
			if got := strings.Count(lazy, "\n") + 1; got != q.rows {
				t.Errorf("%d rows, want %d:\n%s", got, q.rows, lazy)
			}
		})
	}
}

// keyWidths are the constructors a key or probe literal is written with, from
// narrowest to widest; a declared type accepts its own width and the ones
// before it.
var keyWidths = []string{"int8", "int16", "int32", "int64", "float", "double"}

// keyNumbers are the numbers keys and probes are drawn from: both zeros,
// integer width edges, 2^31, the neighbours of 2^53 (where int64 values start
// sharing a float64) and fractions.
var keyNumbers = []string{"0", "-0", "1", "5", "-5", "127", "128", "-129", "40000", "2147483648",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "6.5", "0.1"}

// randomKeyLiteral writes a random number from keyNumbers at a random width
// among the first `widths` of keyWidths that can hold it.
func randomKeyLiteral(rng *rand.Rand, widths int) string {
	for {
		w, n := keyWidths[rng.Intn(widths)], keyNumbers[rng.Intn(len(keyNumbers))]
		if _, err := adm.Construct(w, n); err == nil {
			return fmt.Sprintf(`%s("%s")`, w, n)
		}
	}
}

// FuzzPrimaryKeyProbe: whatever the declared key type, the widths the keys
// were written at and the width of the probe, a key equality answered by the
// primary index returns what the scan returns. Run with
//
//	go test -run='^$' -fuzz=FuzzPrimaryKeyProbe -fuzztime=15s -fuzzminimizetime=1s .
func FuzzPrimaryKeyProbe(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 4} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Close()
		declared := 1 + rng.Intn(len(keyWidths)+1) // one past the widths: an open type
		typ := ""
		if declared <= len(keyWidths) {
			typ = keyWidths[declared-1]
		}
		keys := make([]string, 12)
		for i := range keys {
			keys[i] = randomKeyLiteral(rng, min(declared, len(keyWidths)))
		}
		createKeyDataset(t, inst, "P", typ, keys[:6])
		ds, _ := inst.Dataset("P")
		if err := ds.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys[6:] {
			if _, err := inst.Execute(fmt.Sprintf(`insert into dataset P ({"id": %s, "n": %d});`, k, 6+i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			probe := randomKeyLiteral(rng, len(keyWidths))
			if rng.Intn(3) == 0 {
				probe += " + 0"
			}
			t.Logf("type %q, keys %v, probe %s", typ, keys, probe)
			checkKeyProbe(t, inst, "P", fmt.Sprintf(`for $d in dataset P where $d.id = %s return $d;`, probe))
		}
	})
}
