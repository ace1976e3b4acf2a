package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// smokeScale is 1/20 of the benchmark's data.
var smokeScale = scale{Users: 100, Messages: 1000}

var allClasses = []string{classPK, classRange, classSpatial, classText,
	classFilter, classGroupBy, classJoin, classTopK, classInsert}

func statements(seed int64, client, perClass int) []string {
	st := newData(seed, smokeScale).newStream(client, 2)
	var out []string
	for i := 0; i < perClass; i++ {
		for _, c := range allClasses {
			out = append(out, st.next(c).text)
		}
	}
	return out
}

func TestSameSeedGivesTheSameStatementStream(t *testing.T) {
	a, b := statements(7, 0, 20), statements(7, 0, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two streams of seed 7 differ")
	}
	if reflect.DeepEqual(a, statements(8, 0, 20)) {
		t.Fatal("seeds 7 and 8 give the same statements")
	}
	if reflect.DeepEqual(a, statements(7, 1, 20)) {
		t.Fatal("clients 0 and 1 of one seed give the same statements")
	}
	for i := 1; i < len(a); i++ {
		if a[i] == a[i-1] {
			t.Fatalf("statements %d and %d are byte-identical: %s", i-1, i, a[i])
		}
	}
	da, db := newData(7, smokeScale), newData(7, smokeScale)
	if !reflect.DeepEqual(da.preload(true), db.preload(true)) {
		t.Fatal("two preloads of seed 7 differ")
	}
}

func TestEveryClassHoldsItsSelectivity(t *testing.T) {
	for _, sc := range []scale{smokeScale, fullScale} {
		d := newData(3, sc)
		st := d.newStream(0, 1)
		n, users := sc.Messages, sc.Users
		for i := 0; i < 200; i++ {
			for _, c := range allClasses {
				s := st.next(c)
				lo, hi := 0, 0
				switch c {
				case classPK:
					lo, hi = 1, 1
				case classRange:
					lo, hi = rangeRows, rangeRows
				case classSpatial:
					lo, hi = spatialRows-spatialSlack, spatialRows+spatialSlack
				case classText:
					lo, hi = rowsPerToken, rowsPerToken
				case classFilter:
					lo, hi = n/users, n/users
				case classGroupBy:
					lo, hi = users, users
					if s.want.sum < int64(n)*99/100 || s.want.sum > int64(n) {
						t.Fatalf("%+v: group-by counts %d of %d messages", sc, s.want.sum, n)
					}
				case classJoin:
					lo, hi = n/joinFraction, n/joinFraction
				case classTopK:
					lo, hi = topKRows, topKRows
					if len(s.want.ids) != topKRows {
						t.Fatalf("%+v: topk oracle has %d ids", sc, len(s.want.ids))
					}
				case classInsert:
					lo, hi = insertBatch, insertBatch
				}
				if s.want.rows < lo || s.want.rows > hi || s.want.rows < 1 {
					t.Fatalf("%+v: %s statement %d expects %d rows, want %d..%d: %s", sc, c, i, s.want.rows, lo, hi, s.text)
				}
			}
		}
	}
}

func TestClientsNeverInsertTheSameKey(t *testing.T) {
	d := newData(5, smokeScale)
	seen := map[string]bool{}
	for client := 0; client < 2; client++ {
		st := d.newStream(client, 2)
		for i := 0; i < 300; i++ {
			for _, lit := range strings.Split(st.next(classInsert).text, "\n") {
				key := lit[strings.Index(lit, `"message-id": `):strings.Index(lit, `, "author-id"`)]
				if seen[key] {
					t.Fatalf("client %d reuses %s", client, key)
				}
				seen[key] = true
			}
		}
	}
	if len(seen) != 2*300*insertBatch {
		t.Fatalf("%d distinct keys, want %d", len(seen), 2*300*insertBatch)
	}
}

func TestCheckRowsReportsEveryKindOfMismatch(t *testing.T) {
	want := expect{rows: 2, sum: 30, ids: []int32{10, 20}}
	for name, tc := range map[string]struct {
		class, body string
		ok          bool
	}{
		"exact":        {classTopK, "10\n20\n", true},
		"wrong order":  {classTopK, "20\n10\n", false},
		"missing row":  {classTopK, "10\n", false},
		"extra row":    {classTopK, "10\n20\n0\n", false},
		"error row":    {classTopK, "10\n{\"error\":{\"code\":\"internal\"}}\n", false},
		"field sum":    {classJoin, "{\"u\":\"a\",\"m\":10}\n{\"u\":\"b\",\"m\":20}\n", true},
		"field absent": {classJoin, "{\"u\":\"a\"}\n{\"u\":\"b\",\"m\":30}\n", false},
		"wrong sum":    {classJoin, "{\"u\":\"a\",\"m\":10}\n{\"u\":\"b\",\"m\":21}\n", false},
	} {
		w := want
		if tc.class != classTopK {
			w.ids = nil
		}
		if err := checkRows(tc.class, []byte(tc.body), w); (err == nil) != tc.ok {
			t.Errorf("%s: checkRows = %v, want ok=%v", name, err, tc.ok)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatchesTheCatalogue keeps BENCHMARK.json, which the driver
// reads, and the catalogue the program prints from, the same list.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		whys = append(whys, w.Why)
	}
	var wantNames, wantWhys []string
	for _, w := range workloads {
		wantNames = append(wantNames, w.name)
		wantWhys = append(wantWhys, w.why)
	}
	if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(whys, wantWhys) {
		t.Errorf("workloads differ:\n json %q %q\n code %q %q", names, whys, wantNames, wantWhys)
	}
	compare := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s[%d]: json %+v, catalogue %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEndDefs)
	compare("per_layer", file.PerLayer, perLayerDefs)
}
