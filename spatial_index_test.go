package asterixdb

import (
	"fmt"
	"strings"
	"testing"

	"asterixdb/internal/algebra"
)

// TestSpatialIndexEqualsScan: an indexed spatial-intersect query returns the
// rows a scan returns, for the coordinates a float can hold and an R-tree's
// bounding boxes historically could not: a NaN (which compares false with
// everything, so an MBR unioned with it stopped intersecting anything and
// hid the records beside it), the two zeros, the infinities, and probes
// across the sign boundary or of zero area.
func TestSpatialIndexEqualsScan(t *testing.T) {
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	mustExec := func(stmt string) {
		t.Helper()
		if _, err := inst.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	mustExec(`
create type PlaceType as closed { id: int32, loc: point }
create dataset Places(PlaceType) primary key id;
create index placeLoc on Places(loc) type rtree;`)
	var recs []string
	for i := 0; i < 200; i++ {
		recs = append(recs, fmt.Sprintf(`{"id": %d, "loc": create-point(%d.5, %d.25)}`, i, (i%20)*5, (i/20)*10))
	}
	mustExec(`insert into dataset Places ([` + strings.Join(recs, ",") + `]);`)
	for i, loc := range []string{
		`create-point(1.0e308*10.0 - 1.0e308*10.0, 75.0)`, `point("NaN,75.0")`,
		`create-point(-0.0, 3.0)`, `create-point(3.0, -0.0)`,
		`point("Inf,5.0")`, `point("-Inf,5.0")`, `point("7.0,Inf")`,
		`create-point(-7.5, -7.5)`, `create-point(-7.5, 7.5)`, `create-point(40.5, 30.25)`,
	} {
		mustExec(fmt.Sprintf(`insert into dataset Places ({"id": %d, "loc": %s});`, 1000+i, loc))
	}

	for _, tc := range []struct {
		name, probe string
		rows        int
	}{
		{"everything finite", `create-rectangle(create-point(-1000.0, -1000.0), create-point(1000.0, 1000.0))`, 205},
		{"beside the NaN", `create-rectangle(create-point(0.0, 60.0), create-point(100.0, 80.0))`, 40},
		{"corner at 0.0 finds -0.0", `create-rectangle(create-point(0.0, 0.0), create-point(4.0, 4.0))`, 3},
		{"corner at -0.0 finds 0.0", `create-rectangle(create-point(-4.0, -4.0), create-point(-0.0, 4.0))`, 1},
		{"out to +Inf", `create-rectangle(create-point(90.0, 0.0), point("Inf,6.0"))`, 3},
		{"out to -Inf", `create-rectangle(point("-Inf,-Inf"), create-point(-1.0, 6.0))`, 2},
		{"up to +Inf", `create-rectangle(create-point(6.0, 95.0), point("8.0,Inf"))`, 1},
		{"across the origin", `create-rectangle(create-point(-10.0, -10.0), create-point(10.0, 10.0))`, 6},
		{"zero area", `create-rectangle(create-point(40.5, 30.25), create-point(40.5, 30.25))`, 2},
		{"a point", `create-point(40.5, 30.25)`, 2},
		{"a NaN corner", `create-rectangle(create-point(0.0, 0.0), point("NaN,100.0"))`, 0},
		{"a NaN polygon vertex", `polygon("0.0,0.0 50.0,0.0 50.0,50.0 NaN,50.0")`, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			query := `for $p in dataset Places where spatial-intersect($p.loc, ` + tc.probe + `) return $p.id;`
			if plan, err := inst.Explain(query); err != nil || !strings.Contains(plan, "placeLoc") {
				t.Fatalf("the plan does not use the R-tree index (%v):\n%s", err, plan)
			}
			indexed, err := inst.Query(query)
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := inst.QueryWithOptions(query, algebra.Options{DisableIndexAccess: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(scanned) != tc.rows {
				t.Errorf("the scan returns %d rows, want %d", len(scanned), tc.rows)
			}
			sameResults(t, "indexed vs scanned", indexed, scanned, false)
		})
	}
}
