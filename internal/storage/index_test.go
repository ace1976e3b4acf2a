package storage

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/invidx"
	"asterixdb/internal/spatial"
	"asterixdb/internal/txn"
)

// searchIndexPartition searches one partition of the named index of the
// maintained set.
func searchIndexPartition(d *Dataset, part int, name string, probe Probe, visit func(pk []byte) bool) error {
	x := d.maintained(name)
	if x == nil {
		return fmt.Errorf("no index %q on %q", name, d.spec.Name)
	}
	return x.SearchPartition(part, probe, visit)
}

// indexKindCases drives the one secondary-index mechanism once per kind: the
// spec, a probe, and the brute-force predicate the probe's candidate set must
// equal on the test data (chosen so that candidates and exact matches
// coincide: point locations, single-word and contiguous-gram probes).
var indexKindCases = []struct {
	spec    IndexSpec
	probe   Probe
	matches func(rec *adm.Record) bool
}{
	{
		spec:  IndexSpec{Name: "ix", Fields: []string{"author-id"}, Kind: BTreeIndex},
		probe: Probe{Lo: adm.Int32(2), Hi: adm.Int32(4)},
		matches: func(rec *adm.Record) bool {
			a := rec.Get("author-id").(adm.Int32)
			return a >= 2 && a <= 4
		},
	},
	{
		spec:  IndexSpec{Name: "ix", Fields: []string{"sender-location"}, Kind: RTreeIndex},
		probe: Probe{Value: adm.Rectangle{LowerLeft: adm.Point{X: 3, Y: 2}, UpperRight: adm.Point{X: 12, Y: 8}}},
		matches: func(rec *adm.Record) bool {
			p := rec.Get("sender-location").(adm.Point)
			return p.X >= 3 && p.X <= 12 && p.Y >= 2 && p.Y <= 8
		},
	},
	{
		spec:  IndexSpec{Name: "ix", Fields: []string{"message"}, Kind: KeywordIndex},
		probe: Probe{Value: adm.String("antimatter")},
		matches: func(rec *adm.Record) bool {
			return containsWord(string(rec.Get("message").(adm.String)), "antimatter")
		},
	},
	{
		spec:  IndexSpec{Name: "ix", Fields: []string{"message"}, Kind: NGramIndex, GramLength: 3},
		probe: Probe{Value: adm.String("ompon")},
		matches: func(rec *adm.Record) bool {
			return strings.Contains(string(rec.Get("message").(adm.String)), "ompon")
		},
	},
}

// searchPKs runs the per-partition index search everywhere and returns the
// sorted candidate primary keys.
func searchPKs(t *testing.T, ds *Dataset, name string, probe Probe) []string {
	t.Helper()
	var pks []string
	for part := 0; part < ds.PartitionCount(); part++ {
		err := searchIndexPartition(ds, part, name, probe, func(pk []byte) bool {
			pks = append(pks, string(pk))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(pks)
	return pks
}

// scanPKs is the brute-force oracle: the sorted primary keys of the records a
// full primary scan finds satisfying the predicate.
func scanPKs(t *testing.T, ds *Dataset, matches func(*adm.Record) bool) []string {
	t.Helper()
	var pks []string
	for _, rec := range scanAll(t, ds) {
		if matches(rec) {
			pk, err := ds.PrimaryKeyOf(rec)
			if err != nil {
				t.Fatal(err)
			}
			pks = append(pks, string(pk))
		}
	}
	sort.Strings(pks)
	return pks
}

// indexLens reports every partition's live entry count for the named index.
func indexLens(t *testing.T, ds *Dataset, name string) []int {
	t.Helper()
	var lens []int
	for _, p := range ds.partitions {
		p.mu.Lock()
		n := p.indexes[name].Len()
		p.mu.Unlock()
		lens = append(lens, n)
	}
	return lens
}

// TestOneIndexMechanismAllKinds checks, for every index kind, the lifecycle
// the single index type owns: durable components are adopted on reopen and
// completed by WAL replay, re-applied log entries are no-ops, and a dropped
// index leaves nothing behind for a re-create to adopt.
func TestOneIndexMechanismAllKinds(t *testing.T) {
	texts := []string{"crash safe durability", "torn component", "antimatter entry", "bounded replay"}
	for _, tc := range indexKindCases {
		t.Run(string(tc.spec.Kind), func(t *testing.T) {
			dir := t.TempDir()
			m1, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
			if err != nil {
				t.Fatal(err)
			}
			ds1 := createMessages(t, m1)
			if _, err := ds1.CreateIndex(tc.spec); err != nil {
				t.Fatal(err)
			}
			insert := func(ds *Dataset, id, variant int) {
				t.Helper()
				rec := message(id, variant%7, int64(id), texts[variant%len(texts)], float64(variant%20), float64(variant%11))
				if err := ds.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 80; i++ {
				insert(ds1, i, i)
			}
			for i := 0; i < 80; i += 5 {
				insert(ds1, i, i+3) // update: every indexed field moves
			}
			for i := 0; i < 80; i += 9 {
				if _, err := ds1.Delete(adm.Int32(int32(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := ds1.Flush(); err != nil {
				t.Fatal(err)
			}
			// A suffix that lives only in the WAL: new records, an update and a
			// delete on top of flushed entries.
			for i := 80; i < 100; i++ {
				insert(ds1, i, i)
			}
			insert(ds1, 1, 42)
			if _, err := ds1.Delete(adm.Int32(2)); err != nil {
				t.Fatal(err)
			}
			if err := m1.Close(); err != nil {
				t.Fatal(err)
			}

			// (a) Reopen: CreateIndex adopts the durable components (indexLens
			// counts them before the primary is even recovered), Recover
			// completes them.
			m2, ds := reopenWithDDL(t, dir, []IndexSpec{tc.spec})
			adopted := 0
			for _, n := range indexLens(t, ds, tc.spec.Name) {
				adopted += n
			}
			if adopted == 0 {
				t.Fatal("reopen adopted no durable index entries")
			}
			if err := m2.Recover(); err != nil {
				t.Fatal(err)
			}
			want := scanPKs(t, ds, tc.matches)
			if len(want) == 0 {
				t.Fatal("probe matches nothing: the case cannot tell a working index from an empty one")
			}
			if got := searchPKs(t, ds, tc.spec.Name, tc.probe); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("after reopen+recover: index search %q, primary scan %q", got, want)
			}
			if tc.spec.Kind == KeywordIndex {
				// The LSM posting lists against the in-memory reference index.
				ref := invidx.New(invidx.KeywordTokenizer)
				for _, rec := range scanAll(t, ds) {
					pk, _ := ds.PrimaryKeyOf(rec)
					ref.Insert(pk, string(rec.Get("message").(adm.String)))
				}
				var refPKs []string
				for _, pk := range ref.Lookup(string(tc.probe.Value.(adm.String))) {
					refPKs = append(refPKs, string(pk))
				}
				if fmt.Sprint(refPKs) != fmt.Sprint(want) {
					t.Fatalf("in-memory reference %q, index search %q", refPKs, want)
				}
			}

			// (b) Recovery re-applies log records idempotently: a live
			// record's entries applied again, and antimatter for entries that
			// were never inserted, change neither the search nor the trees.
			lens := indexLens(t, ds, tc.spec.Name)
			replay := func(rec *adm.Record, kind txn.OpKind) {
				t.Helper()
				pk, _ := ds.PrimaryKeyOf(rec)
				keys, vals, err := secondaryEntries(tc.spec, rec, pk)
				if err != nil || len(keys) == 0 {
					t.Fatalf("no entries derived: %v", err)
				}
				for round := 0; round < 2; round++ {
					for i, k := range keys {
						applied, err := ds.applyLogged(math.MaxUint64, txn.LogRecord{
							Kind: kind, Dataset: ds.spec.Name, Partition: ds.partitionFor(pk),
							Index: tc.spec.Name, Key: k, Value: vals[i],
						})
						if err != nil || !applied {
							t.Fatalf("applyLogged = %v, %v", applied, err)
						}
					}
				}
			}
			live, ok, err := ds.LookupPK(adm.Int32(50))
			if err != nil || !ok {
				t.Fatalf("LookupPK(50) = %v, %v", ok, err)
			}
			replay(live, txn.OpInsert)
			replay(message(9999, 3, 0, "antimatter component", 5, 5), txn.OpDelete)
			if got := indexLens(t, ds, tc.spec.Name); fmt.Sprint(got) != fmt.Sprint(lens) {
				t.Errorf("entry counts after re-applied records = %v, want %v", got, lens)
			}
			if got := searchPKs(t, ds, tc.spec.Name, tc.probe); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after re-applied records: index search %q, want %q", got, want)
			}

			// (c) Drop, then re-create under the same name: the directories
			// are gone, so the new index is built by backfill alone.
			if err := ds.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := ds.DropIndex(tc.spec.Name); err != nil {
				t.Fatal(err)
			}
			for _, p := range ds.partitions {
				if _, err := os.Stat(ds.indexDir(p, tc.spec.Name)); !os.IsNotExist(err) {
					t.Errorf("partition %d: index directory survives DropIndex: %v", p.idNum, err)
				}
			}
			if _, err := ds.CreateIndex(tc.spec); err != nil {
				t.Fatal(err)
			}
			if got := searchPKs(t, ds, tc.spec.Name, tc.probe); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after drop+create: index search %q, want %q", got, want)
			}
		})
	}
}

// extentShape is the indexed value of record id at a given version: the
// shape kinds rotate with id+version, so an update moves a record between
// kinds and cells. Three ids are pinned to the hard cases: an object far
// larger than any probe, one across the origin, one degenerate to a point.
func extentShape(id, version int) adm.Value {
	switch id {
	case 0:
		return adm.Rectangle{LowerLeft: adm.Point{X: -500, Y: -500}, UpperRight: adm.Point{X: 500 + float64(version), Y: 500}}
	case 1:
		return adm.Circle{Center: adm.Point{}, Radius: 1 + float64(version)}
	case 2:
		return adm.Rectangle{LowerLeft: adm.Point{X: 12, Y: 12}, UpperRight: adm.Point{X: 12, Y: 12}}
	}
	rng := rand.New(rand.NewSource(int64(id*8 + version)))
	x, y := rng.Float64()*100-20, rng.Float64()*70-20
	w, h := rng.Float64()*6, rng.Float64()*6
	switch (id + version) % 4 {
	case 0:
		return adm.Rectangle{LowerLeft: adm.Point{X: x, Y: y}, UpperRight: adm.Point{X: x + w, Y: y + h}}
	case 1:
		return adm.Circle{Center: adm.Point{X: x, Y: y}, Radius: w}
	case 2:
		return adm.Line{A: adm.Point{X: x, Y: y + h}, B: adm.Point{X: x + w, Y: y}}
	default:
		return adm.Polygon{Points: []adm.Point{{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w/2, Y: y + h}}}
	}
}

// TestRTreeIndexOverExtents runs the R-tree kind over values that are not
// points — rectangles, circles, lines, polygons — through every phase of the
// index's life. After each, the index's candidates for a probe are exactly
// the records whose MBR intersects it, by brute force over the primary scan.
func TestRTreeIndexOverExtents(t *testing.T) {
	dir := t.TempDir()
	spec := IndexSpec{Name: "byShape", Fields: []string{"shape"}, Kind: RTreeIndex}
	open := func() (*Manager, *Dataset) {
		m, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := m.CreateDataset(DatasetSpec{
			Name: "Shapes", PrimaryKey: []string{"id"},
			Type: &adm.RecordType{Name: "ShapeType", Open: true, Fields: []adm.FieldType{{Name: "id", Type: adm.Prim(adm.TagInt32)}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
		return m, ds
	}
	m, ds := open()
	put := func(id, version int) {
		t.Helper()
		rec := adm.NewRecord(adm.Field{Name: "id", Value: adm.Int32(int32(id))}, adm.Field{Name: "shape", Value: extentShape(id, version)})
		if err := ds.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	// atLeast is how many of the first 150 shapes a probe must find, so that
	// it can tell a working index from an empty one.
	probes := []struct {
		x0, y0, x1, y1 float64
		atLeast        int
	}{
		{10, 10, 20, 18, 3},
		{-3, -2, 2, 3, 3}, // across the origin
		{12, 12, 12, 12, 2},
		{58, 27, 70, 37, 3}, // across binade edges
		{600, 600, 700, 700, 0},
	}
	check := func(phase string) {
		t.Helper()
		for _, p := range probes {
			probe := adm.Rectangle{LowerLeft: adm.Point{X: p.x0, Y: p.y0}, UpperRight: adm.Point{X: p.x1, Y: p.y1}}
			var want []string
			err := ds.Scan(func(rec *adm.Record) bool {
				mbr, err := spatial.MBR(rec.Get("shape"))
				if err != nil {
					t.Fatal(err)
				}
				if spatial.RectIntersects(mbr, probe) {
					pk, _ := ds.PrimaryKeyOf(rec)
					want = append(want, string(pk))
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(want)
			if got := searchPKs(t, ds, spec.Name, Probe{Value: probe}); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, probe %v: index search %q, brute force %q", phase, probe, got, want)
			}
			if phase == "insert" && len(want) < p.atLeast {
				t.Fatalf("probe %v matches %d records, want at least %d", probe, len(want), p.atLeast)
			}
		}
	}
	for id := 0; id < 150; id++ {
		put(id, 0)
	}
	check("insert")
	for id := 0; id < 150; id += 4 {
		put(id, 1)
	}
	check("update")
	for id := 5; id < 150; id += 6 {
		if _, err := ds.Delete(adm.Int32(int32(id))); err != nil {
			t.Fatal(err)
		}
	}
	check("delete")
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	check("flush")
	for id := 150; id < 180; id++ {
		put(id, 0)
	}
	put(0, 2)
	for _, p := range ds.partitions {
		p.mu.Lock()
		err := p.indexes[spec.Name].Merge()
		p.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	check("merge")
	for id := 180; id < 200; id++ {
		put(id, 0) // a suffix that lives only in the WAL
	}
	put(1, 2)
	if _, err := ds.Delete(adm.Int32(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, ds = open()
	defer m.Close()
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	check("reopen+recover")
}

// TestOldRTreeLayoutRefused: an index directory holding a component written
// before the checksummed, versioned component footer (every such file ends
// in LSMVALID; every R-tree directory from before the Z-ordered key layout
// has one) makes create index fail naming the file, and publishes nothing.
func TestOldRTreeLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	spec := IndexSpec{Name: "byLoc", Fields: []string{"sender-location"}, Kind: RTreeIndex}
	m, err := NewManager(dir, Options{Partitions: 1, Journaled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ds := createMessages(t, m)
	// An empty component in the old layout: uvarint stamp, coveredLow and
	// count, then the old footer.
	indexDir := ds.indexDir(ds.partitions[0], spec.Name)
	if err := os.MkdirAll(indexDir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(indexDir, "component-00000000.lsm")
	if err := os.WriteFile(old, []byte("\x00\x00\x00LSMVALID"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ds.CreateIndex(spec)
	if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "drop and recreate") {
		t.Fatalf("CreateIndex over an old-layout component: err = %v", err)
	}
	if len(ds.indexes) != 0 {
		t.Fatalf("the refused index was published: %v", ds.indexes)
	}
}

// TestSecondaryTreesBuildNoFilter: only the primary index is read by key, so
// only its components get a bloom filter. After a flush, searches of every
// secondary kind and inserts that read their new keys, the secondary trees
// hold no filter bytes and every partition's primary holds some; so again
// after a reopen loads every component from its file.
func TestSecondaryTreesBuildNoFilter(t *testing.T) {
	dir := t.TempDir()
	var specs []IndexSpec
	for i, tc := range indexKindCases {
		spec := tc.spec
		spec.Name = fmt.Sprintf("ix%d", i)
		specs = append(specs, spec)
	}
	texts := []string{"crash safe durability", "torn component", "antimatter entry", "bounded replay"}
	insertAndSearch := func(ds *Dataset, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := ds.Insert(message(i, i%7, int64(i), texts[i%len(texts)], float64(i%20), float64(i%11))); err != nil {
				t.Fatal(err)
			}
		}
		for i, tc := range indexKindCases {
			if len(searchPKs(t, ds, specs[i].Name, tc.probe)) == 0 {
				t.Fatalf("%s probe found nothing", tc.spec.Kind)
			}
		}
	}
	check := func(ds *Dataset, when string) {
		t.Helper()
		for part, p := range ds.partitions {
			p.mu.Lock()
			primary := p.primary.FilterBytes()
			for name, tree := range p.indexes {
				if n := tree.FilterBytes(); n != 0 || tree.Components() == 0 {
					t.Errorf("%s: partition %d index %s: %d components, %d filter bytes; want some and none", when, part, name, tree.Components(), n)
				}
			}
			p.mu.Unlock()
			if primary == 0 {
				t.Errorf("%s: partition %d: the primary index built no filter", when, part)
			}
		}
	}
	m, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
	if err != nil {
		t.Fatal(err)
	}
	ds := createMessages(t, m)
	for _, spec := range specs {
		if _, err := ds.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	insertAndSearch(ds, 0, 40)
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	insertAndSearch(ds, 40, 60)
	check(ds, "after a flush")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, ds = reopenWithDDL(t, dir, specs)
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	insertAndSearch(ds, 60, 80)
	check(ds, "after a reopen")
}
