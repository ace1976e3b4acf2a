package storage

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/invidx"
	"asterixdb/internal/txn"
)

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
		err := ds.SearchIndexPartition(part, name, probe, func(pk []byte) bool {
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

// indexLens reports every partition's live entry count for the named index,
// checking on the way that an R-tree accelerator mirrors its tree exactly.
func indexLens(t *testing.T, ds *Dataset, name string) []int {
	t.Helper()
	var lens []int
	for _, p := range ds.partitions {
		p.mu.Lock()
		ix := p.indexes[name]
		n := ix.tree.Len()
		if ix.accel != nil && ix.accel.Len() != n {
			t.Errorf("partition %d: accelerator holds %d entries, tree %d", p.idNum, ix.accel.Len(), n)
		}
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
			ds1 := createMessages(t, m1, adm.SchemaEncoding)
			if err := ds1.CreateIndex(tc.spec); err != nil {
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

			// (a) Reopen: CreateIndex adopts the durable components (for an
			// R-tree, rebuilding the accelerator from them — indexLens checks
			// it before the primary is even recovered), Recover completes them.
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
			if err := ds.CreateIndex(tc.spec); err != nil {
				t.Fatal(err)
			}
			if got := searchPKs(t, ds, tc.spec.Name, tc.probe); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("after drop+create: index search %q, want %q", got, want)
			}
		})
	}
}
