package storage

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"asterixdb/internal/adm"
)

func messageType() *adm.RecordType {
	return &adm.RecordType{
		Name: "MugshotMessageType",
		Open: false,
		Fields: []adm.FieldType{
			{Name: "message-id", Type: adm.Prim(adm.TagInt32)},
			{Name: "author-id", Type: adm.Prim(adm.TagInt32)},
			{Name: "timestamp", Type: adm.Prim(adm.TagDatetime)},
			{Name: "sender-location", Type: adm.Prim(adm.TagPoint), Optional: true},
			{Name: "message", Type: adm.Prim(adm.TagString)},
		},
	}
}

func message(id, author int, ts int64, text string, x, y float64) *adm.Record {
	return adm.NewRecord(
		adm.Field{Name: "message-id", Value: adm.Int32(int32(id))},
		adm.Field{Name: "author-id", Value: adm.Int32(int32(author))},
		adm.Field{Name: "timestamp", Value: adm.Datetime(ts)},
		adm.Field{Name: "sender-location", Value: adm.Point{X: x, Y: y}},
		adm.Field{Name: "message", Value: adm.String(text)},
	)
}

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(t.TempDir(), Options{Partitions: 3, MemBudget: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func createMessages(t *testing.T, m *Manager) *Dataset {
	t.Helper()
	ds, err := m.CreateDataset(DatasetSpec{
		Name:       "MugshotMessages",
		Type:       messageType(),
		PrimaryKey: []string{"message-id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestInsertLookupDelete(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	const n = 200
	for i := 0; i < n; i++ {
		if err := ds.Insert(message(i, i%10, int64(1000*i), fmt.Sprintf("message %d", i), float64(i%50), float64(i%30))); err != nil {
			t.Fatal(err)
		}
	}
	count, err := ds.Count()
	if err != nil || count != n {
		t.Fatalf("Count = %d, %v", count, err)
	}
	rec, ok, err := ds.LookupPK(adm.Int32(42))
	if err != nil || !ok {
		t.Fatalf("LookupPK: %v, %v", ok, err)
	}
	if rec.Get("message").(adm.String) != "message 42" {
		t.Errorf("lookup returned %v", rec.Get("message"))
	}
	if _, ok, _ := ds.LookupPK(adm.Int32(99999)); ok {
		t.Error("lookup of absent key should fail")
	}
	deleted, err := ds.Delete(adm.Int32(42))
	if err != nil || !deleted {
		t.Fatalf("Delete: %v, %v", deleted, err)
	}
	if deleted, _ := ds.Delete(adm.Int32(42)); deleted {
		t.Error("double delete should report false")
	}
	if _, ok, _ := ds.LookupPK(adm.Int32(42)); ok {
		t.Error("deleted record still visible")
	}
	count, _ = ds.Count()
	if count != n-1 {
		t.Errorf("Count after delete = %d", count)
	}
}

func TestInsertValidation(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	// Closed type rejects extra fields.
	bad := message(1, 1, 0, "x", 0, 0).Set("extra", adm.Boolean(true))
	if err := ds.Insert(bad); err == nil {
		t.Error("closed type must reject extra fields")
	}
	// Missing primary key.
	noPK := adm.NewRecord(adm.Field{Name: "author-id", Value: adm.Int32(1)})
	if err := ds.Insert(noPK); err == nil {
		t.Error("record without primary key must be rejected")
	}
}

func TestUpsertReplacesSecondaryEntries(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	if _, err := ds.CreateIndex(IndexSpec{Name: "byAuthor", Fields: []string{"author-id"}, Kind: BTreeIndex}); err != nil {
		t.Fatal(err)
	}
	ds.Insert(message(1, 100, 0, "original", 0, 0))
	ds.Insert(message(1, 200, 0, "replacement", 0, 0))
	recs, err := ds.SearchSecondaryRange("byAuthor", adm.Int32(100), adm.Int32(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("stale secondary entry survived upsert: %d hits", len(recs))
	}
	recs, err = ds.SearchSecondaryRange("byAuthor", adm.Int32(200), adm.Int32(200))
	if err != nil || len(recs) != 1 {
		t.Errorf("new secondary entry missing: %d hits, %v", len(recs), err)
	}
}

func TestSecondaryBTreeRange(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	const n = 300
	for i := 0; i < n; i++ {
		if err := ds.Insert(message(i, i%10, int64(i)*1000, "hello", 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Index created after data exists must backfill.
	if _, err := ds.CreateIndex(IndexSpec{Name: "msTimestampIdx", Fields: []string{"timestamp"}, Kind: BTreeIndex}); err != nil {
		t.Fatal(err)
	}
	recs, err := ds.SearchSecondaryRange("msTimestampIdx", adm.Datetime(100000), adm.Datetime(150000))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 51 {
		t.Errorf("range returned %d records, want 51", len(recs))
	}
	for _, r := range recs {
		ts := int64(r.Get("timestamp").(adm.Datetime))
		if ts < 100000 || ts > 150000 {
			t.Errorf("record outside range: %d", ts)
		}
	}
	// Open-ended range.
	recs, err = ds.SearchSecondaryRange("msTimestampIdx", adm.Datetime(int64(n-5)*1000), nil)
	if err != nil || len(recs) != 5 {
		t.Errorf("open range returned %d records, %v", len(recs), err)
	}
	// Unknown index errors.
	if _, err := ds.SearchSecondaryRange("nope", nil, nil); err == nil {
		t.Error("unknown index should error")
	}
}

func TestSecondaryRTree(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	if _, err := ds.CreateIndex(IndexSpec{Name: "msSenderLocIndex", Fields: []string{"sender-location"}, Kind: RTreeIndex}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ds.Insert(message(i, 1, 0, "spatial", float64(i), float64(i)))
	}
	probe := adm.Rectangle{LowerLeft: adm.Point{X: 10, Y: 10}, UpperRight: adm.Point{X: 20, Y: 20}}
	recs, err := ds.SearchSecondaryRTree("msSenderLocIndex", probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 {
		t.Errorf("rtree search returned %d records, want 11", len(recs))
	}
}

func TestSecondaryInverted(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	if _, err := ds.CreateIndex(IndexSpec{Name: "msMessageIdx", Fields: []string{"message"}, Kind: KeywordIndex}); err != nil {
		t.Fatal(err)
	}
	ds.Insert(message(1, 1, 0, "going out tonight", 0, 0))
	ds.Insert(message(2, 1, 0, "tonight is the night", 0, 0))
	ds.Insert(message(3, 1, 0, "something else entirely", 0, 0))
	recs, err := ds.SearchSecondaryInverted("msMessageIdx", "tonight", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("keyword search returned %d records", len(recs))
	}
	// An ngram index supports fuzzy candidate generation.
	if _, err := ds.CreateIndex(IndexSpec{Name: "msMessageNGram", Fields: []string{"message"}, Kind: NGramIndex, GramLength: 3}); err != nil {
		t.Fatal(err)
	}
	recs, err = ds.SearchSecondaryInverted("msMessageNGram", "tonite", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Error("ngram candidates should include fuzzy matches of 'tonite'")
	}
}

func TestDropIndexAndDataset(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	if _, err := ds.CreateIndex(IndexSpec{Name: "byAuthor", Fields: []string{"author-id"}, Kind: BTreeIndex}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateIndex(IndexSpec{Name: "byAuthor", Fields: []string{"author-id"}, Kind: BTreeIndex}); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := ds.DropIndex("byAuthor"); err != nil {
		t.Fatal(err)
	}
	if err := ds.DropIndex("byAuthor"); err == nil {
		t.Error("dropping absent index should fail")
	}
	if err := m.DropDataset("MugshotMessages"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Dataset("MugshotMessages"); ok {
		t.Error("dataset still present after drop")
	}
	if err := m.DropDataset("MugshotMessages"); err == nil {
		t.Error("double drop should fail")
	}
}

// TestSchemaVsKeyOnlySizes: the KeyOnly configuration is an open type that
// declares only the primary key, so every other field is stored with its
// name and the same records take more bytes than under the full type.
func TestSchemaVsKeyOnlySizes(t *testing.T) {
	m := newTestManager(t)
	schema := createMessages(t, m)
	keyonly, err := m.CreateDataset(DatasetSpec{
		Name: "MugshotMessagesKeyOnly",
		Type: &adm.RecordType{Name: "MugshotMessageType", Open: true, Fields: []adm.FieldType{
			{Name: "message-id", Type: adm.Prim(adm.TagInt32)},
		}},
		PrimaryKey: []string{"message-id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rec := message(i, i%7, int64(i)*500, "some moderately long message text here", 1, 2)
		if err := schema.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if err := keyonly.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	sSize, _ := schema.SizeBytes()
	kSize, _ := keyonly.SizeBytes()
	if sSize >= kSize {
		t.Errorf("Schema encoding (%d bytes) should be smaller than KeyOnly (%d bytes)", sSize, kSize)
	}
}

func TestRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, Options{Partitions: 2, Journaled: true, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := m.CreateDataset(DatasetSpec{Name: "M", Type: messageType(), PrimaryKey: []string{"message-id"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := ds.Insert(message(i, 1, int64(i), "durable", 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	ds.Delete(adm.Int32(7))
	// Crash without flushing: nothing reached a disk component, so recovery
	// must rebuild state purely from the WAL.
	m.Close()

	m2, err := NewManager(dir, Options{Partitions: 2, Journaled: true, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	ds2, err := m2.CreateDataset(DatasetSpec{Name: "M", Type: messageType(), PrimaryKey: []string{"message-id"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	count, _ := ds2.Count()
	if count != 49 {
		t.Errorf("recovered %d records, want 49", count)
	}
	if _, ok, _ := ds2.LookupPK(adm.Int32(7)); ok {
		t.Error("deleted record reappeared after recovery")
	}
	if _, ok, _ := ds2.LookupPK(adm.Int32(8)); !ok {
		t.Error("live record missing after recovery")
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, Options{Partitions: 2, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ds, _ := m.CreateDataset(DatasetSpec{Name: "M", Type: messageType(), PrimaryKey: []string{"message-id"}})
	for i := 0; i < 20; i++ {
		ds.Insert(message(i, 1, 0, "x", 0, 0))
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// After a checkpoint the data lives in valid disk components; recovery
	// replays nothing but the data is still there.
	count, _ := ds.Count()
	if count != 20 {
		t.Errorf("Count after checkpoint = %d", count)
	}
}

func TestInsertBatchAndPartitioning(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	batch := make([]*adm.Record, 100)
	for i := range batch {
		batch[i] = message(i, 1, 0, "batched", 0, 0)
	}
	if _, err := ds.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	count, _ := ds.Count()
	if count != 100 {
		t.Errorf("Count = %d", count)
	}
	// Records should be spread across partitions by primary-key hash.
	nonEmpty := 0
	for p := 0; p < m.Partitions(); p++ {
		n := 0
		ds.ScanPartition(p, func(adm.Value) bool { n++; return true })
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("only %d partitions hold data; hash partitioning not effective", nonEmpty)
	}
}

// TestScanPartitionVisitorOutsideLock is the regression test for the
// self-join deadlock: the scan visitor must run outside the partition lock,
// so a visitor can itself scan the same partition (as two pipelined scan
// operators over one dataset do when one blocks on the other's progress).
func TestScanPartitionVisitorOutsideLock(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	var recs []*adm.Record
	for i := 1; i <= 300; i++ {
		recs = append(recs, message(i, i%7, 1000, "body", 41, 80))
	}
	if _, err := ds.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	outer, inner := 0, 0
	err := ds.ScanPartition(0, func(adm.Value) bool {
		outer++
		if outer == 1 {
			if err := ds.ScanPartition(0, func(adm.Value) bool {
				inner++
				return true
			}); err != nil {
				t.Fatalf("nested scan: %v", err)
			}
			if inner == 0 {
				t.Fatal("nested scan saw no records")
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if outer == 0 {
		t.Fatal("outer scan saw no records")
	}
}

// SizeBytes is what the dataset's component files hold once flushed:
// primary and secondary alike, so adding an index grows it. The budget keeps
// background flushes and merges from changing the files under the count.
func TestSizeBytesCountsComponentFiles(t *testing.T) {
	m, err := NewManager(t.TempDir(), Options{Partitions: 3, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	ds := createMessages(t, m)
	for i := 0; i < 200; i++ {
		if err := ds.Insert(message(i, i%7, int64(i)*500, "some moderately long message text here", 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	files := func() int64 {
		var n int64
		err := filepath.WalkDir(filepath.Join(m.dir, "MugshotMessages"), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".lsm") {
				info, err := d.Info()
				if err != nil {
					return err
				}
				n += info.Size()
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	before, err := ds.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got := files(); before != got || before == 0 {
		t.Errorf("SizeBytes = %d, component files hold %d", before, got)
	}
	if _, err := ds.CreateIndex(IndexSpec{Name: "kwIdx", Fields: []string{"message"}, Kind: KeywordIndex}); err != nil {
		t.Fatal(err)
	}
	after, err := ds.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got := files(); after != got || after <= before {
		t.Errorf("with a keyword index SizeBytes = %d (files %d), want more than %d", after, got, before)
	}
}
