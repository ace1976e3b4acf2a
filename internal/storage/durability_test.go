package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/lsm"
	"asterixdb/internal/txn"
)

// reopenWithDDL reopens a manager on dir and re-runs the messages DDL (DDL
// is not journaled), without recovering yet.
func reopenWithDDL(t *testing.T, dir string, specs []IndexSpec) (*Manager, *Dataset) {
	t.Helper()
	m, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	ds := createMessages(t, m)
	for _, spec := range specs {
		if _, err := ds.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	return m, ds
}

// TestSecondaryIndexesSurviveReopen is the tentpole property at the storage
// API level: after a hard close (no checkpoint, no clean shutdown flush),
// reopen + DDL + Recover must restore every access path — primary, B+-tree,
// R-tree, keyword and n-gram — to exactly the committed writes, partly from
// each index's own durable LSM components and partly from bounded WAL replay.
func TestSecondaryIndexesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	specs := []IndexSpec{
		{Name: "byAuthor", Fields: []string{"author-id"}, Kind: BTreeIndex},
		{Name: "byLoc", Fields: []string{"sender-location"}, Kind: RTreeIndex},
		{Name: "byText", Fields: []string{"message"}, Kind: KeywordIndex},
		{Name: "byGram", Fields: []string{"message"}, Kind: NGramIndex, GramLength: 3},
	}

	m1, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
	if err != nil {
		t.Fatal(err)
	}
	ds1 := createMessages(t, m1)
	for _, spec := range specs {
		if _, err := ds1.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	texts := []string{"crash safe durability", "torn component", "antimatter entry", "bounded replay"}
	for i := 0; i < 60; i++ {
		if err := ds1.Insert(message(i, i%7, int64(i), texts[i%len(texts)], float64(i%20), float64(i%11))); err != nil {
			t.Fatal(err)
		}
	}
	// Flush part of the history so recovery exercises the skip path, then
	// keep mutating so the WAL holds a suffix for every index.
	if err := ds1.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 90; i++ {
		if err := ds1.Insert(message(i, i%7, int64(i), texts[i%len(texts)], float64(i%20), float64(i%11))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 90; i += 9 {
		if _, err := ds1.Delete(adm.Int32(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Upsert: moves records to new secondary keys; the old entries must die.
	if err := ds1.Insert(message(5, 99, 5, "moved elsewhere", 77, 77)); err != nil {
		t.Fatal(err)
	}
	// Abandon m1 without Close: the WAL file stays as the crash left it.

	m2, ds2 := reopenWithDDL(t, dir, specs)
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	st := m2.Stats()
	if st.Recovery.Replayed == 0 || st.Recovery.Skipped == 0 {
		t.Errorf("recovery should both replay the suffix and skip the durable prefix: %+v", st.Recovery)
	}

	// Primary contents.
	want := map[int]string{}
	for i := 0; i < 90; i++ {
		want[i] = texts[i%len(texts)]
	}
	for i := 0; i < 90; i += 9 {
		delete(want, i)
	}
	want[5] = "moved elsewhere"
	count, err := ds2.Count()
	if err != nil || count != len(want) {
		t.Fatalf("Count after recovery = %d (%v), want %d", count, err, len(want))
	}

	// B+-tree path: author 99 only matches the upserted record; author of a
	// deleted record matches nothing stale.
	recs, err := ds2.SearchSecondaryRange("byAuthor", adm.Int32(99), adm.Int32(99))
	if err != nil || len(recs) != 1 || recs[0].Get("message").(adm.String) != "moved elsewhere" {
		t.Fatalf("byAuthor search after recovery = %v, %v", recs, err)
	}

	// R-tree path: the upserted record moved to (77,77); its old location
	// must not resurrect it.
	probe := adm.Rectangle{LowerLeft: adm.Point{X: 76, Y: 76}, UpperRight: adm.Point{X: 78, Y: 78}}
	recs, err = ds2.SearchSecondaryRTree("byLoc", probe)
	if err != nil || len(recs) != 1 || int(recs[0].Get("message-id").(adm.Int32)) != 5 {
		t.Fatalf("byLoc search after recovery = %v, %v", recs, err)
	}

	// Inverted paths, cross-checked against a full scan oracle.
	for _, probe := range []string{"durability", "antimatter", "bounded"} {
		recs, err = ds2.SearchSecondaryConjunctive("byText", probe)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int]bool{}
		for _, r := range recs {
			got[int(r.Get("message-id").(adm.Int32))] = true
		}
		for id, text := range want {
			if want, have := containsWord(text, probe), got[id]; want != have {
				t.Errorf("keyword %q id %d: index=%v scan=%v", probe, id, have, want)
			}
		}
	}
	recs, err = ds2.SearchSecondaryConjunctive("byGram", "antimatter")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		id := int(r.Get("message-id").(adm.Int32))
		if _, live := want[id]; !live {
			t.Errorf("ngram search returned deleted id %d", id)
		}
	}
}

func containsWord(text, word string) bool {
	for _, w := range splitWords(text) {
		if w == word {
			return true
		}
	}
	return false
}

func splitWords(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
		} else {
			cur += string(r)
		}
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// TestRecoverySkipsFullyDurableHistory: once everything is flushed, replay
// applies nothing (the component stamps gate it out).
func TestRecoverySkipsFullyDurableHistory(t *testing.T) {
	dir := t.TempDir()
	m1, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
	if err != nil {
		t.Fatal(err)
	}
	ds1 := createMessages(t, m1)
	for i := 0; i < 40; i++ {
		if err := ds1.Insert(message(i, i, int64(i), "x", 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds1.Flush(); err != nil {
		t.Fatal(err)
	}

	m2, ds2 := reopenWithDDL(t, dir, nil)
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	if st := m2.Stats(); st.Recovery.Replayed != 0 {
		t.Errorf("Recovery.Replayed = %d after full flush, want 0 (%+v)", st.Recovery.Replayed, st.Recovery)
	}
	if count, _ := ds2.Count(); count != 40 {
		t.Errorf("Count = %d, want 40", count)
	}
}

// TestCheckpointBoundsReplay: a checkpoint compacts the WAL, so recovery
// decodes only the post-checkpoint suffix.
func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	m1, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
	if err != nil {
		t.Fatal(err)
	}
	ds1 := createMessages(t, m1)
	for i := 0; i < 50; i++ {
		if err := ds1.Insert(message(i, i, int64(i), "pre-checkpoint", 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := m1.Stats(); st.Checkpoints != 1 || st.LastCheckpointUnix == 0 {
		t.Fatalf("checkpoint counters = %+v", st)
	}
	const suffixOps = 7
	for i := 100; i < 100+suffixOps; i++ {
		if err := ds1.Insert(message(i, i, int64(i), "post-checkpoint", 0, 0)); err != nil {
			t.Fatal(err)
		}
	}

	m2, ds2 := reopenWithDDL(t, dir, nil)
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	st := m2.Stats()
	// Each insert logs one primary record (no secondary indexes here); the
	// compacted log holds only the 7 post-checkpoint operations.
	if st.Recovery.Replayed != suffixOps {
		t.Errorf("Recovery.Replayed = %d, want %d (checkpoint did not bound replay)", st.Recovery.Replayed, suffixOps)
	}
	if count, _ := ds2.Count(); count != 50+suffixOps {
		t.Errorf("Count = %d, want %d", count, 50+suffixOps)
	}
}

// TestUnreadableComponentRefusedOnReopen: every component is written through
// an atomic rename, so one that fails to load is damage (truncation, a
// flipped bit, bad media, a failed read), never the residue of an unfinished
// flush. Deleting it would silently drop rows a checkpoint has already
// compacted out of the log, and serving it would return altered rows;
// reopening must instead fail, name the file and leave it on disk.
func TestUnreadableComponentRefusedOnReopen(t *testing.T) {
	for _, row := range []struct {
		name   string
		damage func(data []byte) []byte
	}{
		{"truncated by one byte", func(data []byte) []byte { return data[:len(data)-1] }},
		{"bit flip in a stored message", func(data []byte) []byte {
			i := bytes.Index(data, []byte("checkpointed"))
			if i < 0 {
				t.Fatal("no stored message text in the component")
			}
			data[i] ^= 0x20 // "checkpointed" -> "Checkpointed"
			return data
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			m1, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
			if err != nil {
				t.Fatal(err)
			}
			ds1 := createMessages(t, m1)
			for i := 0; i < 60; i++ {
				if err := ds1.Insert(message(i, i, int64(i), "checkpointed", 0, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m1.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := m1.Close(); err != nil {
				t.Fatal(err)
			}
			comps, err := filepath.Glob(filepath.Join(dir, "MugshotMessages", "partition-0", "component-*.lsm"))
			if err != nil || len(comps) == 0 {
				t.Fatalf("no partition-0 component after checkpoint: %v", err)
			}
			damaged := comps[0]
			data, err := os.ReadFile(damaged)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(damaged, row.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}

			m2, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m2.Close() })
			ds2, err := m2.CreateDataset(DatasetSpec{Name: "MugshotMessages", Type: messageType(), PrimaryKey: []string{"message-id"}})
			if err == nil {
				rerr := m2.Recover()
				count, _ := ds2.Count()
				t.Fatalf("reopen over a damaged component succeeded (recover: %v, Count = %d of 60)", rerr, count)
			}
			if !strings.Contains(err.Error(), damaged) {
				t.Errorf("error does not name the damaged component %s: %v", damaged, err)
			}
			if _, serr := os.Stat(damaged); serr != nil {
				t.Errorf("damaged component was removed: %v", serr)
			}
		})
	}
}

// damageStoredRecord checkpoints 60 messages into components, closes the
// manager and hands damage the component that holds the stored encoding of
// message 5: its path and image, where the encoding starts in it, the
// encoding and the message's primary key. damage returns the path of the
// component it damaged.
func damageStoredRecord(t *testing.T, dir string, damage func(t *testing.T, path string, image []byte, at int, enc, pk []byte) string) string {
	t.Helper()
	m, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
	if err != nil {
		t.Fatal(err)
	}
	ds := createMessages(t, m)
	for i := 0; i < 60; i++ {
		if err := ds.Insert(message(i, i, int64(i), "checkpointed", 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	enc, err := ds.ser.Encode(nil, message(5, 5, 5, "checkpointed", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	pk, err := ds.PrimaryKeyOf(message(5, 5, 5, "checkpointed", 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	comps, err := filepath.Glob(filepath.Join(dir, "MugshotMessages", "partition-*", "component-*.lsm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range comps {
		image, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(image, enc)
		if at < 0 {
			continue
		}
		return damage(t, path, image, at, enc, pk)
	}
	t.Fatal("message 5 is in no component")
	return ""
}

// TestUndecodableRecordRefusedOnOpen: a component whose checksum holds but
// one of whose records does not decode as the dataset's type is load
// damage, like a flipped bit. Reopening fails with the typed error naming
// the file and leaves it on disk, rather than opening and failing later
// scans. A stored value with bytes after its record is refused the same
// way: a view of a record covers the whole stored value.
func TestUndecodableRecordRefusedOnOpen(t *testing.T) {
	for _, row := range []struct {
		name   string
		damage func(t *testing.T, path string, image []byte, at int, enc, pk []byte) string
	}{
		{"bad presence byte", func(t *testing.T, path string, image []byte, at int, _, _ []byte) string {
			image[at+1] = 7 // the first declared field's presence byte
			if err := lsm.Reseal(image); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}},
		// The tree writes the longer value into a component of its own: a
		// value's length sits with its block's keys, away from the value.
		{"trailing bytes", func(t *testing.T, path string, _ []byte, _ int, enc, pk []byte) string {
			tree, err := lsm.Open(filepath.Dir(path), lsm.Options{Background: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.Insert(pk, append(bytes.Clone(enc), 0)); err != nil {
				t.Fatal(err)
			}
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			comps, err := filepath.Glob(filepath.Join(filepath.Dir(path), "component-*.lsm"))
			if err != nil {
				t.Fatal(err)
			}
			return comps[len(comps)-1]
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			damaged := damageStoredRecord(t, dir, row.damage)
			m, err := NewManager(dir, Options{Partitions: 3, MemBudget: 4 << 10, Journaled: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			// A failure does not scan: reads trust the bytes the check let in.
			if _, err = m.CreateDataset(DatasetSpec{Name: "MugshotMessages", Type: messageType(), PrimaryKey: []string{"message-id"}}); err == nil {
				t.Fatal("reopen over an undecodable record succeeded")
			}
			var ce *lsm.ComponentError
			if !errors.As(err, &ce) || ce.Path != damaged {
				t.Errorf("error is not a component error naming %s: %v", damaged, err)
			}
			if _, serr := os.Stat(damaged); serr != nil {
				t.Errorf("damaged component was removed: %v", serr)
			}
		})
	}
}

// TestUndecodableLoggedRecordFailsRecovery: a primary insert whose log frame
// checks out but whose value does not decode as the dataset's type fails
// Recover with the dataset's corrupt error, rather than reaching the tree
// and failing later scans.
func TestUndecodableLoggedRecordFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Partitions: 2, Journaled: true, MemBudget: 1 << 20}
	m, err := NewManager(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := createMessages(t, m)
	for i := 0; i < 10; i++ {
		if err := ds.Insert(message(i, i, int64(i), "logged", 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	pk := adm.EncodeKey(nil, adm.Int32(99))
	tid := m.wal.Begin()
	_, release, err := m.wal.AppendGroup([]txn.LogRecord{{
		Txn: tid, Kind: txn.OpInsert, Dataset: "MugshotMessages", Partition: ds.partitionFor(pk), Key: pk,
		Value: []byte{0xF0, 7}, // the schema layout's tag, then a bad presence byte
	}})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := m.wal.Commit(tid); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m2.Close() })
	createMessages(t, m2)
	if err := m2.Recover(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover = %v, want the corrupt-record error", err)
	}
}

// TestCloseDrainsBackgroundWorkers: Manager.Close must drain the scheduler
// and leave zero goroutines behind.
func TestCloseDrainsBackgroundWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := NewManager(t.TempDir(), Options{Partitions: 2, MemBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ds := createMessages(t, m)
	for i := 0; i < 300; i++ {
		if err := ds.Insert(message(i, i, int64(i), "fill the memtable to force background flushes", float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Background flushes must actually have happened (the writes above blow
	// through the 1 KiB budget many times over).
	if st := m.Stats(); st.BgFlushes == 0 {
		t.Errorf("BgFlushes = 0 after 300 over-budget inserts; scheduler never ran")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines after Close = %d, want <= %d (scheduler leaked workers)", now, before)
	}
}

// TestBackgroundFlushKeepsQueriesCorrect: with the scheduler racing the
// writer, reads must still see exactly the committed data.
func TestBackgroundFlushKeepsQueriesCorrect(t *testing.T) {
	m, err := NewManager(t.TempDir(), Options{Partitions: 2, MemBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	ds := createMessages(t, m)
	if _, err := ds.CreateIndex(IndexSpec{Name: "byAuthor", Fields: []string{"author-id"}, Kind: BTreeIndex}); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := ds.Insert(message(i, i%10, int64(i), "background flush torture", float64(i%30), 0)); err != nil {
			t.Fatal(err)
		}
		if i%17 == 0 {
			if recs, err := ds.SearchSecondaryRange("byAuthor", adm.Int32(3), adm.Int32(3)); err != nil || len(recs) != (i+7)/10 {
				t.Fatalf("at i=%d: byAuthor=3 returned %d records (%v), want %d", i, len(recs), err, (i+7)/10)
			}
		}
	}
	if count, err := ds.Count(); err != nil || count != n {
		t.Fatalf("Count = %d, %v", count, err)
	}
}

// TestDropIndexRemovesComponentFiles: dropping an index must delete its
// on-disk LSM directory, not leak it.
func TestDropIndexRemovesComponentFiles(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, Options{Partitions: 2, MemBudget: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	ds := createMessages(t, m)
	if _, err := ds.CreateIndex(IndexSpec{Name: "byAuthor", Fields: []string{"author-id"}, Kind: BTreeIndex}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ds.Insert(message(i, i, int64(i), "x", 0, 0))
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	idxDir := filepath.Join(dir, "MugshotMessages", "partition-0", "idx-byAuthor")
	if _, err := os.Stat(idxDir); err != nil {
		t.Fatalf("index dir missing before drop: %v", err)
	}
	if err := ds.DropIndex("byAuthor"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(idxDir); !os.IsNotExist(err) {
		t.Errorf("index dir still present after DropIndex: %v", err)
	}
}
