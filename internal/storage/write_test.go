package storage

import (
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/crashpoint"
)

// newIndexedMessages opens a manager on dir whose trees never flush on their
// own (a 1 MiB budget) and creates the messages dataset with every index of
// consistencyIndexes.
func newIndexedMessages(t *testing.T, dir string) (*Manager, *Dataset) {
	t.Helper()
	m, err := NewManager(dir, Options{Partitions: 3, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	ds := createMessages(t, m)
	for _, spec := range consistencyIndexes {
		if _, err := ds.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	return m, ds
}

// copyDir copies the regular files under src to dst: what a process killed
// at this moment would leave on disk, since it copies what the files hold,
// not what the process still buffers.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recoverCopy reopens a copied directory with the messages DDL, recovers it,
// and checks that every index agrees with the recovered primary.
func recoverCopy(t *testing.T, dir string) *Dataset {
	t.Helper()
	m, ds := reopenWithDDL(t, dir, consistencyIndexes)
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	checkIndexesAgree(t, ds, "recovered", consistencyWords...)
	return ds
}

// The first record that fails validation ends the statement: the records
// before it are stored, with their index entries, and none after it, even
// when the statement is large enough that its partitions apply in parallel.
func TestInsertBatchStopsAtInvalidRecord(t *testing.T) {
	for _, n := range []int{10, 3 * groupSize} {
		_, ds := newIndexedMessages(t, t.TempDir())
		rng := rand.New(rand.NewSource(5))
		batch := make([]*adm.Record, n)
		for i := range batch {
			batch[i] = randomMessage(rng, i)
		}
		bad := n - 4
		batch[bad] = batch[bad].Set("extra", adm.Boolean(true))
		stored, err := ds.InsertBatch(batch)
		if err == nil {
			t.Fatalf("%d records: an invalid record was accepted", n)
		}
		if stored != bad {
			t.Errorf("%d records: stored %d, want the %d before the invalid one", n, stored, bad)
		}
		all := scanAll(t, ds)
		for i := range batch {
			if _, ok := all[int32(i)]; ok != (i < bad) {
				t.Errorf("%d records: record %d present = %v, want %v", n, i, ok, i < bad)
			}
		}
		checkIndexesAgree(t, ds, "after an invalid record", consistencyWords...)
	}
}

// A key repeated in one statement keeps its last version, and the
// secondary indexes hold only that version's entries, whether the versions
// fall in one group's reach or several.
func TestRepeatedKeyLastVersionWins(t *testing.T) {
	_, ds := newIndexedMessages(t, t.TempDir())
	rng := rand.New(rand.NewSource(9))
	var batch []*adm.Record
	for i := 0; i < 3*groupSize; i++ {
		batch = append(batch, randomMessage(rng, 1000+i))
		switch i {
		case 3, 5, groupSize + 7:
			// Three versions of record 7, each with its own timestamp,
			// location and words.
			batch = append(batch, message(7, 1, int64(10000*i), "version"+string(rune('a'+i%26))+" golf", float64(i), float64(i)))
		}
	}
	last := message(7, 1, 55555, "lastversion hotel", 33, 44)
	batch = append(batch, last)
	if _, err := ds.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ds.LookupPK(adm.Int32(7))
	if err != nil || !ok {
		t.Fatalf("record 7: %v, %v", ok, err)
	}
	if !adm.Equal(got, last) {
		t.Errorf("record 7 = %v, want the last version %v", got, last)
	}
	checkIndexesAgree(t, ds, "repeated key", append([]string{"lastversion", "versiond", "versionf", "versiont"}, consistencyWords...)...)
	for _, word := range []string{"versiond", "versionf", "versiont"} {
		recs, err := ds.SearchSecondaryConjunctive("kwIdx", word)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Errorf("keyword %q still finds %d records of an overwritten version", word, len(recs))
		}
	}
}

// A flush stamped between a group's log append and its apply cannot claim
// the group: its components are stamped at or below the group's first LSN,
// so a crash right after it replays the whole group.
func TestFlushBetweenAppendAndApplyClaimsNothing(t *testing.T) {
	dir := t.TempDir()
	m, ds := newIndexedMessages(t, dir)
	rng := rand.New(rand.NewSource(3))
	var base []*adm.Record
	for i := 0; i < 20; i++ {
		base = append(base, randomMessage(rng, i))
	}
	if _, err := ds.InsertBatch(base); err != nil {
		t.Fatal(err)
	}
	first := m.wal.End()
	flushed := false
	defer crashpoint.SetHook(func(name string) {
		if name == "storage-group-logged" && !flushed {
			flushed = true
			if err := ds.Flush(); err != nil {
				t.Error(err)
			}
		}
	})()
	batch := []*adm.Record{randomMessage(rng, 100), randomMessage(rng, 101), randomMessage(rng, 102)}
	if _, err := ds.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if !flushed {
		t.Fatal("the insert never reached the point between its append and its apply")
	}
	for _, p := range ds.partitions {
		p.mu.Lock()
		for _, tree := range p.allTrees() {
			if tree.DurableLSN() > first {
				t.Errorf("partition %d: a tree is stamped %d, past the group's first LSN %d", p.idNum, tree.DurableLSN(), first)
			}
		}
		p.mu.Unlock()
	}
	image := t.TempDir()
	copyDir(t, dir, image)
	recovered := scanAll(t, recoverCopy(t, image))
	for _, rec := range batch {
		id := int32(rec.Get("message-id").(adm.Int32))
		if got, ok := recovered[id]; !ok || !adm.Equal(got, rec) {
			t.Errorf("record %d after the crash: %v, want %v", id, got, rec)
		}
	}
}

// A flush of one tree waits while a group is between its apply and its
// commit append, and forces the log before its component can become
// durable: a crash the moment the component is in place then leaves the
// group either nowhere or, committed, in every index — never only in the
// flushed tree.
func TestFlushWaitsForGroupCommit(t *testing.T) {
	dir := t.TempDir()
	m, ds := newIndexedMessages(t, dir)
	rng := rand.New(rand.NewSource(4))
	// Every tree gets a component first, so reopening the crash image
	// recovers each index from its own components and the log rather than
	// backfilling it from the primary.
	var base []*adm.Record
	for i := 0; i < 30; i++ {
		base = append(base, randomMessage(rng, i))
	}
	if _, err := ds.InsertBatch(base); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := randomMessage(rng, 42)
	part := ds.partitions[ds.partitionFor(adm.EncodeKey(nil, adm.Int32(42)))]
	applied, resume := make(chan struct{}), make(chan struct{})
	image := t.TempDir()
	var once sync.Once
	defer crashpoint.SetHook(func(name string) {
		switch name {
		case "storage-group-applied":
			close(applied)
			<-resume
		case "lsm-flushed":
			once.Do(func() { copyDir(t, dir, image) })
		}
	})()
	// The writer applies its statement without the statement's closing
	// sync, so only the flush can have put its commit in the file.
	wrote := make(chan error, 1)
	go func() {
		shares, err := ds.keyInserts([]*adm.Record{rec})
		if err == nil {
			_, err = ds.write(shares)
		}
		wrote <- err
	}()
	<-applied
	flushed := make(chan error, 1)
	go func() {
		flushed <- m.sched.runFlush(schedTask{kind: taskFlush, p: part, tree: part.primary})
	}()
	select {
	case err := <-flushed:
		t.Fatalf("the flush finished (%v) while a group was between its apply and its commit", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(resume)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	recovered := scanAll(t, recoverCopy(t, image))
	if got, ok := recovered[42]; !ok || !adm.Equal(got, rec) {
		t.Errorf("record 42 after the crash: %v, want %v", got, rec)
	}
}

// Two statements writing the same keys in opposite orders, beside a third
// deleting some of them, all finish — keys are locked in key order, so no
// two groups wait on each other in a cycle — and leave the primary and every
// secondary index agreeing. Every key the deleter never touches survives.
func TestCrossedStatementsBesideDeletes(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	for _, spec := range consistencyIndexes {
		if _, err := ds.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	const keys = 3 * groupSize
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(10*round + w)))
				batch := make([]*adm.Record, keys)
				for i := range batch {
					id := i
					if w == 1 {
						id = keys - 1 - i
					}
					batch[i] = randomMessage(rng, id)
				}
				if _, err := ds.InsertBatch(batch); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var victims [][]adm.Value
			for id := round; id < keys; id += 3 {
				victims = append(victims, []adm.Value{adm.Int32(int32(id))})
			}
			if _, err := ds.DeleteBatch(victims); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
	}
	all := scanAll(t, ds)
	for id := 0; id < keys; id++ {
		// The last round rewrote every key and deleted those ≡ 2 (mod 3).
		if _, ok := all[int32(id)]; !ok && id%3 != 2 {
			t.Errorf("record %d lost", id)
		}
	}
	checkIndexesAgree(t, ds, "crossed statements", consistencyWords...)
}
