package txn

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLockManagerExclusion(t *testing.T) {
	lm := NewLockManager()
	key := []byte("pk-1")
	lm.Lock(1, key)
	if !lm.Held(key) {
		t.Fatal("lock should be held")
	}
	// A second transaction must block until the first releases.
	var acquired atomic.Bool
	done := make(chan struct{})
	go func() {
		lm.Lock(2, key)
		acquired.Store(true)
		lm.Unlock(2, key)
		close(done)
	}()
	if acquired.Load() {
		t.Fatal("second transaction acquired the lock while held")
	}
	lm.Unlock(1, key)
	<-done
	if !acquired.Load() {
		t.Fatal("waiter never acquired the lock")
	}
	if lm.Held(key) {
		t.Error("lock should be free after both transactions")
	}
}

func TestLockManagerReentrantAndUnheldUnlock(t *testing.T) {
	lm := NewLockManager()
	key := []byte("k")
	lm.Lock(7, key)
	lm.Lock(7, key) // re-acquire by the same transaction is a no-op
	lm.Unlock(99, key)
	if !lm.Held(key) {
		t.Error("unlock by a non-holder must not release the lock")
	}
	lm.Unlock(7, key)
	if lm.Held(key) {
		t.Error("lock should be released")
	}
}

func TestLockManagerConcurrentCounter(t *testing.T) {
	lm := NewLockManager()
	key := []byte("counter")
	counter := 0
	var wg sync.WaitGroup
	const workers = 16
	const iters = 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tid := ID(id*1000 + i + 1)
				lm.Lock(tid, key)
				counter++
				lm.Unlock(tid, key)
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*iters {
		t.Errorf("counter = %d, want %d (lost updates)", counter, workers*iters)
	}
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	t1 := w.Begin()
	w.Append(LogRecord{Txn: t1, Kind: OpInsert, Dataset: "D", Partition: 2, Key: []byte("k1"), Value: []byte("v1")})
	if err := w.Commit(t1); err != nil {
		t.Fatal(err)
	}
	// An uncommitted transaction: its operations must not be replayed.
	t2 := w.Begin()
	w.Append(LogRecord{Txn: t2, Kind: OpInsert, Dataset: "D", Partition: 0, Key: []byte("k2"), Value: []byte("v2")})
	t3 := w.Begin()
	w.Append(LogRecord{Txn: t3, Kind: OpDelete, Dataset: "D", Partition: 1, Key: []byte("k3")})
	w.Commit(t3)
	w.Close()

	w2, err := OpenWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var replayed []LogRecord
	stats, err := w2.Replay(func(_ uint64, rec LogRecord) error {
		replayed = append(replayed, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 2 || stats.Records != 3 {
		t.Errorf("stats = %+v, want Applied=2 Records=3", stats)
	}
	if len(replayed) != 2 {
		t.Fatalf("replayed %d records, want 2 (uncommitted ops skipped)", len(replayed))
	}
	if replayed[0].Kind != OpInsert || string(replayed[0].Key) != "k1" || string(replayed[0].Value) != "v1" || replayed[0].Partition != 2 {
		t.Errorf("record 0 = %+v", replayed[0])
	}
	if replayed[1].Kind != OpDelete || string(replayed[1].Key) != "k3" {
		t.Errorf("record 1 = %+v", replayed[1])
	}
	// New transaction ids continue after the replayed ones.
	if id := w2.Begin(); id <= t3 {
		t.Errorf("Begin after replay = %d, want > %d", id, t3)
	}
}

func TestWALTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tid := w.Begin()
	w.Append(LogRecord{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte("k"), Value: []byte("v")})
	w.Commit(tid)
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, err := w.Replay(func(uint64, LogRecord) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("replayed %d records after truncate", count)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	tid := w.Begin()
	w.Append(LogRecord{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte("k"), Value: []byte("v")})
	w.Commit(tid)
	// Simulate a torn write at the tail of the log.
	w.file.WriteAt([]byte{0x55, 0x01}, w.size.Load())
	w.Close()

	w2, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	count := 0
	if _, err := w2.Replay(func(uint64, LogRecord) error { count++; return nil }); err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if count != 1 {
		t.Errorf("replayed %d records, want 1", count)
	}
}

func TestLogRecordRoundTrip(t *testing.T) {
	rec := LogRecord{Txn: 42, Kind: OpInsert, Dataset: "MugshotUsers", Index: "sk_idx", Partition: 3, Key: []byte{1, 2, 3}, Value: []byte("payload")}
	buf := appendLogRecord(nil, rec)
	records, lsns, committed, goodLen := decodeLog(buf, 7)
	if len(records) != 1 {
		t.Fatalf("decoded %d records", len(records))
	}
	if goodLen != int64(len(buf)) {
		t.Errorf("goodLen = %d, want %d", goodLen, len(buf))
	}
	if len(lsns) != 1 || lsns[0] != 7 {
		t.Errorf("lsns = %v, want [7]", lsns)
	}
	got := records[0]
	if got.Txn != rec.Txn || got.Kind != rec.Kind || got.Dataset != rec.Dataset || got.Index != rec.Index ||
		got.Partition != rec.Partition || string(got.Key) != string(rec.Key) || string(got.Value) != string(rec.Value) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if len(committed) != 0 {
		t.Error("no commit records were written")
	}
}

func TestWALCRCFlippedByte(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for i := 0; i < 3; i++ {
		offsets = append(offsets, w.size.Load())
		tid := w.Begin()
		w.Append(LogRecord{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte{byte(i)}, Value: []byte("v")})
		w.Commit(tid)
	}
	// Flip one byte inside the second record's payload: the frame length
	// still parses, so only the CRC can catch it.
	var b [1]byte
	corruptAt := offsets[1] + 3
	if _, err := w.file.ReadAt(b[:], corruptAt); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := w.file.WriteAt(b[:], corruptAt); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var warned bool
	w2.Warnf = func(string, ...any) { warned = true }
	count := 0
	stats, err := w2.Replay(func(uint64, LogRecord) error { count++; return nil })
	if err != nil {
		t.Fatalf("replay with corrupt record: %v", err)
	}
	if count != 1 {
		t.Errorf("replayed %d records, want 1 (log truncated at first bad record)", count)
	}
	if !warned {
		t.Error("corruption did not produce a warning")
	}
	if stats.TruncatedAt == 0 {
		t.Error("stats.TruncatedAt = 0, want the corruption LSN")
	}
	// The file was physically truncated: a second replay is clean.
	w2.Warnf = func(format string, args ...any) { t.Errorf("unexpected warning: "+format, args...) }
	count = 0
	if _, err := w2.Replay(func(uint64, LogRecord) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("second replay saw %d records, want 1", count)
	}
	// And the truncated log accepts new appends cleanly.
	tid := w2.Begin()
	if _, err := w2.Append(LogRecord{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(tid); err != nil {
		t.Fatal(err)
	}
	count = 0
	if _, err := w2.Replay(func(uint64, LogRecord) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("after append, replay saw %d records, want 2", count)
	}
}

func TestWALLowWaterTracksInflightAppends(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.LowWater() != w.End() {
		t.Fatalf("idle LowWater = %d, want End = %d", w.LowWater(), w.End())
	}
	tid := w.Begin()
	lsns, release, err := w.AppendGroup([]LogRecord{
		{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte("a")},
		{Txn: tid, Kind: OpInsert, Dataset: "D", Index: "ix", Key: []byte("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 2 || lsns[1] <= lsns[0] {
		t.Fatalf("lsns = %v, want two increasing", lsns)
	}
	// While the group is unapplied, LowWater must not advance past it even
	// though later records exist.
	if _, err := w.Append(LogRecord{Txn: tid, Kind: OpCommit}); err != nil {
		t.Fatal(err)
	}
	if got := w.LowWater(); got != lsns[0] {
		t.Errorf("LowWater with in-flight group = %d, want %d", got, lsns[0])
	}
	release()
	release() // idempotent
	if got, end := w.LowWater(), w.End(); got != end {
		t.Errorf("LowWater after release = %d, want End = %d", got, end)
	}
}

func TestWALCompactKeepsSuffixAndBase(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for i := 0; i < 4; i++ {
		tid := w.Begin()
		lsn, err := w.Append(LogRecord{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		w.Commit(tid)
	}
	if err := w.Compact(lsns[2]); err != nil {
		t.Fatal(err)
	}
	var keys []byte
	var gotLSNs []uint64
	if _, err := w.Replay(func(lsn uint64, rec LogRecord) error {
		keys = append(keys, rec.Key[0])
		gotLSNs = append(gotLSNs, lsn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if string(keys) != string([]byte{2, 3}) {
		t.Errorf("after compact, replayed keys %v, want [2 3]", keys)
	}
	if len(gotLSNs) != 2 || gotLSNs[0] != lsns[2] || gotLSNs[1] != lsns[3] {
		t.Errorf("after compact, LSNs %v, want [%d %d] (stable across compaction)", gotLSNs, lsns[2], lsns[3])
	}
	w.Close()

	// LSNs survive a reopen too: the base lives in the file header.
	w2, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	gotLSNs = nil
	if _, err := w2.Replay(func(lsn uint64, _ LogRecord) error {
		gotLSNs = append(gotLSNs, lsn)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(gotLSNs) != 2 || gotLSNs[0] != lsns[2] {
		t.Errorf("after reopen, LSNs %v, want first = %d", gotLSNs, lsns[2])
	}
	if w2.End() != w.End() {
		t.Errorf("End after reopen = %d, want %d", w2.End(), w.End())
	}
}

// TestWALRefusesOldLayout: a log whose header carries a layout before
// AWALV003 (AWALV001 keyed numbers by width, AWALV002 composites by their
// self-describing bytes) is refused naming that layout and left as it was; a
// header with any other magic is not a WAL.
func TestWALRefusesOldLayout(t *testing.T) {
	rows := []struct{ magic, want string }{
		{"AWALV001", "older log layout (AWALV001)"},
		{"AWALV002", "older log layout (AWALV002)"},
		{"NOTAWAL!", "not a WAL file"},
	}
	for _, row := range rows {
		dir := t.TempDir()
		w, err := OpenWAL(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		tid := w.Begin()
		w.Append(LogRecord{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte("k"), Value: []byte("v")})
		w.Commit(tid)
		w.Close()
		path := filepath.Join(dir, "wal.log")
		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(log, row.magic)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenWAL(dir, false); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), row.want) {
			t.Errorf("OpenWAL over a %s header = %v, want an error naming %s and saying %q", row.magic, err, path, row.want)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, log) {
			t.Errorf("the refused %s log changed (%v)", row.magic, err)
		}
	}
}

// TestWALSyncWritesTailWhenNotJournaled: a non-journaled Sync still writes
// the tail, so a statement's records are in the file (the page cache) when
// it returns — a second process opening the log without Close replays them,
// as recovery after a kill -9 would.
func TestWALSyncWritesTailWhenNotJournaled(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tid := w.Begin()
	_, release, err := w.AppendGroup([]LogRecord{{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte("k"), Value: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := w.CommitNoSync(tid); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var keys []string
	if _, err := w2.Replay(func(_ uint64, rec LogRecord) error {
		keys = append(keys, string(rec.Key))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "k" {
		t.Errorf("second open replayed %q, want [k]", keys)
	}
	if st := w.Stats(); st.Writes != 1 || st.Fsyncs != 0 || st.Commits != 1 {
		t.Errorf("stats = %+v, want one write, no fsync, one commit", st)
	}
}

// TestWALGroupCommit: concurrent journaled committers. When Commit returns,
// the file holds the commit record; no commit costs more than one fsync, and
// replay finds every commit.
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tid := w.Begin()
				key := []byte(fmt.Sprintf("%d-%d", g, i))
				_, release, err := w.AppendGroup([]LogRecord{
					{Txn: tid, Kind: OpInsert, Dataset: "D", Key: key, Value: []byte("v")},
					{Txn: tid, Kind: OpInsert, Dataset: "D", Index: "ix", Key: key},
				})
				if err != nil {
					t.Error(err)
					return
				}
				err = w.Commit(tid)
				release()
				if err != nil {
					t.Error(err)
					return
				}
				data, err := os.ReadFile(w.path)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, committed, _ := decodeLog(data[walHeaderLen:], 0); !committed[tid] {
					t.Errorf("commit of txn %d returned before its record was in the file", tid)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := w.Stats()
	if st.Commits != writers*perWriter {
		t.Errorf("stats counted %d commits, want %d", st.Commits, writers*perWriter)
	}
	if st.Fsyncs == 0 || st.Fsyncs > st.Commits {
		t.Errorf("%d fsyncs for %d commits, want between 1 and one per commit", st.Fsyncs, st.Commits)
	}
	t.Logf("%d commits, %d fsyncs, %d writes", st.Commits, st.Fsyncs, st.Writes)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	stats, err := w2.Replay(func(uint64, LogRecord) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * writers * perWriter; stats.Applied != want || stats.Records != want {
		t.Errorf("replay = %+v, want all %d records of %d commits applied", stats, want, writers*perWriter)
	}
}

// TestWALPoisonedAfterFailedWrite: once a tail write fails, the log's size
// counts bytes the file does not hold, so it refuses every later record and
// sync with the same error.
func TestWALPoisonedAfterFailedWrite(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	tid := w.Begin()
	if _, err := w.Append(LogRecord{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte("k")}); err != nil {
		t.Fatal(err)
	}
	w.file.Close()
	first := w.Sync()
	if first == nil {
		t.Fatal("Sync over a closed file succeeded")
	}
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, first) {
			t.Errorf("%s after a failed write = %v, want %v", op, err, first)
		}
	}
	_, err = w.Append(LogRecord{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte("k2")})
	check("Append", err)
	_, _, err = w.AppendGroup([]LogRecord{{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte("k3")}})
	check("AppendGroup", err)
	check("CommitNoSync", w.CommitNoSync(tid))
	check("Sync", w.Sync())
	check("Commit", w.Commit(tid))
}

// TestWALCompactDuringSync: committers fsync without the latch while a
// checkpoint compacts the log underneath them; nothing is lost or torn.
func TestWALCompactDuringSync(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	w.Warnf = func(format string, args ...any) { t.Errorf("unexpected warning: "+format, args...) }
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	var done atomic.Bool
	compactions := make(chan int)
	go func() {
		n := 0
		for !done.Load() {
			if err := w.Compact(w.LowWater()); err != nil {
				t.Error(err)
				break
			}
			n++
		}
		compactions <- n
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tid := w.Begin()
				_, release, err := w.AppendGroup([]LogRecord{{Txn: tid, Kind: OpInsert, Dataset: "D", Key: []byte(fmt.Sprint(g, i))}})
				if err != nil {
					t.Error(err)
					return
				}
				err = w.Commit(tid)
				release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	t.Logf("%d compactions", <-compactions)
	// Deterministically: a compaction waits out an fsync in flight, which
	// still holds the file it would close.
	w.mu.Lock()
	w.syncing = true
	w.mu.Unlock()
	compacted := make(chan error)
	go func() { compacted <- w.Compact(w.End()) }()
	select {
	case err := <-compacted:
		t.Fatalf("Compact returned (%v) while an fsync was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	w.mu.Lock()
	w.syncing = false
	w.cond.Broadcast()
	w.mu.Unlock()
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	end := w.End()
	if _, err := w.Replay(func(uint64, LogRecord) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	w2.Warnf = w.Warnf
	if _, err := w2.Replay(func(uint64, LogRecord) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if w2.End() != end {
		t.Errorf("End after reopen = %d, want %d", w2.End(), end)
	}
}

// Groups appended side by side — each framed before the latch, copied under
// it — keep their records contiguous, at the LSNs AppendGroup returned, and
// every commit appended in one run counts; transaction ids never repeat.
func TestWALGroupsAppendSideBySide(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const writers, groups, perGroup = 4, 50, 3
	var mu sync.Mutex
	want := map[uint64]LogRecord{} // by LSN
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < groups; i++ {
				var recs []LogRecord
				var txns []ID
				for j := 0; j < perGroup; j++ {
					tid := w.Begin()
					txns = append(txns, tid)
					recs = append(recs, LogRecord{Txn: tid, Kind: OpInsert, Dataset: "D", Partition: g, Key: []byte(fmt.Sprint(g, i, j)), Value: bytes.Repeat([]byte{byte(j)}, i)})
				}
				lsns, release, err := w.AppendGroup(recs)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < perGroup; j++ {
					if lsns[j] <= lsns[j-1] {
						t.Errorf("group lsns %v not increasing", lsns)
					}
				}
				if err := w.CommitNoSync(txns...); err != nil {
					t.Error(err)
				}
				release()
				mu.Lock()
				for j, lsn := range lsns {
					want[lsn] = recs[j]
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got, end := w.LowWater(), w.End(); got != end {
		t.Errorf("LowWater = %d after every release, want End = %d", got, end)
	}
	if c := w.Stats().Commits; c != writers*groups*perGroup {
		t.Errorf("%d commits counted, want %d", c, writers*groups*perGroup)
	}
	seen := map[ID]bool{}
	var last LogRecord
	_, err = w.Replay(func(lsn uint64, rec LogRecord) error {
		wantRec, ok := want[lsn]
		if !ok || wantRec.Txn != rec.Txn || !bytes.Equal(wantRec.Key, rec.Key) || !bytes.Equal(wantRec.Value, rec.Value) {
			t.Errorf("lsn %d replayed %+v, appended %+v", lsn, rec, wantRec)
		}
		if seen[rec.Txn] {
			t.Errorf("transaction id %d used twice", rec.Txn)
		}
		seen[rec.Txn] = true
		// Replay skips commit records, so a group's records follow each
		// other here exactly when they were contiguous in the log.
		if j := rec.Key[len(rec.Key)-1]; j != '0' && !bytes.Equal(last.Key[:len(last.Key)-1], rec.Key[:len(rec.Key)-1]) {
			t.Errorf("record %q does not follow its group's previous record (after %q)", rec.Key, last.Key)
		}
		last = rec
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Errorf("replayed %d committed records, want %d", len(seen), len(want))
	}
}
