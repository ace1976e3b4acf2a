// Package txn provides AsterixDB's record-level transaction support
// (Section 4.4 of the paper): a node-local lock manager used for primary-key
// locks, a write-ahead log with LSM-index-level logical log records under a
// no-steal/no-force policy, and log-replay recovery that cooperates with the
// LSM components' validity-bit shadowing.
package txn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"asterixdb/internal/crashpoint"
	"asterixdb/internal/fsutil"
)

// ID identifies one record-level transaction.
type ID uint64

// LockManager implements node-local two-phase locking on primary keys.
// Locks are exclusive: AsterixDB only locks for modifications of primary
// indexes, and record-level transactions touch a single key, so shared locks
// and deadlock detection are unnecessary (lock acquisition is totally ordered
// per key and each transaction holds at most a handful of locks).
type LockManager struct {
	mu    sync.Mutex
	locks map[string]*lockEntry
}

type lockEntry struct {
	holder  ID
	waiters []chan struct{}
}

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{locks: map[string]*lockEntry{}}
}

// Lock acquires the exclusive lock on key for txn, blocking until available.
// Re-acquiring a lock already held by the same transaction is a no-op.
func (lm *LockManager) Lock(txn ID, key []byte) {
	k := string(key)
	for {
		lm.mu.Lock()
		entry, held := lm.locks[k]
		if !held {
			lm.locks[k] = &lockEntry{holder: txn}
			lm.mu.Unlock()
			return
		}
		if entry.holder == txn {
			lm.mu.Unlock()
			return
		}
		wait := make(chan struct{})
		entry.waiters = append(entry.waiters, wait)
		lm.mu.Unlock()
		<-wait
	}
}

// Unlock releases the lock on key held by txn. Releasing a lock that is not
// held is a no-op (it can happen when a transaction aborts before acquiring).
func (lm *LockManager) Unlock(txn ID, key []byte) {
	k := string(key)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	entry, held := lm.locks[k]
	if !held || entry.holder != txn {
		return
	}
	delete(lm.locks, k)
	for _, w := range entry.waiters {
		close(w)
	}
}

// Held reports whether any transaction currently holds a lock on key.
func (lm *LockManager) Held(key []byte) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	_, held := lm.locks[string(key)]
	return held
}

// ----------------------------------------------------------------------------
// Write-ahead log
// ----------------------------------------------------------------------------

// OpKind is the kind of a logical log record.
type OpKind uint8

// Logical operation kinds. Each corresponds to one LSM-index-level update,
// matching the paper's "each LSM-index-level update operation generates a
// single log record".
const (
	OpInsert OpKind = iota + 1
	OpDelete
	OpCommit
)

// LogRecord is one entry in the WAL.
type LogRecord struct {
	Txn       ID
	Kind      OpKind
	Dataset   string
	Partition int
	// Index names the secondary index this record targets; empty means the
	// primary index. One dataset operation logs one record per LSM index it
	// touches (the paper's LSM-index-level logging), carrying the exact
	// derived key bytes so recovery never re-derives secondary entries from
	// a primary state that may reflect a different flush boundary.
	Index string
	Key   []byte
	Value []byte
}

// walMagic identifies a WAL file; the 8 bytes after it hold the base LSN of
// the first record (little-endian). Compaction rewrites the file with a
// higher base, so LSNs are stable across the file's lifetime. AWALV003 frames
// records as AWALV001 did, but the keys and partitions they carry are the ones
// the storage layer derives since every value is keyed by its place in
// Compare's order (AWALV001 keyed numbers by width, AWALV002 composites and
// the other non-scalar kinds by their self-describing bytes); a log whose
// header carries an old magic is refused by name, never replayed.
var (
	walMagic     = []byte("AWALV003")
	oldWALMagics = [][]byte{[]byte("AWALV002"), []byte("AWALV001")}
)

const walHeaderLen = 16

// walTailMax is the tail size at which appends write the tail to the file
// before the statement syncs, so a statement of any size buffers at most this
// much of the log in memory.
const walTailMax = 64 << 10

// WAL is an append-only write-ahead log. Writes follow the WAL protocol: the
// storage layer appends the logical record (and the commit record) before the
// in-memory component is modified, and syncs the log before the statement
// returns.
//
// Appends encode records into an in-memory tail; Sync is where bytes reach
// the file: it writes the whole tail with one WriteAt, so a statement costs one
// write however many records it logs (a tail past walTailMax is written
// early). A record's bytes do not depend on its LSN, so appenders frame their
// records (length, payload, CRC) before taking the latch, which then covers
// only the copy into the tail: the partitions of one statement append side by
// side. A journaled Sync then fsyncs as a leader without holding the latch:
// appends go on meanwhile, and a committer whose records the running fsync
// does not cover waits for it and leads the next one. A failed write or fsync
// poisons the log — its size already counts bytes the file may not hold — and
// every later append or sync returns that error.
//
// Every record is assigned a log sequence number (LSN): a byte position in
// the log's address space that survives compaction. LSNs order log records
// against LSM component flushes — a component stamped with LSN s contains
// the effects of every operation with LSN < s.
type WAL struct {
	mu sync.Mutex
	// cond is broadcast when an fsync finishes; committers waiting for the
	// running fsync, Compact and Close wait on it.
	cond *sync.Cond
	path string
	file *os.File
	base uint64 // LSN of the first byte after the header
	// size is the log's logical size including the header and the unwritten
	// tail, which holds the records from size-len(tail) on. It changes only
	// under the latch; SizeBytes reads it without.
	size    atomic.Int64
	tail    []byte
	nextTxn atomic.Uint64
	// journaled controls whether every commit is fsync'd. It mirrors the
	// "write concern: journaled" durability setting used for the insert
	// comparison in Table 4.
	journaled bool
	// synced is the LSN up to which the file is on stable storage; syncing is
	// set while a leader fsyncs without the latch.
	synced  uint64
	syncing bool
	// err is the first failed tail write or fsync; once set the log takes no
	// more records.
	err   error
	stats WALStats
	// inflight holds, for each group appended but not yet applied to its
	// in-memory components, the LSN of the group's first record. LowWater
	// uses it to bound flush stamps: a flush that starts between a group's
	// append and its apply must not claim to contain it, and the first LSN
	// bounds every record of the group.
	inflight map[uint64]int
	// Warnf receives corruption warnings during Replay. Nil means log.Printf.
	// Set it before the WAL is shared across goroutines.
	Warnf func(format string, args ...any)
}

// WALStats counts a log's I/O since it was opened. Commits per fsync and
// writes per statement follow from them.
type WALStats struct {
	Writes    uint64        // tail writes to the file
	Fsyncs    uint64        // fsyncs of the file
	Commits   uint64        // commit records appended
	FsyncTime time.Duration // time spent in fsync
}

// OpenWAL opens (or creates) the log file in dir.
func OpenWAL(dir string, journaled bool) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("txn: open wal: %w", err)
	}
	path := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("txn: open wal: %w", err)
	}
	w := &WAL{path: path, file: f, journaled: journaled, inflight: map[uint64]int{}}
	w.nextTxn.Store(1)
	w.cond = sync.NewCond(&w.mu)
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("txn: open wal: %w", err)
	}
	switch {
	case st.Size() < walHeaderLen:
		// Fresh log, or a crash mid-header-write: no record was ever
		// appended (appends require a complete header), so start over. A
		// created log's directory entry is made durable before any commit.
		err := w.writeHeader(0)
		if err == nil {
			err = fsutil.SyncDir(dir)
		}
		if err != nil {
			f.Close()
			return nil, err
		}
	default:
		var hdr [walHeaderLen]byte
		if _, err := f.ReadAt(hdr[:], 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("txn: read wal header: %w", err)
		}
		for _, old := range oldWALMagics {
			if bytes.Equal(hdr[:len(old)], old) {
				f.Close()
				return nil, fmt.Errorf("txn: %s was written by an older log layout (%s); reload its data into an empty directory", path, old)
			}
		}
		if !bytes.Equal(hdr[:len(walMagic)], walMagic) {
			f.Close()
			return nil, fmt.Errorf("txn: %s is not a WAL file (bad magic)", path)
		}
		w.base = binary.LittleEndian.Uint64(hdr[len(walMagic):])
		w.size.Store(st.Size())
	}
	w.synced = w.endLocked()
	return w, nil
}

// writeHeader truncates the file to a bare header with the given base LSN.
// Caller holds w.mu (or the WAL is not yet shared).
func (w *WAL) writeHeader(base uint64) error {
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint64(hdr[len(walMagic):], base)
	if err := w.file.Truncate(0); err != nil {
		return fmt.Errorf("txn: wal header: %w", err)
	}
	if _, err := w.file.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("txn: wal header: %w", err)
	}
	w.base = base
	w.size.Store(walHeaderLen)
	return nil
}

// Begin allocates a transaction id.
func (w *WAL) Begin() ID {
	return ID(w.nextTxn.Add(1) - 1)
}

// End returns the LSN one past the last appended record — the LSN the next
// record will receive.
func (w *WAL) End() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.endLocked()
}

func (w *WAL) endLocked() uint64 {
	return w.base + uint64(w.size.Load()-walHeaderLen)
}

// LowWater returns a lower bound on the LSNs of operations not yet applied
// to in-memory components: the smallest first LSN of an in-flight group, or
// End() when nothing is in flight. Every operation with LSN < LowWater() has
// been applied, so LowWater is the correct stamp for a flush or checkpoint
// watermark taken at this instant.
func (w *WAL) LowWater() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	low := w.endLocked()
	for lsn := range w.inflight {
		if lsn < low {
			low = lsn
		}
	}
	return low
}

// SizeBytes returns the number of record bytes appended to the log
// (excluding the header), the unwritten tail included — the quantity a
// WAL-size checkpoint trigger watches.
func (w *WAL) SizeBytes() int64 {
	return w.size.Load() - walHeaderLen
}

// Append writes a log record and returns its LSN.
func (w *WAL) Append(rec LogRecord) (uint64, error) {
	bufp := frameBufs.Get().(*[]byte)
	*bufp = appendLogRecord(*bufp, rec)
	commits := uint64(0)
	if rec.Kind == OpCommit {
		commits = 1
	}
	lsn, _, err := w.appendFrames(bufp, commits, false)
	return lsn, err
}

// frameBufs recycles the buffers appenders frame their records in.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendFrames copies records framed by appendLogRecord outside the latch
// into the tail under it, and returns the LSN of the first; commits is how
// many of them are commit records. With inflight set, that LSN stays in
// flight until release; otherwise release does nothing. bufp goes back to
// frameBufs.
func (w *WAL) appendFrames(bufp *[]byte, commits uint64, inflight bool) (first uint64, release func(), err error) {
	w.mu.Lock()
	first, err = w.copyLocked(*bufp, commits)
	if err == nil && inflight {
		w.inflight[first]++
	}
	w.mu.Unlock()
	if cap(*bufp) <= walTailMax {
		*bufp = (*bufp)[:0]
		frameBufs.Put(bufp)
	}
	if err != nil || !inflight {
		return first, func() {}, err
	}
	released := false
	return first, func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		if released {
			return
		}
		released = true
		if w.inflight[first] > 1 {
			w.inflight[first]--
		} else {
			delete(w.inflight, first)
		}
	}, nil
}

// copyLocked appends framed records to the tail and returns the LSN of the
// first; commits is how many of them are commit records.
func (w *WAL) copyLocked(frames []byte, commits uint64) (uint64, error) {
	if w.err != nil {
		return 0, w.err
	}
	lsn := w.endLocked()
	w.tail = append(w.tail, frames...)
	w.size.Add(int64(len(frames)))
	w.stats.Commits += commits
	crashpoint.Hit("wal-append")
	if len(w.tail) >= walTailMax {
		if err := w.writeTailLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// writeTailLocked writes the tail to the file with one WriteAt. A failure
// poisons the log.
func (w *WAL) writeTailLocked() error {
	if w.err != nil {
		return w.err
	}
	if len(w.tail) == 0 {
		return nil
	}
	if _, err := w.file.WriteAt(w.tail, w.size.Load()-int64(len(w.tail))); err != nil {
		return w.poisonLocked(fmt.Errorf("txn: wal write: %w", err))
	}
	w.stats.Writes++
	if cap(w.tail) > 2*walTailMax {
		w.tail = nil // one huge record: do not keep its buffer
	} else {
		w.tail = w.tail[:0]
	}
	crashpoint.Hit("wal-write")
	return nil
}

// poisonLocked records the log's first I/O failure and returns it.
func (w *WAL) poisonLocked(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// quiesceLocked waits out a running fsync and writes the tail, so the file
// holds every appended record and no one else is using it.
func (w *WAL) quiesceLocked() error {
	for w.syncing {
		w.cond.Wait()
	}
	return w.writeTailLocked()
}

// AppendGroup appends a group of records — one record-level transaction's,
// or those of many transactions applied together — as one contiguous run,
// and keeps the group in flight until release is called. The caller
// appends, applies the records to the in-memory components, then releases:
// a concurrent flush stamping itself with LowWater() can then never claim an
// applied-later record. release is idempotent and must be called exactly once
// per group on every path (including errors after a successful append).
func (w *WAL) AppendGroup(recs []LogRecord) (lsns []uint64, release func(), err error) {
	bufp := frameBufs.Get().(*[]byte)
	lsns = make([]uint64, len(recs))
	commits := uint64(0)
	for i, rec := range recs {
		lsns[i] = uint64(len(*bufp))
		*bufp = appendLogRecord(*bufp, rec)
		if rec.Kind == OpCommit {
			commits++
		}
	}
	first, release, err := w.appendFrames(bufp, commits, true)
	if err != nil {
		return nil, nil, err
	}
	for i := range lsns {
		lsns[i] += first
	}
	return lsns, release, nil
}

// Commit writes the commit record for txn and, when journaled, syncs the log
// to stable storage before returning.
func (w *WAL) Commit(txn ID) error {
	if err := w.CommitNoSync(txn); err != nil {
		return err
	}
	return w.Sync()
}

// CommitNoSync writes the commit records of the given transactions, in one
// append, without forcing them to stable storage. Batched statements commit
// each record-level transaction this way and call Sync once at the end, which
// is the mechanism behind the Table 4 batching speed-up.
func (w *WAL) CommitNoSync(txns ...ID) error {
	bufp := frameBufs.Get().(*[]byte)
	for _, txn := range txns {
		*bufp = appendLogRecord(*bufp, LogRecord{Txn: txn, Kind: OpCommit})
	}
	_, _, err := w.appendFrames(bufp, uint64(len(txns)), false)
	return err
}

// Sync writes every appended record to the file and, when the WAL is
// journaled, forces it to stable storage before returning. The tail goes out
// in one write, so both modes leave an acknowledged statement's records at
// least in the page cache, where a kill -9 cannot lose them. A journaled sync
// leads an fsync without holding the latch, or waits for the running one and
// leads the next if that one started before its records were written: one
// fsync covers every commit written before it started.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.writeTailLocked(); err != nil {
		return err
	}
	if !w.journaled {
		return nil
	}
	target := w.endLocked()
	for w.synced < target {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		if w.err != nil {
			return w.err // the fsync this committer waited on failed
		}
		if err := w.fsyncLocked(); err != nil {
			return err
		}
	}
	return nil
}

// fsyncLocked fsyncs everything already in the file with the latch released;
// syncing keeps Compact and Close from swapping or closing the file
// underneath it.
func (w *WAL) fsyncLocked() error {
	upto, f := w.endLocked()-uint64(len(w.tail)), w.file
	w.syncing = true
	w.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	elapsed := time.Since(start)
	w.mu.Lock()
	w.syncing = false
	w.cond.Broadcast()
	w.stats.Fsyncs++
	w.stats.FsyncTime += elapsed
	if err != nil {
		return w.poisonLocked(fmt.Errorf("txn: wal fsync: %w", err))
	}
	crashpoint.Hit("wal-sync")
	w.synced = max(w.synced, upto)
	return nil
}

// Stats reports the log's I/O counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Close writes the tail and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.quiesceLocked()
	if cerr := w.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Truncate empties the log, preserving the LSN address space (the new base
// is the current end). The storage layer calls it after all datasets have
// flushed their in-memory components (a checkpoint): everything the log
// protects is then inside valid disk components.
func (w *WAL) Truncate() error {
	return w.Compact(w.End())
}

// Compact atomically discards every record with LSN < keep: the retained
// suffix is rewritten to a temp file with an updated base and renamed over
// the log. The caller guarantees that discarded records are durable in
// flushed components (keep must not exceed any component stamp it protects).
// keep is clamped to [base, End()] and always lands on a record boundary
// because LSNs are assigned at record starts.
func (w *WAL) Compact(keep uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.quiesceLocked(); err != nil {
		return err
	}
	if end := w.endLocked(); keep > end {
		keep = end
	}
	if keep <= w.base {
		return nil // nothing to discard
	}
	suffixLen := w.size.Load() - walHeaderLen - int64(keep-w.base)
	buf := make([]byte, walHeaderLen+suffixLen)
	copy(buf, walMagic)
	binary.LittleEndian.PutUint64(buf[len(walMagic):], keep)
	if suffixLen > 0 {
		if _, err := w.file.ReadAt(buf[walHeaderLen:], walHeaderLen+int64(keep-w.base)); err != nil {
			return fmt.Errorf("txn: wal compact: %w", err)
		}
	}
	crashpoint.Hit("wal-compact-pre")
	if err := fsutil.WriteFileAtomic(w.path, buf, 0o644); err != nil {
		return fmt.Errorf("txn: wal compact: %w", err)
	}
	crashpoint.Hit("wal-compact-post")
	// The old fd points at the unlinked inode; reopen the renamed file.
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("txn: wal compact reopen: %w", err)
	}
	w.file.Close()
	w.file = f
	w.base = keep
	w.size.Store(int64(len(buf)))
	w.synced = w.endLocked() // WriteFileAtomic fsynced the new file
	return nil
}

// ReplayStats summarizes one Replay pass for the recovery metrics.
type ReplayStats struct {
	// Records is the number of operation records decoded (commit records and
	// uncommitted operations excluded from Applied but included here).
	Records int
	// Applied is the number of committed operation records handed to apply.
	Applied int
	// TruncatedAt is the LSN at which a corrupt record was found and the log
	// was truncated; zero when the log was clean.
	TruncatedAt uint64
}

// Replay reads the log and invokes apply for every operation belonging to a
// committed transaction, in log order, passing each record's LSN. Operations
// of uncommitted transactions are ignored (no-steal means they can never
// have reached disk). A record whose CRC does not match is treated as the
// end of the log: everything from it onward is discarded and the file is
// truncated at the last good record, with a warning — a torn tail write and
// mid-log bit rot look the same to recovery.
//
// The log is read and decoded under the WAL latch, but apply runs after it
// is released: apply re-enters the storage layer, and a caller-supplied
// callback must never run under a lock it did not take itself (the
// ScanPartition deadlock class).
func (w *WAL) Replay(apply func(lsn uint64, rec LogRecord) error) (ReplayStats, error) {
	var stats ReplayStats
	w.mu.Lock()
	if err := w.quiesceLocked(); err != nil {
		w.mu.Unlock()
		return stats, err
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		w.mu.Unlock()
		return stats, err
	}
	if len(data) < walHeaderLen {
		w.mu.Unlock()
		return stats, nil
	}
	records, lsns, committed, goodLen := decodeLog(data[walHeaderLen:], w.base)
	if goodLen < int64(len(data))-walHeaderLen {
		stats.TruncatedAt = w.base + uint64(goodLen)
		w.warnf("txn: wal corrupt at lsn %d: truncating %d byte(s)",
			stats.TruncatedAt, int64(len(data))-walHeaderLen-goodLen)
		if err := w.file.Truncate(walHeaderLen + goodLen); err != nil {
			w.mu.Unlock()
			return stats, fmt.Errorf("txn: wal truncate after corruption: %w", err)
		}
		// Make the truncate durable: without it, a crash during recovery
		// could resurrect the corrupt bytes (harmless but inconsistent with
		// the fsync discipline everywhere else in this file).
		if err := w.file.Sync(); err != nil {
			w.mu.Unlock()
			return stats, fmt.Errorf("txn: wal sync after corruption truncate: %w", err)
		}
		w.size.Store(walHeaderLen + goodLen)
		w.synced = w.endLocked()
	}
	maxTxn := ID(w.nextTxn.Load())
	for _, rec := range records {
		if rec.Txn >= maxTxn {
			maxTxn = rec.Txn + 1
		}
	}
	w.nextTxn.Store(uint64(maxTxn))
	w.mu.Unlock()
	for i, rec := range records {
		if rec.Kind == OpCommit {
			continue
		}
		stats.Records++
		if !committed[rec.Txn] {
			continue
		}
		stats.Applied++
		if err := apply(lsns[i], rec); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

func (w *WAL) warnf(format string, args ...any) {
	if w.Warnf != nil {
		w.Warnf(format, args...)
		return
	}
	log.Printf(format, args...)
}

var crcTable = crc32.MakeTable(crc32.IEEE)

// appendLogRecord appends a record framed as uvarint(len) ‖ payload ‖
// crc32(payload). The length bounds a torn tail; the CRC catches bit
// corruption inside an intact-looking frame.
func appendLogRecord(dst []byte, rec LogRecord) []byte {
	payload := uvarintLen(uint64(rec.Txn)) + 1 +
		fieldLen(len(rec.Dataset)) + fieldLen(len(rec.Index)) +
		uvarintLen(uint64(rec.Partition)) +
		fieldLen(len(rec.Key)) + fieldLen(len(rec.Value))
	dst = binary.AppendUvarint(dst, uint64(payload))
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(rec.Txn))
	dst = append(dst, byte(rec.Kind))
	dst = appendField(dst, rec.Dataset)
	dst = appendField(dst, rec.Index)
	dst = binary.AppendUvarint(dst, uint64(rec.Partition))
	dst = appendField(dst, rec.Key)
	dst = appendField(dst, rec.Value)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

func appendField[T string | []byte](dst []byte, b T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func fieldLen(n int) int { return uvarintLen(uint64(n)) + n }

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// decodeLog decodes records sequentially, computing each record's LSN from
// base + offset. It stops at the first torn or corrupt frame and returns the
// byte length of the good prefix.
func decodeLog(data []byte, base uint64) (records []LogRecord, lsns []uint64, committed map[ID]bool, goodLen int64) {
	committed = map[ID]bool{}
	offset := int64(0)
	for offset < int64(len(data)) {
		rest := data[offset:]
		frameLen, n := binary.Uvarint(rest)
		if n <= 0 {
			break // torn length prefix
		}
		total := int64(n) + int64(frameLen) + 4
		if int64(len(rest)) < total {
			break // torn tail: ignore the partial record
		}
		frame := rest[n : int64(n)+int64(frameLen)]
		wantCRC := binary.LittleEndian.Uint32(rest[int64(n)+int64(frameLen):])
		if crc32.Checksum(frame, crcTable) != wantCRC {
			break // corrupt record: treat as end of log
		}
		rec, err := decodeLogRecord(frame)
		if err != nil {
			break // undecodable despite a good CRC: treat as end of log
		}
		records = append(records, rec)
		lsns = append(lsns, base+uint64(offset))
		if rec.Kind == OpCommit {
			committed[rec.Txn] = true
		}
		offset += total
	}
	return records, lsns, committed, offset
}

func decodeLogRecord(frame []byte) (LogRecord, error) {
	rd := bytes.NewReader(frame)
	var rec LogRecord
	txn, err := binary.ReadUvarint(rd)
	if err != nil {
		return rec, err
	}
	rec.Txn = ID(txn)
	kind, err := rd.ReadByte()
	if err != nil {
		return rec, err
	}
	rec.Kind = OpKind(kind)
	ds, err := readString(rd)
	if err != nil {
		return rec, err
	}
	rec.Dataset = ds
	idx, err := readString(rd)
	if err != nil {
		return rec, err
	}
	rec.Index = idx
	part, err := binary.ReadUvarint(rd)
	if err != nil {
		return rec, err
	}
	rec.Partition = int(part)
	rec.Key, err = readBytes(rd)
	if err != nil {
		return rec, err
	}
	rec.Value, err = readBytes(rd)
	if err != nil {
		return rec, err
	}
	return rec, nil
}

func readString(rd *bytes.Reader) (string, error) {
	b, err := readBytes(rd)
	return string(b), err
}

func readBytes(rd *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	// io.ReadFull, not rd.Read: a bare Read on a reader with fewer than n
	// bytes left returns short with a nil error, silently truncating the
	// field.
	if _, err := io.ReadFull(rd, out); err != nil {
		return nil, fmt.Errorf("txn: short read: %w", err)
	}
	return out, nil
}
