// Package storage implements AsterixDB's native storage layer (Sections 2.2
// and 4.3 of the paper): datasets hash-partitioned on primary key across node
// partitions, a primary LSM B+-tree per partition, node-local secondary
// indexes (B+-tree, R-tree, inverted keyword / n-gram) that point at primary
// keys, record-level transactions via the txn package, and the
// secondary-search → sort PKs → primary-search → post-validation access path
// shown in Figure 6.
package storage

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/crashpoint"
	"asterixdb/internal/fsutil"
	"asterixdb/internal/invidx"
	"asterixdb/internal/lsm"
	"asterixdb/internal/rtree"
	"asterixdb/internal/spatial"
	"asterixdb/internal/txn"
)

// Sentinel errors. Callers match them with errors.Is; the messages read as
// parts of the wrapped "storage: <object> ..." text.
var (
	// ErrExists reports that a dataset or index with the given name exists.
	ErrExists = errors.New("already exists")
	// ErrNotFound reports that a dataset or index does not exist.
	ErrNotFound = errors.New("does not exist")
	// ErrCorrupt reports stored record bytes that do not decode.
	ErrCorrupt = errors.New("decode stored record")
)

// IndexKind enumerates secondary index kinds.
type IndexKind string

// Secondary index kinds, matching the DDL "type" clause.
const (
	BTreeIndex   IndexKind = "btree"
	RTreeIndex   IndexKind = "rtree"
	KeywordIndex IndexKind = "keyword"
	NGramIndex   IndexKind = "ngram"
)

// IndexSpec describes a secondary index on a dataset.
type IndexSpec struct {
	Name       string
	Fields     []string
	Kind       IndexKind
	GramLength int // ngram indexes only
}

// DatasetSpec describes a dataset to create. Records are stored in the
// schema layout: declared fields by position, undeclared (open) fields
// self-describing, so a type that declares only the key is the paper's
// KeyOnly configuration (Table 2).
type DatasetSpec struct {
	Name       string
	Type       *adm.RecordType
	PrimaryKey []string
}

// Options configure a storage Manager.
type Options struct {
	// Partitions is the number of storage partitions a dataset is hashed
	// across (the paper used 30 across 10 nodes; we default to 4).
	Partitions int
	// Journaled syncs the WAL on every commit (Table 4's durability setting).
	Journaled bool
	// MemBudget is the in-memory component budget of each LSM tree: the
	// primary index and every secondary index of every partition has its own.
	MemBudget int
	// EagerDecode makes ScanPartition, FetchPKPartition and
	// FetchEqualPartition decode every record to the full Value tree up front
	// instead of emitting lazily-decoded records viewing the stored bytes.
	// The lazy path is the default; this knob exists for the lazy-vs-eager
	// differential tests and as an escape hatch.
	EagerDecode bool
	// Owns restricts which partitions this manager stores records for: a
	// cluster node controller owns a subset of the hash space, and inserts
	// skip records whose primary key hashes to a partition owned by another
	// node. Every partition's trees still exist on disk (non-owned ones stay
	// empty), so scans and index searches work unchanged. Nil owns all.
	Owns func(partition int) bool
	// CheckpointWALBytes is the WAL size that triggers a background
	// checkpoint, bounding both log growth and recovery replay. Zero means
	// DefaultCheckpointWALBytes; negative disables the trigger.
	CheckpointWALBytes int64
}

// DefaultPartitions is the default number of storage partitions.
const DefaultPartitions = 4

// DefaultCheckpointWALBytes is the default WAL size that triggers a
// background checkpoint.
const DefaultCheckpointWALBytes = 8 << 20

// Manager owns every dataset of an AsterixDB instance: it provides dataset
// lifecycle, the shared lock manager and WAL, background flush/merge
// scheduling, checkpointing, and crash recovery.
type Manager struct {
	dir  string
	opts Options

	locks *txn.LockManager
	wal   *txn.WAL
	sched *scheduler
	// cache is the page cache every tree's disk components are read
	// through.
	cache *lsm.Cache

	// ckptMu serializes checkpoints (only one runs at a time).
	ckptMu sync.Mutex

	// statsMu guards the durability counters below.
	statsMu      sync.Mutex
	recovery     RecoveryStats
	ckptCount    uint64
	lastCkptUnix int64

	mu       sync.RWMutex
	datasets map[string]*Dataset
}

// NewManager creates (or reopens) a storage manager rooted at dir.
func NewManager(dir string, opts Options) (*Manager, error) {
	if opts.Partitions <= 0 {
		opts.Partitions = DefaultPartitions
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	// A crash mid-compaction can leave the WAL's half-written temp file
	// behind; the durable log was renamed into place atomically.
	if err := fsutil.RemoveTempFiles(dir); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	wal, err := txn.OpenWAL(dir, opts.Journaled)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		dir:      dir,
		opts:     opts,
		locks:    txn.NewLockManager(),
		wal:      wal,
		cache:    lsm.NewCache(lsm.CacheBytes),
		datasets: map[string]*Dataset{},
	}
	m.sched = newScheduler(m)
	return m, nil
}

// lsmOptions builds the per-tree LSM options: trees never flush inline — the
// background scheduler owns that — and read through the manager's cache.
func (m *Manager) lsmOptions() lsm.Options {
	return lsm.Options{
		MemBudget:  m.opts.MemBudget,
		Background: true,
		Cache:      m.cache,
	}
}

// memBudget is the effective per-tree in-memory budget.
func (m *Manager) memBudget() int {
	if m.opts.MemBudget > 0 {
		return m.opts.MemBudget
	}
	return lsm.DefaultMemBudget
}

// checkpointThreshold is the effective WAL-size checkpoint trigger
// (0 = disabled).
func (m *Manager) checkpointThreshold() int64 {
	switch {
	case m.opts.CheckpointWALBytes < 0:
		return 0
	case m.opts.CheckpointWALBytes == 0:
		return DefaultCheckpointWALBytes
	default:
		return m.opts.CheckpointWALBytes
	}
}

// Partitions returns the partition count used for new datasets.
func (m *Manager) Partitions() int { return m.opts.Partitions }

// CreateDataset creates a dataset with the given spec.
func (m *Manager) CreateDataset(spec DatasetSpec) (*Dataset, error) {
	if spec.Type == nil {
		return nil, fmt.Errorf("storage: dataset %q needs a record type", spec.Name)
	}
	if len(spec.PrimaryKey) == 0 {
		return nil, fmt.Errorf("storage: dataset %q needs a primary key", spec.Name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.datasets[spec.Name]; exists {
		return nil, fmt.Errorf("storage: dataset %q: %w", spec.Name, ErrExists)
	}
	ds := &Dataset{
		spec:    spec,
		manager: m,
		ser:     adm.NewSerializer(spec.Type, adm.SchemaEncoding),
	}
	// A primary component read from disk is where stored record bytes enter
	// the process: each record is checked there, once, so reads only wrap it.
	opts := m.lsmOptions()
	opts.CheckValue = ds.ser.CheckStored
	for p := 0; p < m.opts.Partitions; p++ {
		dir := filepath.Join(m.dir, spec.Name, fmt.Sprintf("partition-%d", p))
		primary, err := lsm.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		pt := &partition{
			idNum:   p,
			primary: primary,
			indexes: map[string]*lsm.Tree{},
		}
		pt.idle.L = &pt.mu
		ds.partitions = append(ds.partitions, pt)
	}
	m.datasets[spec.Name] = ds
	return ds, nil
}

// Dataset returns the named dataset.
func (m *Manager) Dataset(name string) (*Dataset, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ds, ok := m.datasets[name]
	return ds, ok
}

// Datasets lists dataset names in sorted order.
func (m *Manager) Datasets() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.datasets))
	for n := range m.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DropDataset removes a dataset and its on-disk files.
func (m *Manager) DropDataset(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.datasets[name]; !ok {
		return fmt.Errorf("storage: dataset %q: %w", name, ErrNotFound)
	}
	delete(m.datasets, name)
	return os.RemoveAll(filepath.Join(m.dir, name))
}

// RecoveryStats summarizes the last Recover call.
type RecoveryStats struct {
	// Duration is the wall-clock time Recover took.
	Duration time.Duration
	// Records is the number of operation records decoded from the WAL.
	Records int
	// Replayed counts records applied because their LSN was at or past the
	// target tree's durable watermark; Skipped counts those already inside a
	// durable component. A checkpoint just before the crash makes Replayed
	// small regardless of log history length.
	Replayed int
	Skipped  int
	// TruncatedAt is non-zero if tail corruption made recovery truncate the
	// log at that LSN.
	TruncatedAt uint64
}

// Recover replays the WAL into the datasets. It must be called after the
// datasets and their indexes have been re-created (the metadata layer does
// this), and before serving queries. Every record carries the exact tree it
// targets (primary or a named secondary index) and the exact derived key
// bytes, and is applied only if its LSN is at or past that tree's durable
// watermark — so a flush that made one index durable but not another
// replays precisely the missing suffix into each.
func (m *Manager) Recover() error {
	start := time.Now()
	var st RecoveryStats
	walStats, err := m.wal.Replay(func(lsn uint64, rec txn.LogRecord) error {
		ds, ok := m.Dataset(rec.Dataset)
		if !ok {
			return nil // dataset since dropped
		}
		applied, aerr := ds.applyLogged(lsn, rec)
		if applied {
			st.Replayed++
		} else {
			st.Skipped++
		}
		return aerr
	})
	st.Records = walStats.Records
	st.TruncatedAt = walStats.TruncatedAt
	st.Duration = time.Since(start)
	m.statsMu.Lock()
	m.recovery = st
	m.statsMu.Unlock()
	if err != nil {
		return err
	}
	m.scheduleOverBudget()
	return nil
}

// scheduleOverBudget hands any tree that recovery left over its in-memory
// budget to the background scheduler. Recover is its one caller: a load
// stores its records through InsertBatch, whose groups each call maintain.
func (m *Manager) scheduleOverBudget() {
	budget := m.memBudget()
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, ds := range m.datasets {
		for _, p := range ds.partitions {
			var over []*lsm.Tree
			p.mu.Lock()
			for _, t := range p.allTrees() {
				if t.MemBytes() >= budget {
					over = append(over, t)
				}
			}
			p.mu.Unlock()
			for _, t := range over {
				m.sched.requestFlush(p, t)
			}
		}
	}
}

// maintain runs after a committed mutation on one partition: it queues
// over-budget trees for background flushing, triggers a checkpoint when the
// WAL has outgrown its threshold, and — if a tree is far past budget —
// stalls the writer briefly (backpressure) so the flush can catch up.
func (m *Manager) maintain(d *Dataset, part int) {
	p := d.partitions[part]
	budget := m.memBudget()
	var over []*lsm.Tree
	var pressured *lsm.Tree
	p.mu.Lock()
	for _, t := range p.allTrees() {
		if t.MemBytes() >= budget {
			over = append(over, t)
			if pressured == nil && t.MemBytes() >= budget*backpressureLimit {
				pressured = t
			}
		}
	}
	p.mu.Unlock()
	for _, t := range over {
		m.sched.requestFlush(p, t)
	}
	if thr := m.checkpointThreshold(); thr > 0 && m.wal.SizeBytes() >= thr {
		m.sched.requestCheckpoint()
	}
	if pressured != nil {
		m.sched.waitForFlush(p, pressured, budget*backpressureLimit)
	}
}

// Close drains the background scheduler (queued flushes, merges and
// checkpoints still run) and then closes the WAL. Dataset components need no
// closing: a component's file closes once the component is unreachable.
func (m *Manager) Close() error {
	schedErr := m.sched.close()
	err := m.wal.Close()
	if schedErr != nil {
		return schedErr
	}
	return err
}

// ----------------------------------------------------------------------------
// Dataset
// ----------------------------------------------------------------------------

// Dataset is a stored, partitioned collection of records of one Datatype.
type Dataset struct {
	spec    DatasetSpec
	manager *Manager
	ser     *adm.Serializer

	// indexes is the maintained set, which writers, WAL replay and flushes
	// keep up to date; a query plans on the catalog's list (see Index).
	mu         sync.RWMutex
	indexes    []*Index
	partitions []*partition
}

// partition is one storage partition: a primary LSM B+-tree plus the local
// portion of every maintained secondary index, by name, each an LSM tree
// with its own durable watermark. The mutex is the node-local latch that
// makes individual index operations atomic (Section 4.4).
type partition struct {
	idNum int
	mu    sync.Mutex
	// applying counts the groups that have begun applying to the partition's
	// trees and not yet appended their commit records; idle (on mu) is
	// broadcast when it drops to zero. A flush waits for zero.
	applying int
	idle     sync.Cond

	primary *lsm.Tree
	indexes map[string]*lsm.Tree
}

// Index is a secondary index of any kind: one LSM tree per partition, whose
// keys the kind's codec derives from a record (secondaryEntries) and whose
// probes its search turns into candidate primary keys. A query job searches
// the handle its catalog version resolved, so it never looks an index up by
// name, and an index dropped under it stays readable (see DropIndex).
type Index struct {
	spec  IndexSpec
	d     *Dataset
	trees []*lsm.Tree // by partition
}

// Spec returns the index's specification.
func (x *Index) Spec() IndexSpec { return x.spec }

// allTrees lists every LSM tree in the partition (primary first). Caller
// holds p.mu.
func (p *partition) allTrees() []*lsm.Tree {
	return slices.AppendSeq([]*lsm.Tree{p.primary}, maps.Values(p.indexes))
}

// treeFor resolves a WAL record's target tree: "" is the primary, anything
// else a secondary index name. Nil means the index was dropped since the
// record was logged. Caller holds p.mu.
func (p *partition) treeFor(name string) *lsm.Tree {
	if name == "" {
		return p.primary
	}
	return p.indexes[name]
}

// Spec returns the dataset's specification.
func (d *Dataset) Spec() DatasetSpec { return d.spec }

// DatasetStats is a point-in-time aggregate of one dataset's LSM state
// across its partitions, for the /metrics endpoints.
type DatasetStats struct {
	// MemBytes is the primary index's in-memory component footprint (the
	// bytes of its arena) across partitions; SecondaryMemBytes is the same
	// across every LSM-backed secondary index.
	MemBytes          int
	SecondaryMemBytes int
	// Components counts the primary index's disk components; Flushes and
	// Merges are its lifetime flush/merge totals.
	Components int
	Flushes    int
	Merges     int
	// SecondaryComponents counts disk components across every LSM-backed
	// secondary index (B+-tree, R-tree and inverted alike).
	SecondaryComponents int
	// Reads sums the point-read counters of every tree: the point reads,
	// the disk components their filters skipped, and the filter false
	// positives (a search that missed).
	Reads lsm.ReadStats
	// FilterBytes is the memory the primary index's component filters
	// hold; a component has one once a point read has reached it.
	FilterBytes int
}

// Stats aggregates the dataset's LSM counters under each partition latch.
func (d *Dataset) Stats() DatasetStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var s DatasetStats
	for _, p := range d.partitions {
		p.mu.Lock()
		s.MemBytes += p.primary.MemBytes()
		s.Components += p.primary.Components()
		s.Flushes += p.primary.Flushes()
		s.Merges += p.primary.Merges()
		s.FilterBytes += p.primary.FilterBytes()
		for i, t := range p.allTrees() {
			if i > 0 {
				s.SecondaryMemBytes += t.MemBytes()
				s.SecondaryComponents += t.Components()
			}
			r := t.Reads()
			s.Reads.PointReads += r.PointReads
			s.Reads.FilterSkips += r.FilterSkips
			s.Reads.FilterFalsePositives += r.FilterFalsePositives
		}
		p.mu.Unlock()
	}
	return s
}

// maintained returns the named index of the maintained set, or nil. Query
// jobs never look an index up by name; only the searches below do.
func (d *Dataset) maintained(name string) *Index {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if i := slices.IndexFunc(d.indexes, func(x *Index) bool { return x.spec.Name == name }); i >= 0 {
		return d.indexes[i]
	}
	return nil
}

// indexDir is the on-disk root of one secondary index partition.
func (d *Dataset) indexDir(p *partition, name string) string {
	return filepath.Join(d.manager.dir, d.spec.Name, fmt.Sprintf("partition-%d", p.idNum), "idx-"+name)
}

// tokenizerFor reconstructs an inverted index's tokenizer from its spec.
func tokenizerFor(ix IndexSpec) invidx.Tokenizer {
	if ix.Kind == NGramIndex {
		return invidx.NGramTokenizer(ix.GramLength)
	}
	return invidx.KeywordTokenizer
}

// CreateIndex adds a secondary index, opening (or reopening) its LSM trees
// and bulk-building it from existing data when it is brand new, and returns
// its handle once the backfill is done.
//
// Ordering matters for concurrent writers. Every partition's trees are
// opened BEFORE the spec is published in d.indexes: a writer that sees the
// spec must always find the tree, or applyRecordLocked would silently drop
// its derived records while the backfill scan may already be past its key.
// The publish happens under d.mu.Lock, which waits out every in-flight
// writer (writers hold d.mu.RLock from deriving their log records through
// committing them), so by the time the backfill scans a partition, any record
// whose group carries no entries for this index is already in the primary.
//
// A half-built index is in the maintained set only: the caller publishes the
// handle to queries after this returns. A failed backfill drops the index
// again (spec, trees and directories), so a retry does not adopt whatever a
// background flush had already written instead of reporting the same error.
func (d *Dataset) CreateIndex(spec IndexSpec) (*Index, error) {
	if !slices.Contains([]IndexKind{BTreeIndex, RTreeIndex, KeywordIndex, NGramIndex}, spec.Kind) {
		return nil, fmt.Errorf("storage: unknown index kind %q", spec.Kind)
	}
	if spec.Kind == NGramIndex && spec.GramLength <= 0 {
		spec.GramLength = 3
	}
	d.mu.Lock()
	for _, ix := range d.indexes {
		if ix.spec.Name == spec.Name {
			d.mu.Unlock()
			return nil, fmt.Errorf("storage: index %q on %q: %w", spec.Name, d.spec.Name, ErrExists)
		}
	}
	x := &Index{spec: spec, d: d}
	for _, p := range d.partitions {
		tree, err := lsm.Open(d.indexDir(p, spec.Name), d.manager.lsmOptions())
		if err != nil {
			// Unpublish the partial create so a retry starts clean.
			d.detachIndex(spec.Name)
			d.mu.Unlock()
			return nil, err
		}
		p.mu.Lock()
		p.indexes[spec.Name] = tree
		p.mu.Unlock()
		x.trees = append(x.trees, tree)
	}
	d.indexes = append(d.indexes, x)
	d.mu.Unlock()

	for i, p := range d.partitions {
		if err := d.backfillIndexPartition(p, spec, x.trees[i]); err != nil {
			if dropErr := d.DropIndex(spec.Name); dropErr != nil {
				return nil, errors.Join(err, dropErr)
			}
			return nil, err
		}
	}
	return x, nil
}

// detachIndex removes the named index's tree from every partition. Caller
// holds d.mu (write).
func (d *Dataset) detachIndex(name string) {
	for _, p := range d.partitions {
		p.mu.Lock()
		delete(p.indexes, name)
		p.mu.Unlock()
	}
}

func (d *Dataset) backfillIndexPartition(p *partition, spec IndexSpec, tree *lsm.Tree) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Reopening after a restart: the index already has durable components,
	// and the WAL suffix carries every operation past its watermark, so
	// recovery completes it. A backfill scan here would read pre-recovery
	// primary state and is skipped.
	if tree.Components() > 0 {
		return nil
	}
	// Brand-new index (or one that crashed before its first flush): flush the
	// primary, then backfill by scanning it. The backfill itself is not
	// WAL-logged — it is reproduced by exactly this code path on recovery —
	// so everything it indexes must be durable primary state; operations
	// still in the WAL carry their own per-index records and are replayed on
	// top, in log order. The flush deliberately keeps the primary's existing
	// durable stamp: CreateIndex also runs on reopen BEFORE Recover, when the
	// WAL suffix is not yet applied, and advancing the stamp here would make
	// recovery skip it (FlushStamped clamps stamp 0 up to it).
	if err := p.flushLocked(d.manager.wal, 0, p.primary); err != nil {
		return err
	}
	var buildErr error
	p.primary.Scan(func(pk, raw []byte) bool {
		val, _, err := d.ser.Decode(raw)
		if err != nil {
			buildErr = err
			return false
		}
		keys, vals, err := secondaryEntries(spec, val.(*adm.Record), pk)
		for i := 0; err == nil && i < len(keys); i++ {
			err = tree.Insert(keys[i], vals[i])
		}
		buildErr = err
		return err == nil
	})
	return buildErr
}

// DropIndex removes a secondary index from the maintained set and deletes
// its on-disk component files.
func (d *Dataset) DropIndex(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, ix := range d.indexes {
		if ix.spec.Name == name {
			d.indexes = append(d.indexes[:i], d.indexes[i+1:]...)
			d.detachIndex(name)
			// A job compiled before the drop may still be searching this
			// index through its handle. Deleting the files leaves the
			// detached trees readable: a component keeps its file open
			// until the component is unreachable, so the last such job
			// to end releases them.
			for _, p := range d.partitions {
				if err := os.RemoveAll(d.indexDir(p, name)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return fmt.Errorf("storage: index %q on %q: %w", name, d.spec.Name, ErrNotFound)
}

// PrimaryKeyOf extracts and encodes the record's primary key.
func (d *Dataset) PrimaryKeyOf(rec *adm.Record) ([]byte, error) {
	var key []byte
	for _, f := range d.spec.PrimaryKey {
		v := rec.Get(f)
		if adm.IsUnknown(v) {
			return nil, fmt.Errorf("storage: record for %q is missing primary key field %q", d.spec.Name, f)
		}
		key = adm.EncodeKey(key, v)
	}
	return key, nil
}

// partitionFor hash-partitions a primary key across the dataset's partitions.
func (d *Dataset) partitionFor(pk []byte) int { return adm.KeyPartition(pk, len(d.partitions)) }

// Insert validates and stores a record as one record-level transaction:
// WAL append, primary-key lock, primary and secondary index updates, commit.
func (d *Dataset) Insert(rec *adm.Record) error {
	_, err := d.InsertBatch([]*adm.Record{rec})
	return err
}

// InsertBatch stores several records under a single statement and returns how
// many were stored locally. Each record is still its own record-level
// transaction (the paper's model: an AQL statement that involves multiple
// records involves multiple independent record-level transactions), but the
// WAL is synced once at the end, which is what makes batched inserts cheaper
// in Table 4. The records are validated and keyed first, in order: the first
// invalid one ends the statement, so the records before it are stored and
// none after it. Each partition then applies its share (see write). Records
// hashing to a partition this manager does not own (Options.Owns) are
// validated but not stored — another cluster node owns them — and do not
// count toward the returned total. The log is synced on an error too: the
// records committed before it are visible, so they are as durable as an
// acknowledged statement's.
func (d *Dataset) InsertBatch(recs []*adm.Record) (stored int, err error) {
	defer d.syncAfter(&err)
	shares, invalid := d.keyInserts(recs)
	stored, err = d.write(shares)
	if err == nil {
		err = invalid
	}
	return stored, err
}

// DeleteBatch removes the records with the given primary key values under a
// single statement and returns how many there were. As in InsertBatch, each
// key is its own record-level transaction, each partition applies its share,
// and the WAL is synced once at the end, on an error too.
func (d *Dataset) DeleteBatch(keys [][]adm.Value) (deleted int, err error) {
	defer d.syncAfter(&err)
	shares := make([][]keyed, len(d.partitions))
	for _, key := range keys {
		var pk []byte
		for _, v := range key {
			pk = adm.EncodeKey(pk, v)
		}
		part := d.partitionFor(pk)
		shares[part] = append(shares[part], keyed{pk: pk})
	}
	return d.write(shares)
}

// syncAfter syncs the log at the end of a statement, keeping the statement's
// own error if it has one.
func (d *Dataset) syncAfter(err *error) {
	if serr := d.manager.wal.Sync(); *err == nil {
		*err = serr
	}
}

// keyed is one record of a statement, validated and keyed: the new record
// under pk, or a delete of pk when rec is nil.
type keyed struct {
	pk  []byte
	rec *adm.Record
}

// keyInserts validates and keys a statement's records in order and deals the
// ones this manager owns to their partitions, each share in statement order.
// The first record that fails validation — against the type, the primary
// key, or an R-tree index that cannot take its value — ends the deal: the
// shares hold the records before it and its error is returned beside them.
func (d *Dataset) keyInserts(recs []*adm.Record) ([][]keyed, error) {
	d.mu.RLock()
	indexes := slices.Clone(d.indexes)
	d.mu.RUnlock()
	owns := d.manager.opts.Owns
	shares := make([][]keyed, len(d.partitions))
	for _, rec := range recs {
		if err := adm.Validate(rec, d.spec.Type); err != nil {
			return shares, fmt.Errorf("storage: %q: %w", d.spec.Name, err)
		}
		pk, err := d.PrimaryKeyOf(rec)
		if err != nil {
			return shares, err
		}
		part := d.partitionFor(pk)
		if owns != nil && !owns(part) {
			continue
		}
		for _, x := range indexes {
			if x.spec.Kind != RTreeIndex {
				continue
			}
			if v := rec.Get(x.spec.Fields[0]); !adm.IsUnknown(v) {
				if _, err := indexedMBR(x.spec, v); err != nil {
					return shares, err
				}
			}
		}
		shares[part] = append(shares[part], keyed{pk: pk, rec: rec})
	}
	return shares, nil
}

// groupSize is the most records a partition applies as one group: one
// key-ordered locking pass, one WAL append of their log records and one of
// their commit records, one release and one maintain.
const groupSize = 64

// write applies a statement's shares, one per partition, and returns how many
// records it stored or deleted. A statement that fills at least two groups
// gives each partition with work its own goroutine, so the partitions encode,
// derive, log and apply side by side; a smaller one runs its shares inline.
// Shares touch disjoint keys and trees, so their order does not matter; the
// error of the lowest failing partition is returned.
func (d *Dataset) write(shares [][]keyed) (int, error) {
	counts := make([]int, len(shares))
	errs := make([]error, len(shares))
	total := 0
	for _, share := range shares {
		total += len(share)
	}
	if total < 2*groupSize {
		for part, share := range shares {
			if counts[part], errs[part] = d.writeShare(part, share); errs[part] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		for part, share := range shares {
			if len(share) > 0 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					counts[part], errs[part] = d.writeShare(part, share)
				}()
			}
		}
		wg.Wait()
	}
	n := 0
	for _, c := range counts {
		n += c
	}
	for _, err := range errs {
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// writeShare applies one partition's share of a statement in order, a group
// at a time. A group ends after groupSize records or before a key it already
// holds, so a key repeated in a statement is written once per group and the
// last version wins. After each group the partition is maintained once.
func (d *Dataset) writeShare(part int, share []keyed) (int, error) {
	g := groups.Get().(*group)
	g.d, g.part = d, d.partitions[part]
	defer func() {
		g.d, g.part = nil, nil
		groups.Put(g)
	}()
	n := 0
	for len(share) > 0 {
		cut := g.cut(share)
		k, err := g.run(share[:cut])
		n += k
		if err != nil {
			return n, err
		}
		share = share[cut:]
		d.manager.maintain(d, part)
	}
	return n, nil
}

// groups recycles group buffers across statements.
var groups = sync.Pool{New: func() any { return new(group) }}

// group holds the buffers one partition's groups reuse. Every record stays
// its own transaction, with its own commit record; a group only shares the
// locking pass, the log appends and the bookkeeping between them.
type group struct {
	d    *Dataset
	part *partition

	order []int // indexes into the group's records, in key order
	txns  []txn.ID
	raws  []byte // the new records' encodings, back to back
	// rawEnds[i] is where record i's encoding ends in raws; recs holds the
	// log records of the records that log anything, and recEnds[i] is where
	// record i's log records end in recs.
	rawEnds, recEnds []int
	recs             []txn.LogRecord
	commits          []txn.ID
}

// cut returns how many records of share the next group takes: at most
// groupSize, and none from the first repeat of a key on. It leaves the keys
// it takes sorted in g.order.
func (g *group) cut(share []keyed) int {
	n := min(len(share), groupSize)
	g.order = g.order[:0]
	for i := range n {
		g.order = append(g.order, i)
	}
	slices.SortFunc(g.order, func(a, b int) int {
		if c := bytes.Compare(share[a].pk, share[b].pk); c != 0 {
			return c
		}
		return a - b
	})
	cut := n
	for i := 1; i < n; i++ {
		if bytes.Equal(share[g.order[i-1]].pk, share[g.order[i]].pk) {
			cut = min(cut, g.order[i])
		}
	}
	if cut < n {
		g.order = slices.DeleteFunc(g.order, func(i int) bool { return i >= cut })
	}
	return cut
}

// run applies one group: it encodes the new records, locks the keys in key
// order (two statements then never wait on each other in a cycle), derives
// every record's log records from the version it replaces, appends them in
// one run, applies each record under its own short hold of the partition
// latch, and appends the group's commit records in one more run before
// releasing the group. It returns how many records it stored or deleted. A
// record whose encoding or log records fail to derive ends the group before
// it, with its error; the records before it are applied.
func (g *group) run(items []keyed) (int, error) {
	d, m := g.d, g.d.manager
	var failed error
	g.raws, g.rawEnds = g.raws[:0], g.rawEnds[:0]
	for i, it := range items {
		if it.rec != nil {
			raws, err := d.ser.Encode(g.raws, it.rec)
			if err != nil {
				items, failed = items[:i], err
				break
			}
			g.raws = raws
		}
		g.rawEnds = append(g.rawEnds, len(g.raws))
	}
	g.txns = g.txns[:0]
	for range items {
		g.txns = append(g.txns, m.wal.Begin())
	}
	locked := items
	for _, i := range g.order {
		if i < len(locked) {
			m.locks.Lock(g.txns[i], locked[i].pk)
		}
	}
	defer func() {
		for i, it := range locked {
			m.locks.Unlock(g.txns[i], it.pk)
		}
	}()
	// The read lock spans deriving the log records through committing them:
	// CreateIndex publishes a new index spec under d.mu.Lock, so it cannot
	// land between this snapshot of d.indexes and the apply — a window in
	// which the backfill scan could miss a record whose log records carry no
	// entries for the new index.
	d.mu.RLock()
	defer d.mu.RUnlock()
	g.recs, g.recEnds, g.commits = g.recs[:0], g.recEnds[:0], g.commits[:0]
	rawStart := 0
	for i, it := range items {
		raw := g.raws[rawStart:g.rawEnds[i]]
		rawStart = g.rawEnds[i]
		old, err := d.fetch(g.part.idNum, it.pk)
		if err == nil && (old != nil || it.rec != nil) {
			var recs []txn.LogRecord
			if recs, err = d.appendLogRecords(g.recs, g.txns[i], g.part.idNum, it.pk, old, it.rec, raw); err == nil {
				g.recs, g.commits = recs, append(g.commits, g.txns[i])
			}
		}
		if err != nil {
			failed = err
			break
		}
		g.recEnds = append(g.recEnds, len(g.recs))
	}
	if len(g.recs) == 0 {
		return 0, failed
	}
	_, release, err := m.wal.AppendGroup(g.recs)
	if err != nil {
		return 0, err
	}
	crashpoint.Hit("storage-group-logged")
	err = g.apply()
	crashpoint.Hit("storage-group-applied")
	// The commits are appended BEFORE release(): once the group leaves the
	// in-flight set, a background flush may stamp a component past the
	// applied operations, and if their commit records were not in the log
	// yet, a crash would make recovery treat them as uncommitted while the
	// flushed tree durably kept their effects (a no-steal violation diverging
	// primary from secondaries). For the same reason the partition stays
	// marked as applying until they are: a flush waits for the mark to clear
	// (see flushLocked).
	if err == nil {
		err = m.wal.CommitNoSync(g.commits...)
	}
	release()
	g.part.mu.Lock()
	if g.part.applying--; g.part.applying == 0 {
		g.part.idle.Broadcast()
	}
	g.part.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return len(g.commits), failed
}

// apply applies the group's log records record by record, each under its
// own hold of the partition latch, so a reader waits for one record's
// updates at a time. It first marks the partition as applying, on every
// path; run clears the mark once the group's commits are appended.
func (g *group) apply() error {
	p := g.part
	p.mu.Lock()
	p.applying++
	p.mu.Unlock()
	start := 0
	for _, end := range g.recEnds {
		if end == start {
			continue
		}
		p.mu.Lock()
		for _, rec := range g.recs[start:end] {
			if err := p.applyRecordLocked(rec); err != nil {
				p.mu.Unlock()
				return err
			}
		}
		p.mu.Unlock()
		start = end
	}
	return nil
}

// fetch reads and decodes the record stored under the encoded primary key in
// one partition (nil if absent): the primary-index point lookup behind writes
// (the old record whose index entries a mutation retracts — the caller holds
// the pk lock, so it stays valid for the whole operation), LookupPK and the
// materializing secondary searches. Query jobs read through FetchPKPartition.
func (d *Dataset) fetch(part int, pk []byte) (*adm.Record, error) {
	raw, ok := d.stored(part, pk)
	if !ok {
		return nil, nil
	}
	val, _, err := d.ser.Decode(raw)
	if err != nil {
		return nil, d.corrupt(err)
	}
	rec, _ := val.(*adm.Record)
	return rec, nil
}

// stored returns the value bytes stored under the encoded primary key in one
// partition. They are an LSM value slice, never mutated in place, so they
// stay readable after the partition latch is released.
func (d *Dataset) stored(part int, pk []byte) ([]byte, bool) {
	p := d.partitions[part]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.primary.Get(pk)
}

// corrupt wraps the error of a stored record that failed to decode. A record
// we stored must decode; anything else is corruption worth surfacing rather
// than silently leaving stale index entries behind or dropping a row.
func (d *Dataset) corrupt(err error) error {
	return fmt.Errorf("storage: %q: %w: %w", d.spec.Name, ErrCorrupt, err)
}

// view hands stored record bytes to a query: a zero-copy *adm.LazyRecord
// over raw (its header, all it allocates, comes from arena, which may be
// nil), or the whole *adm.Record under Options.EagerDecode. The lazy view
// walks nothing: every value in a primary tree is a record checked where
// its bytes entered the process — encoded from a validated record by
// InsertBatch, checked by CheckStored at component load and log replay, or
// copied by a flush or merge from those.
func (d *Dataset) view(raw []byte, arena *adm.Arena) (adm.Value, error) {
	if d.manager.opts.EagerDecode {
		v, _, err := d.ser.Decode(raw)
		return v, err
	}
	return d.ser.View(raw, arena), nil
}

// appendLogRecords appends the WAL records for replacing oldRec (nil if pk
// was absent) with newRec (nil for a delete) under primary key pk: antimatter
// records for the old record's secondary entries, inserts for the new
// record's, and the primary operation last. Each secondary record names its
// index and carries the exact derived entry key, so recovery replays every
// access path from the log alone — never by re-deriving from primary state
// that may be newer than the crashed index.
//
// Caller holds d.mu (read): taking it again here would deadlock once a
// CreateIndex/DropIndex writer is queued (Go RWMutexes do not admit
// recursive read locks past a pending writer).
func (d *Dataset) appendLogRecords(recs []txn.LogRecord, tid txn.ID, part int, pk []byte, oldRec, newRec *adm.Record, raw []byte) ([]txn.LogRecord, error) {
	for _, x := range d.indexes {
		ix := x.spec
		if oldRec != nil {
			keys, _, err := secondaryEntries(ix, oldRec, pk)
			if err == nil { // old entries that failed to derive were never indexed
				for _, k := range keys {
					recs = append(recs, txn.LogRecord{
						Txn: tid, Kind: txn.OpDelete, Dataset: d.spec.Name, Partition: part, Index: ix.Name, Key: k,
					})
				}
			}
		}
		if newRec != nil {
			keys, vals, err := secondaryEntries(ix, newRec, pk)
			if err != nil {
				return nil, err
			}
			for i, k := range keys {
				recs = append(recs, txn.LogRecord{
					Txn: tid, Kind: txn.OpInsert, Dataset: d.spec.Name, Partition: part, Index: ix.Name, Key: k, Value: vals[i],
				})
			}
		}
	}
	kind := txn.OpDelete
	var value []byte
	if newRec != nil {
		kind = txn.OpInsert
		value = raw
	}
	return append(recs, txn.LogRecord{
		Txn: tid, Kind: kind, Dataset: d.spec.Name, Partition: part, Key: pk, Value: value,
	}), nil
}

// secondaryEntries derives the (key, value) entries a record contributes to
// one secondary index: the composite key for a B+-tree, the encoded rect+pk
// key for an R-tree, one posting key per distinct token for an inverted
// index. An unknown or untokenizable field contributes nothing.
func secondaryEntries(ix IndexSpec, rec *adm.Record, pk []byte) (keys, vals [][]byte, err error) {
	v := rec.Get(ix.Fields[0])
	if adm.IsUnknown(v) {
		return nil, nil, nil
	}
	switch ix.Kind {
	case BTreeIndex:
		return [][]byte{secondaryKey(ix, rec, pk)}, [][]byte{pk}, nil
	case RTreeIndex:
		mbr, err := indexedMBR(ix, v)
		if err != nil {
			return nil, nil, err
		}
		return [][]byte{rtree.EncodeEntryKey(mbr, pk)}, [][]byte{nil}, nil
	case KeywordIndex, NGramIndex:
		s, ok := v.(adm.String)
		if !ok {
			return nil, nil, nil
		}
		keys = invidx.PostingKeys(tokenizerFor(ix), pk, string(s))
		return keys, make([][]byte, len(keys)), nil
	}
	return nil, nil, fmt.Errorf("storage: unknown index kind %q", ix.Kind)
}

// indexedMBR is the rectangle an R-tree index stores for a known value v,
// or the error that refuses a record carrying v.
func indexedMBR(ix IndexSpec, v adm.Value) (adm.Rectangle, error) {
	mbr, err := spatial.MBR(v)
	if err != nil {
		return mbr, fmt.Errorf("storage: rtree index %q: %w", ix.Name, err)
	}
	return mbr, nil
}

// applyRecordLocked applies one log record — an upsert, or an antimatter
// delete — to its target tree. The same routine runs on the live path and
// during recovery replay, so the two can never drift, and re-applying a
// record (as recovery does) is a no-op. Caller holds p.mu.
func (p *partition) applyRecordLocked(rec txn.LogRecord) error {
	tree := p.treeFor(rec.Index)
	switch {
	case tree == nil:
		return nil // index dropped since the record was logged
	case rec.Kind == txn.OpInsert:
		return tree.Insert(rec.Key, rec.Value)
	}
	return tree.Delete(rec.Key)
}

// applyLogged applies one WAL record during recovery, gated on the target
// tree's durable watermark: records already inside a durable component are
// skipped, everything past it is re-applied (idempotently). A replayed
// primary insert is record bytes entering the process, so its value gets
// the entry check before it reaches the tree.
func (d *Dataset) applyLogged(lsn uint64, rec txn.LogRecord) (bool, error) {
	if rec.Partition < 0 || rec.Partition >= len(d.partitions) {
		return false, nil
	}
	p := d.partitions[rec.Partition]
	p.mu.Lock()
	defer p.mu.Unlock()
	tree := p.treeFor(rec.Index)
	if tree == nil || lsn < tree.DurableLSN() {
		return false, nil
	}
	if rec.Index == "" && rec.Kind == txn.OpInsert {
		if err := d.ser.CheckStored(rec.Value); err != nil {
			return true, d.corrupt(err)
		}
	}
	return true, p.applyRecordLocked(rec)
}

// Delete removes the record with the given primary key value(s) and reports
// whether there was one.
func (d *Dataset) Delete(pkValues ...adm.Value) (bool, error) {
	deleted, err := d.DeleteBatch([][]adm.Value{pkValues})
	return deleted == 1, err
}

// secondaryKey builds the composite key (secondary key bytes ++ primary key)
// stored in secondary B+-trees; the primary key suffix makes entries unique.
func secondaryKey(ix IndexSpec, rec *adm.Record, pk []byte) []byte {
	var key []byte
	for _, f := range ix.Fields {
		key = adm.EncodeKey(key, rec.Get(f))
	}
	return append(key, pk...)
}

// LookupPK returns the record with the given primary key value(s).
func (d *Dataset) LookupPK(pkValues ...adm.Value) (*adm.Record, bool, error) {
	var pk []byte
	for _, v := range pkValues {
		pk = adm.EncodeKey(pk, v)
	}
	rec, err := d.fetch(d.partitionFor(pk), pk)
	return rec, rec != nil, err
}

// PartitionCount returns the number of storage partitions.
func (d *Dataset) PartitionCount() int { return len(d.partitions) }

// FetchPKPartition fetches the record stored under the encoded primary key in
// one partition. Secondary indexes are partition-local and co-located with
// their records, so an encoded key obtained from partition p's secondary
// index always resolves in partition p's primary index: this is the
// primary-search stage of the compiled per-partition access path. Like
// ScanPartition, it returns a zero-copy *adm.LazyRecord view of the stored
// bytes, which were checked when they entered the process and are not
// walked again, or an *adm.Record under Options.EagerDecode.
func (d *Dataset) FetchPKPartition(part int, pk []byte) (adm.Value, bool, error) {
	if part < 0 || part >= len(d.partitions) {
		return nil, false, fmt.Errorf("storage: partition %d out of range", part)
	}
	raw, ok := d.stored(part, pk)
	if !ok {
		return nil, false, nil
	}
	rec, err := d.view(raw, nil)
	if err != nil {
		return nil, false, d.corrupt(err)
	}
	return rec, true, nil
}

// FetchEqualPartition visits the records of partition part whose one-field
// primary key compares equal to v under adm.Compare — the language's `=`. It
// is the source of a select's key-equality access path. adm.EncodeKey gives
// every value `=` matches one key, so that key is one get, made only by the
// partition that owns it. An unknown v matches nothing.
func (d *Dataset) FetchEqualPartition(part int, v adm.Value, emit func(adm.Value) bool) error {
	if part < 0 || part >= len(d.partitions) {
		return fmt.Errorf("storage: partition %d out of range", part)
	}
	if adm.IsUnknown(v) {
		return nil
	}
	key := adm.EncodeKey(nil, v)
	if d.partitionFor(key) != part {
		return nil
	}
	rec, found, err := d.FetchPKPartition(part, key)
	if found {
		emit(rec)
	}
	return err
}

// Probe is an evaluated secondary-index search argument. A B+-tree index
// reads the range [Lo, Hi] (either bound nil for an open range); R-tree,
// keyword and ngram indexes read Value. Storage normalizes it per kind, so
// every executor hands over the values its probe expressions produced.
type Probe struct {
	Lo, Hi adm.Value
	Value  adm.Value
	// MinMatches > 0 makes an ngram index return the documents sharing at
	// least that many of the probe's (padded) grams — T-occurrence candidates
	// for fuzzy search — instead of those containing every gram of the probe.
	MinMatches int
}

// SearchPartition visits the encoded primary keys in one partition of the
// index that conservatively match the probe: B+-tree entries whose
// secondary key lies in [Lo, Hi]; R-tree entries whose stored MBR intersects
// the probe's; keyword postings containing every token of the probe; ngram
// postings containing every (unpadded) gram of it. Each candidate set is a
// superset of the records satisfying the predicate the index was chosen for,
// so callers sort the keys, fetch the records, and post-validate. An ngram
// probe shorter than the gram length produces no grams — the index cannot
// bound the candidate set — and is reported as an error. Keys are copied out
// under the partition latch and visited outside it, so a pipelined consumer
// may block inside visit without wedging the partition.
func (x *Index) SearchPartition(part int, probe Probe, visit func(pk []byte) bool) error {
	if part < 0 || part >= len(x.trees) {
		return fmt.Errorf("storage: partition %d out of range", part)
	}
	p := x.d.partitions[part]
	p.mu.Lock()
	pks, it, err := x.search(x.trees[part], probe)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	for {
		for _, pk := range pks {
			if !visit(pk) {
				return nil
			}
		}
		if it == nil {
			return nil
		}
		// One iterator spans the whole search and resumes where it left off,
		// re-seeking via its sequence check if the index was mutated while the
		// latch was released.
		pks = pks[:0]
		p.mu.Lock()
		for len(pks) < scanChunk {
			if !it.Next() {
				it = nil
				break
			}
			pks = append(pks, append([]byte(nil), it.Value()...))
		}
		p.mu.Unlock()
	}
}

// search normalizes the probe for the index's kind and runs it. A kind with
// a resumable cursor (the B+-tree range) returns the iterator for
// SearchPartition to drain in scanChunk batches; the others (Z-range
// scans with an exact filter, posting-list algebra) return their whole
// candidate set. An unknown or wrongly typed probe value matches nothing —
// the predicate above would be false or null everywhere. Caller holds the
// partition latch.
func (x *Index) search(tree *lsm.Tree, probe Probe) ([][]byte, *lsm.Iterator, error) {
	switch x.spec.Kind {
	case BTreeIndex:
		var lo, hi []byte
		if probe.Lo != nil {
			lo = adm.EncodeKey(nil, probe.Lo)
		}
		if probe.Hi != nil {
			hi = append(adm.EncodeKey(nil, probe.Hi), 0xFF) // include any PK suffix
		}
		return nil, tree.NewIterator(lo, hi), nil
	case RTreeIndex:
		mbr, ok := SpatialProbeMBR(probe.Value)
		if !ok {
			return nil, nil, nil
		}
		var pks [][]byte
		err := rtree.Search(tree.Range, mbr, func(pk []byte) bool {
			pks = append(pks, append([]byte(nil), pk...))
			return true
		})
		return pks, nil, err
	case KeywordIndex, NGramIndex:
		s, ok := StringProbe(probe.Value)
		if !ok {
			return nil, nil, nil
		}
		switch {
		case x.spec.Kind == KeywordIndex:
			return invidx.LookupAll(tree, tokenizerFor(x.spec)(s)), nil, nil
		case probe.MinMatches > 0:
			return invidx.LookupAny(tree, tokenizerFor(x.spec)(s), probe.MinMatches), nil, nil
		}
		grams := substringGrams(s, x.spec.GramLength)
		if len(grams) == 0 {
			return nil, nil, fmt.Errorf("storage: ngram probe %q is shorter than gram length %d", s, x.spec.GramLength)
		}
		return invidx.LookupAll(tree, grams), nil, nil
	}
	return nil, nil, fmt.Errorf("storage: unknown index kind %q", x.spec.Kind)
}

// substringGrams returns the unpadded lower-cased k-grams of s. Unlike
// fuzzy.NGramTokens it does not pad the ends: every gram of a substring probe
// is then guaranteed to appear among the indexed (padded) grams of any text
// containing the probe, which is what makes the conjunctive candidate set a
// superset of the true contains() matches.
func substringGrams(s string, k int) []string {
	runes := []rune(strings.ToLower(s))
	if k <= 0 || len(runes) < k {
		return nil
	}
	grams := make([]string, 0, len(runes)-k+1)
	for i := 0; i+k <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+k]))
	}
	return grams
}

// SearchSecondaryConjunctive runs the inverted-index access path across every
// partition and materializes the candidate records in primary-key order: the
// reference-interpreter counterpart of the per-partition pipeline the
// compiled jobs run. Callers post-validate the exact predicate.
func (d *Dataset) SearchSecondaryConjunctive(indexName, probe string) ([]*adm.Record, error) {
	_, recs, err := d.collectAndFetch(indexName, Probe{Value: adm.String(probe)}, KeywordIndex, NGramIndex)
	return recs, err
}

// collectAndFetch is the materializing half of every secondary access path:
// it searches the named index (which must be of one of the given kinds) in
// every partition — the matching data could be in any of them — sorts the
// primary keys (the sort operator between the two searches in Figure 6), and
// fetches the records from the primary indexes. Callers post-validate.
func (d *Dataset) collectAndFetch(indexName string, probe Probe, kinds ...IndexKind) (IndexSpec, []*adm.Record, error) {
	x := d.maintained(indexName)
	if x == nil || !slices.Contains(kinds, x.spec.Kind) {
		return IndexSpec{}, nil, fmt.Errorf("storage: no index %q of kind %v on %q", indexName, kinds, d.spec.Name)
	}
	ix := x.spec
	var pks [][]byte
	for part := range d.partitions {
		err := x.SearchPartition(part, probe, func(pk []byte) bool {
			pks = append(pks, pk)
			return true
		})
		if err != nil {
			return ix, nil, err
		}
	}
	sort.Slice(pks, func(i, j int) bool { return string(pks[i]) < string(pks[j]) })
	out := make([]*adm.Record, 0, len(pks))
	for _, pk := range pks {
		rec, err := d.fetch(d.partitionFor(pk), pk)
		if err != nil {
			return ix, nil, err
		}
		if rec != nil {
			out = append(out, rec)
		}
	}
	return ix, out, nil
}

// SpatialProbeMBR normalizes an evaluated spatial probe for an R-tree search:
// it reports false for unknown or non-spatial values (the predicate above
// would be false/null everywhere). Both executors share it so the compiled
// path cannot drift from the interpreter oracle.
func SpatialProbeMBR(v adm.Value) (adm.Rectangle, bool) {
	if v == nil || adm.IsUnknown(v) {
		return adm.Rectangle{}, false
	}
	mbr, err := spatial.MBR(v)
	if err != nil {
		return adm.Rectangle{}, false
	}
	return mbr, true
}

// StringProbe normalizes an evaluated inverted-index probe: it reports false
// for unknown or non-string values, which match nothing.
func StringProbe(v adm.Value) (string, bool) {
	s, ok := v.(adm.String)
	return string(s), ok
}

// scanChunk is the number of records decoded per partition-lock acquisition
// during a scan.
const scanChunk = 64

// ScanPartition visits every record in one partition in primary-key order.
// Records are decoded in chunks under the partition lock and the visitor runs
// outside it: a pipelined consumer may block inside visit (on a full dataflow
// channel) without wedging the partition, and two scans of the same partition
// (a compiled self-join) cannot deadlock. One merge iterator spans the whole
// scan — each chunk resumes it instead of restarting a Range from the last
// key, which made long scans quadratic. The scan is still not atomic across
// the partition: records inserted mid-scan with keys beyond the scan cursor
// are visited (the iterator's staleness re-seek preserves exactly the old
// resume-strictly-after-last-key semantics).
// Records arrive as lazily-decoded *adm.LazyRecord values (unless
// Options.EagerDecode) viewing the LSM tree's own value bytes zero-copy:
// the iterator contract guarantees value slices stay readable and are never
// mutated in place, so no per-record copy is made. Only a header is made
// under the latch: the stored bytes were checked when they entered the
// process (see view), and field decoding is deferred until an operator
// actually touches a field.
func (d *Dataset) ScanPartition(part int, visit func(adm.Value) bool) error {
	if part < 0 || part >= len(d.partitions) {
		return fmt.Errorf("storage: partition %d out of range", part)
	}
	p := d.partitions[part]
	p.mu.Lock()
	it := p.primary.NewIterator(nil, nil)
	p.mu.Unlock()
	var arena *adm.Arena
	if !d.manager.opts.EagerDecode {
		// The arena only block-allocates LazyRecord headers here; emitted
		// records hold no reference to it. Release is nil-safe, so the eager
		// path threads through.
		arena = adm.AcquireArena()
	}
	defer arena.Release()
	chunk := make([]adm.Value, 0, scanChunk)
	for {
		chunk = chunk[:0]
		var decodeErr error
		done := false
		p.mu.Lock()
		for len(chunk) < scanChunk {
			if !it.Next() {
				done = true
				break
			}
			val, err := d.view(it.Value(), arena)
			if err != nil {
				decodeErr = err
				break
			}
			chunk = append(chunk, val)
		}
		p.mu.Unlock()
		if decodeErr != nil {
			return decodeErr
		}
		for _, rec := range chunk {
			if !visit(rec) {
				return nil
			}
		}
		if done {
			return nil
		}
	}
}

// Scan visits every record in the dataset (all partitions). Partitions are
// visited sequentially; the query runtime parallelizes by scanning partitions
// from separate operator instances instead.
func (d *Dataset) Scan(visit func(*adm.Record) bool) error {
	for part := range d.partitions {
		stop := false
		err := d.ScanPartition(part, func(v adm.Value) bool {
			r, _ := adm.AsRecord(v) // every stored value is a record
			if !visit(r) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Count returns the number of records in the dataset.
func (d *Dataset) Count() (int, error) {
	n := 0
	err := d.Scan(func(*adm.Record) bool { n++; return true })
	return n, err
}

// SizeBytes flushes the dataset and returns the bytes of its component
// files, its secondary indexes' included: the quantity compared across
// systems in Table 2, measured as it lies on disk — record encoding, keys,
// the component format and every index the dataset keeps.
func (d *Dataset) SizeBytes() (int64, error) {
	if err := d.Flush(); err != nil {
		return 0, err
	}
	var total int64
	for _, p := range d.partitions {
		p.mu.Lock()
		for _, t := range p.allTrees() {
			total += t.DiskBytes()
		}
		p.mu.Unlock()
	}
	return total, nil
}

// Flush flushes every partition's in-memory components (primary and all
// secondary indexes) to disk.
func (d *Dataset) Flush() error {
	_, err := d.manager.flushStamped(d.flushAll)
	return err
}

// flushStamped is the flush-stamp protocol, written once: capture the WAL
// low-water mark, force the WAL, then run flush, which flushes trees stamped
// with the mark through flushLocked; the mark is returned. Every operation
// fully applied before the capture is inside the flushed components, so
// recovery replays only LSNs at or past the stamp; an operation not yet fully
// applied keeps its LSN in the replayed suffix. The WAL is forced here so
// that flushLocked, which forces it again under the partition latch, usually
// finds little left to write.
func (m *Manager) flushStamped(flush func(stamp uint64) error) (uint64, error) {
	stamp := m.wal.LowWater()
	if err := m.wal.Sync(); err != nil {
		return stamp, fmt.Errorf("wal sync: %w", err)
	}
	return stamp, flush(stamp)
}

// flushAll flushes every tree of every partition, one tree per hold of the
// partition latch, as the background scheduler does: readers and writers of
// a partition wait out one tree's flush, not all of them. A tree dropped
// since the partition's trees were listed is skipped.
func (d *Dataset) flushAll(stamp uint64) error {
	for _, p := range d.partitions {
		p.mu.Lock()
		trees := p.allTrees()
		p.mu.Unlock()
		for _, t := range trees {
			crashpoint.Hit("storage-tree-flush")
			p.mu.Lock()
			var err error
			if slices.Contains(p.allTrees(), t) {
				err = p.flushLocked(d.manager.wal, stamp, t)
			}
			p.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// flushLocked flushes some of the partition's trees stamped with stamp.
// Caller holds p.mu. A stamped component is fsync'd and renamed into place
// and may become durable that moment, so it must hold only the effects of
// committed records whose commit records are on stable storage: otherwise a
// crash could keep the component's effects while recovery, finding no
// commit, skipped them in the other trees of the same transaction. So the
// flush first waits out every group between its apply and its commit append
// (the latch is free meanwhile, and no group starts applying once it is
// retaken), then forces the WAL, all under the latch.
func (p *partition) flushLocked(wal *txn.WAL, stamp uint64, trees ...*lsm.Tree) error {
	for p.applying > 0 {
		p.idle.Wait()
	}
	if err := wal.Sync(); err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	for _, t := range trees {
		if err := t.FlushStamped(stamp); err != nil {
			return err
		}
	}
	return nil
}

// SearchSecondaryRange performs the paper's secondary-index access path for a
// range predicate lo <= field <= hi: search the secondary index in every
// partition, sort the resulting primary keys, look them up in the primary
// index, and post-validate each record against the predicate (Section 4.4's
// consistency check). Either bound may be nil for an open range.
func (d *Dataset) SearchSecondaryRange(indexName string, lo, hi adm.Value) ([]*adm.Record, error) {
	ix, recs, err := d.collectAndFetch(indexName, Probe{Lo: lo, Hi: hi}, BTreeIndex)
	if err != nil {
		return nil, err
	}
	out := recs[:0]
	for _, rec := range recs {
		// Post-validation select: the record fetched from the primary index
		// must still satisfy the secondary-key predicate.
		v := rec.Get(ix.Fields[0])
		if lo != nil {
			if c, err := adm.Compare(v, lo); err != nil || c < 0 {
				continue
			}
		}
		if hi != nil {
			if c, err := adm.Compare(v, hi); err != nil || c > 0 {
				continue
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// SearchSecondaryRTree returns the records whose indexed spatial field
// intersects the probe rectangle, using the same secondary→primary access
// path with post-validation.
func (d *Dataset) SearchSecondaryRTree(indexName string, probe adm.Rectangle) ([]*adm.Record, error) {
	ix, recs, err := d.collectAndFetch(indexName, Probe{Value: probe}, RTreeIndex)
	if err != nil {
		return nil, err
	}
	out := recs[:0]
	for _, rec := range recs {
		v := rec.Get(ix.Fields[0])
		intersects, err := spatial.Intersect(v, probe)
		if err != nil || !intersects {
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// SearchSecondaryInverted returns the candidate records whose indexed text
// field contains the given token (keyword index) or shares at least
// minMatches grams with it (ngram index; at least one). Callers post-validate.
func (d *Dataset) SearchSecondaryInverted(indexName, probe string, minMatches int) ([]*adm.Record, error) {
	_, recs, err := d.collectAndFetch(indexName,
		Probe{Value: adm.String(probe), MinMatches: max(minMatches, 1)}, KeywordIndex, NGramIndex)
	return recs, err
}
