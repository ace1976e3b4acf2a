// Package lsm implements the Log-Structured Merge tree framework that
// AsterixDB uses for all of its internal data storage (Section 4.3 of the
// paper): a mutable in-memory component, immutable disk components produced
// by flushes and merges, antimatter (tombstone) entries for deletes, and
// merge policies.
//
// A disk component lives in its file and is read a page at a time. A flush
// or merge streams its entries into pages through a temp file, fsync and
// rename (fsutil.CreateAtomic) — so a crash mid-flush or mid-merge never
// surfaces a torn component — and a merge reads its inputs page by page
// past the cache, so no component is ever held whole. Open streams each file
// once, one page in memory at a time, to check it. The file is
//
//	file:   page* index footer
//	page:   block+ ‖ start offset u32 per block ‖ block count u32 ‖ CRC-32 u32
//	block:  uvarint keysLen ‖ key{1,16} ‖ value{1,16}
//	key:    uvarint shared ‖ uvarint suffixLen ‖ suffix ‖ flag (1 = antimatter) ‖ uvarint vlen
//	index:  (uvarint fenceLen ‖ fence ‖ uvarint pageLen) per page
//	footer: stamp u64 ‖ coveredLow u64 ‖ entry count u64 ‖ index offset u64 ‖
//	        page count u32 ‖ CRC-32 u32 ‖ magic [8]byte
//
// with little-endian integers, IEEE CRCs — a page's over its bytes before
// it, the footer's over the index and the footer before it — and a magic
// naming the layout. Every block but the last holds 16 entries: first their
// keys, keysLen bytes in all, then their values in the same order. A key is
// the first shared bytes of the key before it followed by its suffix, and a
// block's first key has shared = 0, so it is stored whole: a search
// binary-searches those and walks the keys of one block, which sit
// together, not between values. A page holds whole blocks up to 16 KiB (one
// larger block is a page by itself), and its fence is its first key. Values
// are stored as they are and handed out as views into cached pages. The
// stamp is the LSN watermark ("all operations with LSN < stamp are
// contained in this or an older component") WAL replay uses to skip
// already-durable operations; coveredLow lets a merged component shadow
// exactly its inputs if a crash lands between the merge rename and the
// input-file cleanup.
//
// An open component keeps resident its footer's fields, its page index and
// its open file; Get, cursors and iterators fetch pages through one Cache,
// bounded in bytes, per storage manager. A component also keeps a bloom
// filter over its keys, built by the first point read that reaches it from
// a stream of its pages past the cache, so a point read searches only the
// components that may hold its key.
package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"asterixdb/internal/btree"
	"asterixdb/internal/crashpoint"
	"asterixdb/internal/fsutil"
)

// Options configure an LSM tree.
type Options struct {
	// MemBudget is the in-memory component size that triggers a flush: the
	// bytes of its arena, every key and value written into it with their
	// length varints, including entries since replaced or deleted. Zero
	// means DefaultMemBudget.
	MemBudget int
	// Policy decides when disk components are merged. Nil means a
	// TieredPolicy with default parameters (size-tiered merging).
	Policy MergePolicy
	// Background disables the inline flush-at-budget and merge-after-flush
	// behavior: mutations only grow the in-memory component, and the owner
	// (the storage layer's scheduler) decides when to Flush and when to run
	// a MergePlan. Direct users of the package leave it false and keep the
	// self-managing behavior.
	Background bool
	// CheckValue, when set, is run by Open on every non-antimatter value of
	// every component it loads from disk; a value it refuses makes the
	// component unreadable. Components a flush or merge writes are not
	// checked: their values came from the tree itself.
	CheckValue func(value []byte) error
	// Cache is the page cache the tree reads its components through; the
	// trees of one storage manager share one. Nil gives the tree its own,
	// of CacheBytes. It is a handle for sharing, not a size setting: every
	// cache outside tests holds CacheBytes.
	Cache *Cache
}

// DefaultMemBudget is the default in-memory component budget (256 KiB — small
// enough that tests and benchmarks exercise flushes and merges).
const DefaultMemBudget = 256 << 10

// Tree is an LSM-ified B+-tree index over bytewise-ordered keys. It is the
// structure behind every primary index and secondary index in the storage
// layer. Callers must serialize mutating operations per Tree (the storage
// layer holds a per-partition latch, mirroring the paper's index-operation
// latches); MergePlan.Execute is the one operation designed to run outside
// the latch.
type Tree struct {
	dir  string
	opts Options
	// pageBytes is the size flushes and merges fill pages up to: pageBytes,
	// or less in tests.
	pageBytes int
	mem       *btree.Tree
	disk      []*diskComponent // newest first
	nextID    int
	flushes   int
	merges    int
	// durable is the highest component LSN stamp: every operation with
	// LSN < durable is contained in some disk component.
	durable uint64
	// merging is set while a background MergePlan is outstanding; PlanMerge
	// returns nil until it is installed or aborted.
	merging bool
	// seq is the mutation sequence number: bumped by every Put/Delete and by
	// every component change (flush, merge). A paused Iterator compares it to
	// detect staleness and re-seek instead of walking invalidated cursors.
	seq uint64
	// reads counts Get calls and what the component filters did for them;
	// Get updates it under the caller's latch.
	reads ReadStats
}

// ReadStats counts a tree's point reads and its component filters' verdicts.
type ReadStats struct {
	// PointReads counts Get calls.
	PointReads uint64
	// FilterSkips counts components a Get passed over without a search
	// because their filter ruled the key out.
	FilterSkips uint64
	// FilterFalsePositives counts components a Get searched because their
	// filter let the key pass, and did not find it in.
	FilterFalsePositives uint64
}

// Open creates or reopens an LSM tree rooted at dir. Temp files from
// interrupted atomic writes are removed — a crashed flush or merge leaves
// nothing else behind — and so are components shadowed by a merged component
// that crashed before cleaning up its inputs. A component file that fails to
// load — truncated, bit-flipped, or written by an older layout — is damage,
// not a crash residue: Open fails naming it and leaves it on disk, since
// deleting it could drop rows a checkpoint already compacted out of the log.
func Open(dir string, opts Options) (*Tree, error) {
	if opts.MemBudget <= 0 {
		opts.MemBudget = DefaultMemBudget
	}
	if opts.Policy == nil {
		opts.Policy = TieredPolicy{}
	}
	if opts.Cache == nil {
		opts.Cache = NewCache(CacheBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: open %s: %w", dir, err)
	}
	if err := fsutil.RemoveTempFiles(dir); err != nil {
		return nil, fmt.Errorf("lsm: open %s: %w", dir, err)
	}
	t := &Tree{dir: dir, opts: opts, pageBytes: pageBytes, mem: btree.New()}
	names, err := filepath.Glob(filepath.Join(dir, "component-*.lsm"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var comps []*diskComponent
	for _, name := range names {
		comp, err := openComponent(name, opts.CheckValue, opts.Cache)
		if err != nil {
			return nil, &ComponentError{Dir: dir, Path: name, Err: err}
		}
		comps = append(comps, comp)
	}
	// Drop components shadowed by a merged component covering their id: the
	// merge renamed its output into place but crashed before removing its
	// inputs. The merged component contains everything they did.
	for _, c := range comps {
		if slices.ContainsFunc(comps, func(o *diskComponent) bool { return c.id >= o.coveredLow && c.id < o.id }) {
			os.Remove(c.path)
			continue
		}
		// Newest first: higher ids were written later.
		t.disk = append([]*diskComponent{c}, t.disk...)
		t.nextID = max(t.nextID, c.id+1)
		t.durable = max(t.durable, c.stamp)
	}
	return t, nil
}

// ComponentError is Open's error for a component file that fails to load:
// damage, not crash residue, so the file is left on disk for an operator.
type ComponentError struct {
	Dir  string // the tree's directory
	Path string // the component file
	Err  error  // why it did not load
}

func (e *ComponentError) Error() string {
	return fmt.Sprintf("lsm: open %s: unreadable component %s: %v", e.Dir, e.Path, e.Err)
}

func (e *ComponentError) Unwrap() error { return e.Err }

// Dir returns the directory holding this tree's disk components.
func (t *Tree) Dir() string { return t.dir }

// Insert upserts a key/value pair. The memtable copies both into its arena.
func (t *Tree) Insert(key, value []byte) error {
	t.seq++
	t.mem.Put(key, liveFlag, value)
	return t.maybeFlush()
}

// Delete writes an antimatter entry for key.
func (t *Tree) Delete(key []byte) error {
	t.seq++
	t.mem.Put(key, antimatterFlag)
	return t.maybeFlush()
}

// Get returns the newest value for key, reporting false when the key is
// absent or deleted. It hashes the key once and searches only the disk
// components whose filter says the key may be there; a tombstone is in its
// component's filter, so it still shadows older values. A component's
// filter is built by the first Get that reaches it, so a tree that is only
// ever scanned (every secondary index) builds none.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	t.reads.PointReads++
	if raw, ok := t.mem.Get(key); ok {
		val, anti := decodeMemValue(raw)
		if anti {
			return nil, false
		}
		return val, true
	}
	h := keyHash(key)
	for _, c := range t.disk {
		if c.filter == nil {
			c.filter = c.buildFilter()
		}
		if !c.filter.mayContain(h) {
			t.reads.FilterSkips++
			continue
		}
		if value, antimatter, ok := c.get(key); ok {
			return value, !antimatter
		}
		t.reads.FilterFalsePositives++
	}
	return nil, false
}

// Range visits live entries with lo <= key <= hi in key order. Either bound
// may be nil to leave that side open. The key visit gets is valid only for
// that call (see Iterator.Key); the value stays readable. It is a thin
// wrapper over NewIterator; callers that span lock releases (the storage
// layer's chunked scans) hold the iterator directly and resume it instead
// of re-entering Range.
func (t *Tree) Range(lo, hi []byte, visit func(key, value []byte) bool) {
	it := t.NewIterator(lo, hi)
	for it.Next() {
		if !visit(it.Key(), it.Value()) {
			return
		}
	}
}

// Scan visits every live entry in key order.
func (t *Tree) Scan(visit func(key, value []byte) bool) { t.Range(nil, nil, visit) }

// Len returns the number of live entries (it performs a scan; intended for
// tests and statistics, not hot paths).
func (t *Tree) Len() int {
	n := 0
	t.Scan(func(_, _ []byte) bool { n++; return true })
	return n
}

// Components returns the number of disk components currently on disk.
func (t *Tree) Components() int { return len(t.disk) }

// Flushes and Merges report lifetime operation counts (used by ablation
// benchmarks and tests).
func (t *Tree) Flushes() int { return t.flushes }

// Merges reports how many merge operations the tree has performed.
func (t *Tree) Merges() int { return t.merges }

// Reads reports the tree's point-read counters. Caller must hold the tree's
// latch.
func (t *Tree) Reads() ReadStats { return t.reads }

// FilterBytes reports the bytes the disk components' bloom filters hold;
// a component has one only once a Get has reached it. Caller must hold the
// tree's latch.
func (t *Tree) FilterBytes() int {
	n := 0
	for _, c := range t.disk {
		n += 8 * len(c.filter)
	}
	return n
}

// DiskBytes returns the bytes of the tree's component files. Caller must
// hold the tree's latch.
func (t *Tree) DiskBytes() int64 {
	var n int64
	for _, c := range t.disk {
		n += c.size
	}
	return n
}

// MemBytes returns the current in-memory component footprint.
func (t *Tree) MemBytes() int { return t.mem.Bytes() }

// DurableLSN returns the tree's durable watermark: every operation with
// LSN < DurableLSN() is contained in a valid disk component. WAL replay
// skips such operations (re-applying the rest is idempotent).
func (t *Tree) DurableLSN() uint64 { return t.durable }

func (t *Tree) maybeFlush() error {
	if t.opts.Background || t.mem.Bytes() < t.opts.MemBudget {
		return nil
	}
	return t.Flush()
}

// Flush writes the in-memory component to a new disk component and clears
// it, carrying the current durable stamp forward. The component becomes
// visible (valid) only after its atomic rename, implementing the paper's
// shadowing protocol.
func (t *Tree) Flush() error { return t.FlushStamped(t.durable) }

// FlushStamped flushes with the given LSN stamp (clamped up to the current
// durable watermark so stamps never regress). The storage layer passes the
// WAL's LowWater() captured at flush time: every operation below it has been
// applied to this in-memory component or an earlier one.
func (t *Tree) FlushStamped(stamp uint64) error {
	if stamp < t.durable {
		stamp = t.durable
	}
	if t.mem.Len() == 0 {
		// Nothing to write, but the watermark still advances: all
		// operations below stamp are contained in existing components.
		t.durable = stamp
		return nil
	}
	id := t.nextID
	t.nextID++
	comp, err := t.writeComponent(id, id, stamp, &memCursor{t.mem.Seek(nil)}, false, nil)
	if err != nil {
		return err
	}
	t.seq++
	t.disk = append([]*diskComponent{comp}, t.disk...)
	t.mem = btree.New()
	t.flushes++
	t.durable = stamp
	crashpoint.Hit("lsm-flushed")
	if t.opts.Background {
		return nil
	}
	return t.maybeMerge()
}

func (t *Tree) maybeMerge() error {
	pick := t.opts.Policy.PickMerge(t.componentSizes())
	if len(pick) < 2 {
		return nil
	}
	return t.mergeComponents(pick)
}

// componentSizes lists the entry counts of disk components, newest first.
func (t *Tree) componentSizes() []int {
	sizes := make([]int, len(t.disk))
	for i, c := range t.disk {
		sizes[i] = c.count
	}
	return sizes
}

// Merge merges all disk components into one (a full merge).
func (t *Tree) Merge() error {
	if len(t.disk) < 2 || t.merging {
		return nil
	}
	all := make([]int, len(t.disk))
	for i := range all {
		all[i] = i
	}
	return t.mergeComponents(all)
}

// mergeComponents synchronously merges the disk components at the given
// indexes (contiguous, newest-first) under the caller's latch.
func (t *Tree) mergeComponents(indexes []int) error {
	plan, err := t.planMergeIndexes(indexes)
	if err != nil || plan == nil {
		return err
	}
	if err := plan.Execute(); err != nil {
		t.AbortMerge(plan)
		return err
	}
	return t.InstallMerge(plan)
}

// ----------------------------------------------------------------------------
// Merge plans
// ----------------------------------------------------------------------------

// MergePlan is a merge in flight. The storage scheduler creates one under
// the partition latch (PlanMerge), runs Execute without the latch (the
// inputs are immutable and the output is written to a temp file), then
// re-takes the latch to InstallMerge. At most one plan is outstanding per
// tree.
type MergePlan struct {
	tree   *Tree
	inputs []*diskComponent // newest first, contiguous in t.disk
	// dropAntimatter is set when the merge includes the tree's oldest
	// component: nothing older remains for a tombstone to cancel.
	dropAntimatter bool
	merged         *diskComponent
}

// PlanMerge asks the tree's merge policy for a merge and prepares a plan.
// Caller must hold the tree's latch. Returns nil when there is nothing to
// merge or a plan is already outstanding.
func (t *Tree) PlanMerge() (*MergePlan, error) {
	if t.merging {
		return nil, nil
	}
	pick := t.opts.Policy.PickMerge(t.componentSizes())
	if len(pick) < 2 {
		return nil, nil
	}
	return t.planMergeIndexes(pick)
}

func (t *Tree) planMergeIndexes(indexes []int) (*MergePlan, error) {
	if t.merging {
		return nil, nil
	}
	sort.Ints(indexes)
	for i := 1; i < len(indexes); i++ {
		if indexes[i] != indexes[i-1]+1 {
			return nil, fmt.Errorf("lsm: merge pick %v is not contiguous", indexes)
		}
	}
	picked := make([]*diskComponent, len(indexes))
	for i, idx := range indexes {
		if idx < 0 || idx >= len(t.disk) {
			return nil, fmt.Errorf("lsm: merge index %d out of range", idx)
		}
		picked[i] = t.disk[idx]
	}
	t.merging = true
	return &MergePlan{
		tree:           t,
		inputs:         picked,
		dropAntimatter: indexes[len(indexes)-1] == len(t.disk)-1,
	}, nil
}

// Execute merges the plan's inputs and writes the merged component file,
// renaming it over the newest input so the merged component takes over that
// input's id — component ids must stay ordered by recency, and a concurrent
// flush may be allocating higher ids while this runs. Safe to call without
// the tree latch: inputs are immutable and the tree's in-memory state is
// untouched.
func (p *MergePlan) Execute() error {
	newest, oldest := p.inputs[0], p.inputs[len(p.inputs)-1]
	stamp := newest.stamp
	cursors := make([]diskCursor, len(p.inputs))
	sources := make([]mergeSource, len(p.inputs))
	for i, c := range p.inputs {
		stamp = max(stamp, c.stamp)
		cursors[i].stream = &pageStream{}
		cursors[i].seek(c, nil, nil)
		sources[i].cur = &cursors[i]
	}
	var m merger
	m.reset(sources)
	comp, err := p.tree.writeComponent(newest.id, oldest.coveredLow, stamp, &m, p.dropAntimatter, func() error {
		for i := range cursors {
			if err := cursors[i].stream.err; err != nil {
				return fmt.Errorf("lsm: merge input: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.merged = comp
	return nil
}

// InstallMerge splices the merged component into the tree in place of its
// inputs and removes the superseded input files. Caller must hold the
// tree's latch and have run Execute successfully.
func (t *Tree) InstallMerge(p *MergePlan) error {
	if p.merged == nil {
		return fmt.Errorf("lsm: install of unexecuted merge plan")
	}
	inputSet := map[*diskComponent]bool{}
	for _, c := range p.inputs {
		inputSet[c] = true
	}
	var newDisk []*diskComponent
	replaced := false
	for _, c := range t.disk {
		if inputSet[c] {
			if !replaced {
				newDisk = append(newDisk, p.merged)
				replaced = true
			}
			// The newest input's file was atomically replaced by the merge
			// rename; the others are superseded and removed. A crash before
			// a removal leaves a component covered by the merged one, which
			// Open deletes.
			if c.path != p.merged.path {
				os.Remove(c.path)
			}
			continue
		}
		newDisk = append(newDisk, c)
	}
	crashpoint.Hit("lsm-merge-cleanup")
	t.seq++
	t.disk = newDisk
	t.merges++
	t.merging = false
	return nil
}

// AbortMerge releases a plan whose Execute failed (or that the scheduler
// abandoned before executing). Caller must hold the tree's latch.
func (t *Tree) AbortMerge(p *MergePlan) {
	if p.tree == t {
		t.merging = false
	}
}

// writeComponent writes the entries src yields as component id (see
// writeComponentFile) and returns the component reading it.
func (t *Tree) writeComponent(id, coveredLow int, stamp uint64, src cursor, dropAntimatter bool, srcErr func() error) (*diskComponent, error) {
	path := filepath.Join(t.dir, fmt.Sprintf("component-%08d.lsm", id))
	return writeComponentFile(path, id, coveredLow, stamp, src, dropAntimatter, t.pageBytes, srcErr, t.opts.Cache)
}

// The in-memory B+-tree stores a flag byte in front of each value, the
// antimatter flag of the component image: Insert and Delete pass it as the
// value's first part, so no joined value is built.
var liveFlag, antimatterFlag = []byte{0}, []byte{1}

func decodeMemValue(raw []byte) (value []byte, antimatter bool) {
	if len(raw) == 0 {
		return nil, false
	}
	return raw[1:], raw[0] == 1
}

// ----------------------------------------------------------------------------
// Merge policies
// ----------------------------------------------------------------------------

// MergePolicy decides which disk components to merge after a flush.
// The input is the entry count of each disk component, newest first; the
// output is the indexes to merge (fewer than two means "no merge"). The
// picked indexes must be contiguous so recency order is preserved.
type MergePolicy interface {
	PickMerge(sizes []int) []int
}

// TieredPolicy is the default size-tiered merge policy: when a contiguous
// run of Trigger or more components have similar sizes (max/min within
// Ratio), the run is merged into one component of the next tier. Write
// amplification stays logarithmic without the stalls of merging every
// component at once.
type TieredPolicy struct {
	// Trigger is the run length that triggers a merge (default 4).
	Trigger int
	// Ratio is the max/min size ratio within one tier (default 3). Empty
	// components count as size 1 so ratios stay defined.
	Ratio int
}

// PickMerge implements MergePolicy.
func (p TieredPolicy) PickMerge(sizes []int) []int {
	trigger, ratio := p.Trigger, p.Ratio
	if trigger <= 0 {
		trigger = 4
	}
	if ratio <= 0 {
		ratio = 3
	}
	for start := 0; start+trigger <= len(sizes); start++ {
		// Extend the run while it stays within ratio: merging the whole tier
		// at once beats repeated pairwise merges.
		lo, hi := max(sizes[start], 1), max(sizes[start], 1)
		end := start + 1
		for ; end < len(sizes); end++ {
			sz := max(sizes[end], 1)
			if max(hi, sz) > min(lo, sz)*ratio {
				break
			}
			lo, hi = min(lo, sz), max(hi, sz)
		}
		if end-start >= trigger {
			run := make([]int, 0, end-start)
			for i := start; i < end; i++ {
				run = append(run, i)
			}
			return run
		}
	}
	return nil
}

// NoMergePolicy never merges; used by ablation benchmarks to show unchecked
// component accumulation.
type NoMergePolicy struct{}

// PickMerge implements MergePolicy.
func (NoMergePolicy) PickMerge([]int) []int { return nil }
