// Package lsm implements the Log-Structured Merge tree framework that
// AsterixDB uses for all of its internal data storage (Section 4.3 of the
// paper): a mutable in-memory component, immutable disk components produced
// by flushes and merges, antimatter (tombstone) entries for deletes, and
// merge policies.
//
// A disk component is the bytes of its file. A flush or merge builds the
// image, writes it through a temp file, fsync and rename
// (fsutil.WriteFileAtomic) — so a crash mid-flush or mid-merge never surfaces
// a torn component — and then searches, scans and merges that same image in
// place; Open reads it back whole and walks it once to validate it. The
// image is
//
//	image:    block* restarts footer
//	block:    uvarint keysLen ‖ key{1,16} ‖ value{1,16}
//	key:      uvarint shared ‖ uvarint suffixLen ‖ suffix ‖ flag (1 = antimatter) ‖ uvarint vlen
//	restarts: start offset u32 per block ‖ block count u32
//	footer:   stamp u64 ‖ coveredLow u64 ‖ entry count u64 ‖ CRC-32 u32 ‖ magic [8]byte
//
// with little-endian integers, an IEEE CRC over every byte before it, and a
// magic naming the layout. Every block but the last holds 16 entries: first
// their keys, keysLen bytes in all, then their values in the same order. A
// key is the first shared bytes of the key before it followed by its
// suffix, and a block's first key has shared = 0, so it is stored whole: a
// search binary-searches those and walks the keys of one block, which sit
// together, not between values. Values are stored as they are and handed
// out as views into the image. The stamp is the LSN watermark ("all
// operations with LSN < stamp are contained in this or an older
// component") WAL replay uses to skip already-durable operations;
// coveredLow lets a merged component shadow exactly its inputs if a crash
// lands between the merge rename and the input-file cleanup.
//
// Besides its image a component keeps a bloom filter over its keys, built in
// memory by the first point read that reaches the component, so a point
// read searches only the components that may hold its key.
package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

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
	dir     string
	opts    Options
	mem     *btree.Tree
	disk    []*diskComponent // newest first
	nextID  int
	flushes int
	merges  int
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

// diskComponent is an immutable, sorted run of entries, one per key: the
// validated image of its file and, once a Get has reached it, a bloom filter
// over its keys that is never written to the file. Values handed out are
// capped views into the image, so the GC keeps it alive exactly as long as
// some caller still views them.
type diskComponent struct {
	id int
	// coveredLow is the lowest component id this component supersedes: its
	// own id for a flushed component, the oldest input's id for a merged
	// one. Recovery deletes any component whose id falls inside another's
	// [coveredLow, id] range — the residue of a crash after a merge rename
	// but before input cleanup.
	coveredLow int
	// stamp is the LSN watermark: all operations with LSN < stamp are
	// reflected in this component or an older one.
	stamp uint64
	path  string
	image []byte
	// entries is the length of the blocks at the front of image, and
	// restarts views their u32 start offsets after them.
	entries  int
	restarts []byte
	count    int
	filter   filter // every key, antimatter included; nil until the first Get
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
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: open %s: %w", dir, err)
	}
	if err := fsutil.RemoveTempFiles(dir); err != nil {
		return nil, fmt.Errorf("lsm: open %s: %w", dir, err)
	}
	t := &Tree{dir: dir, opts: opts, mem: btree.New()}
	names, err := filepath.Glob(filepath.Join(dir, "component-*.lsm"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var comps []*diskComponent
	for _, name := range names {
		comp, err := loadComponent(name, opts.CheckValue)
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

// DiskBytes returns the bytes of the tree's component files: each
// component is its file's image. Caller must hold the tree's latch.
func (t *Tree) DiskBytes() int64 {
	var n int64
	for _, c := range t.disk {
		n += int64(len(c.image))
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
	// Entry bytes are at most the memtable's arena bytes plus a key length
	// varint each, two bytes apiece below 16 KiB.
	src := &memCursor{t.mem.Seek(nil)}
	comp, err := t.writeComponent(id, id, stamp, src, false, t.mem.Bytes()+2*t.mem.Len())
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
	stamp, size := newest.stamp, 0
	sources := make([]mergeSource, len(p.inputs))
	for i, c := range p.inputs {
		stamp = max(stamp, c.stamp)
		size += len(c.image)
		d := &diskCursor{}
		d.seek(c, nil, nil)
		sources[i].cur = d
	}
	var m merger
	m.reset(sources)
	comp, err := p.tree.writeComponent(newest.id, oldest.coveredLow, stamp, &m, p.dropAntimatter, size)
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

// ----------------------------------------------------------------------------
// Disk component format
// ----------------------------------------------------------------------------

// formatMagic ends every component image and names its layout (see the
// package comment). LSMKFV05 writes blocks of restartInterval entries,
// their keys, each against the one before it, ahead of their values;
// LSMKFV04 wrote every key whole beside its value. An 02 image holds
// numbers keyed by width and an 03 image durations, intervals, spatial
// values, records and lists keyed by their self-describing bytes, keys no
// probe would find. Images ending in an older magic are refused by name
// rather than converted.
var (
	formatMagic     = []byte("LSMKFV05")
	oldFormatMagics = [][]byte{[]byte("LSMKFV04"), []byte("LSMKFV03"), []byte("LSMKFV02"), []byte("LSMVALID")}
)

const (
	// footerLen is the fixed footer size: stamp, coveredLow, count, CRC,
	// magic.
	footerLen = 8 + 8 + 8 + 4 + 8
	// restartInterval is the entries per block. A search walks at most
	// restartInterval-1 keys past the block start it binary-searched to.
	restartInterval = 16
)

// writeComponent writes the entries src yields as component id via an atomic
// temp-file + fsync + rename write, and returns the component searching the
// image it wrote.
func (t *Tree) writeComponent(id, coveredLow int, stamp uint64, src cursor, dropAntimatter bool, sizeHint int) (*diskComponent, error) {
	image := encodeImage(coveredLow, stamp, src, dropAntimatter, sizeHint)
	path := filepath.Join(t.dir, fmt.Sprintf("component-%08d.lsm", id))
	if err := fsutil.WriteFileAtomic(path, image, 0o644); err != nil {
		return nil, fmt.Errorf("lsm: write component: %w", err)
	}
	// encodeImage wrote every entry, so only the framing is read back.
	return frameImage(id, path, image)
}

// encodeImage builds the image of the entries src yields in key order,
// leaving antimatter out when dropAntimatter is set. sizeHint is the
// expected entry bytes. A cursor's values stay readable after it advances
// (they view an arena or an image), so a block's values are gathered and
// written after its keys.
func encodeImage(coveredLow int, stamp uint64, src cursor, dropAntimatter bool, sizeHint int) []byte {
	image := make([]byte, 0, sizeHint+footerLen)
	var restarts, keys []byte
	var values [][]byte
	writeBlock := func() {
		restarts = binary.LittleEndian.AppendUint32(restarts, uint32(len(image)))
		image = binary.AppendUvarint(image, uint64(len(keys)))
		image = append(image, keys...)
		for _, v := range values {
			image = append(image, v...)
		}
		keys, values = keys[:0], values[:0]
	}
	// prev is a copy: src may reuse the buffer of a key it returned.
	var prev []byte
	var count uint64
	for {
		key, value, antimatter, ok := src.next()
		if !ok {
			break
		}
		if antimatter && dropAntimatter {
			continue
		}
		if len(values) == restartInterval {
			writeBlock()
		}
		shared := 0
		if len(values) > 0 {
			shared = commonPrefix(prev, key)
		}
		flag := byte(0)
		if antimatter {
			flag = 1
		}
		keys = binary.AppendUvarint(keys, uint64(shared))
		keys = binary.AppendUvarint(keys, uint64(len(key)-shared))
		keys = append(append(keys, key[shared:]...), flag)
		keys = binary.AppendUvarint(keys, uint64(len(value)))
		values = append(values, value)
		prev = append(prev[:shared], key[shared:]...)
		count++
	}
	if len(values) > 0 {
		writeBlock()
	}
	image = append(image, restarts...)
	image = binary.LittleEndian.AppendUint32(image, uint32(len(restarts)/4))
	image = binary.LittleEndian.AppendUint64(image, stamp)
	image = binary.LittleEndian.AppendUint64(image, uint64(coveredLow))
	image = binary.LittleEndian.AppendUint64(image, count)
	image = binary.LittleEndian.AppendUint32(image, crc32.ChecksumIEEE(image))
	image = append(image, formatMagic...)
	if cap(image)-len(image) > len(image)/8 {
		// Shared prefixes, shadowed duplicates or dropped antimatter made
		// the image smaller than its hint; the image lives as long as the
		// component, so trim it.
		return bytes.Clone(image)
	}
	return image
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// loadComponent reads a component file whole, validates it and, when check
// is set, runs check on each of its non-antimatter values.
func loadComponent(path string, check func([]byte) error) (*diskComponent, error) {
	id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "component-"), ".lsm"))
	if err != nil {
		return nil, fmt.Errorf("lsm: component file name without an id: %w", err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := openImage(id, path, image)
	if err == nil && check != nil {
		err = c.checkValues(check)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// checkValues runs check on every non-antimatter value.
func (c *diskComponent) checkValues(check func([]byte) error) error {
	for i, p := 0, c.first(); p.key < c.entries; i++ {
		_, _, antimatter, value, next := c.step(p)
		if !antimatter {
			if err := check(value); err != nil {
				return fmt.Errorf("lsm: entry %d value: %w", i, err)
			}
		}
		p = next
	}
	return nil
}

// Reseal recomputes the checksum of a component image in place, over its
// bytes as they are now. Fault-injection harnesses use it to plant damage
// the checksum cannot see.
func Reseal(image []byte) error {
	n := len(image)
	if n < footerLen || !bytes.Equal(image[n-len(formatMagic):], formatMagic) {
		return fmt.Errorf("lsm: no component footer")
	}
	binary.LittleEndian.PutUint32(image[n-12:], crc32.ChecksumIEEE(image[:n-12]))
	return nil
}

// openImage frames an image and walks its entries once, checking every
// length against the bytes that remain, every block start against the
// block index, and every key against the one before it. An image it accepts
// decodes entirely within itself, in strictly ascending key order.
func openImage(id int, path string, image []byte) (*diskComponent, error) {
	c, err := frameImage(id, path, image)
	if err != nil {
		return nil, err
	}
	if err := c.walk(); err != nil {
		return nil, err
	}
	return c, nil
}

// frameImage checks an image's magic, checksum, footer and block index, and
// returns the component over it without reading its entries.
func frameImage(id int, path string, image []byte) (*diskComponent, error) {
	n := len(image)
	for _, old := range oldFormatMagics {
		if bytes.HasSuffix(image, old) {
			return nil, fmt.Errorf("lsm: written by an older component layout (%s); drop and recreate the dataset or index", old)
		}
	}
	if n < footerLen || !bytes.Equal(image[n-len(formatMagic):], formatMagic) {
		return nil, fmt.Errorf("lsm: no component footer")
	}
	foot := image[n-footerLen:]
	if sum, want := crc32.ChecksumIEEE(image[:n-12]), binary.LittleEndian.Uint32(foot[24:]); sum != want {
		return nil, fmt.Errorf("lsm: checksum mismatch (stored %08x, computed %08x)", want, sum)
	}
	stamp := binary.LittleEndian.Uint64(foot)
	coveredLow := binary.LittleEndian.Uint64(foot[8:])
	count := binary.LittleEndian.Uint64(foot[16:])
	if id < 0 || coveredLow > uint64(id) {
		return nil, fmt.Errorf("lsm: covered id %d outside component id %d", coveredLow, id)
	}
	rest := n - footerLen - 4
	if rest < 0 {
		return nil, fmt.Errorf("lsm: no block index")
	}
	blocks := uint64(binary.LittleEndian.Uint32(image[rest:]))
	if 4*blocks > uint64(rest) {
		return nil, fmt.Errorf("lsm: block index of %d blocks overruns the image", blocks)
	}
	entries := rest - int(4*blocks)
	// Every entry takes at least four bytes (three lengths and a flag), and
	// block offsets are 32-bit.
	if count > uint64(entries/4) || uint64(entries) > math.MaxUint32 {
		return nil, fmt.Errorf("lsm: %d entries in %d bytes", count, entries)
	}
	if want := (count + restartInterval - 1) / restartInterval; blocks != want {
		return nil, fmt.Errorf("lsm: %d blocks for %d entries, want %d", blocks, count, want)
	}
	return &diskComponent{
		id: id, coveredLow: int(coveredLow), stamp: stamp, path: path, image: image,
		entries: entries, restarts: image[entries:rest:rest], count: int(count),
	}, nil
}

// walk checks every block of a framed component: it starts where the block
// index says, its keys fill exactly the bytes its header gives them, and
// its values exactly the bytes their lengths add up to, before the next
// block. Each flag is 0 or 1, and each key is above the one before it and
// shares with it exactly the prefix its entry claims, so search may
// conclude from shared lengths alone.
func (c *diskComponent) walk() error {
	body := c.image[:c.entries]
	var prev []byte
	pos := 0
	for i := 0; i < c.count; {
		b := i / restartInterval
		if c.restart(b) != pos {
			return fmt.Errorf("lsm: block %d starts at byte %d, not at its indexed %d", b, pos, c.restart(b))
		}
		klen, n := binary.Uvarint(body[pos:])
		if n <= 0 || klen > uint64(len(body)-pos-n) {
			return fmt.Errorf("lsm: block %d keys overrun the image at byte %d", b, pos)
		}
		p, keysEnd := pos+n, pos+n+int(klen)
		keys := body[:keysEnd]
		var values uint64
		for end := min(i+restartInterval, c.count); i < end; i++ {
			shared, sn := binary.Uvarint(keys[p:])
			if sn <= 0 || shared > uint64(len(prev)) || i%restartInterval == 0 && shared != 0 {
				return fmt.Errorf("lsm: entry %d shares a bad prefix length at byte %d", i, p)
			}
			slen, ln := binary.Uvarint(keys[p+sn:])
			at := p + sn + ln
			// The suffix must leave room for the flag.
			if ln <= 0 || slen >= uint64(len(keys)-at) {
				return fmt.Errorf("lsm: entry %d key overruns its block at byte %d", i, p)
			}
			suffix, flag := keys[at:at+int(slen)], at+int(slen)
			if keys[flag] > 1 {
				return fmt.Errorf("lsm: entry %d has flag %d", i, keys[flag])
			}
			vlen, vn := binary.Uvarint(keys[flag+1:])
			if values += vlen; vn <= 0 || vlen > uint64(len(body)) || values > uint64(len(body)-keysEnd) {
				return fmt.Errorf("lsm: entry %d value overruns the image at byte %d", i, flag+1)
			}
			if i > 0 {
				var ascends bool
				switch {
				case i%restartInterval == 0:
					ascends = bytes.Compare(suffix, prev) > 0
				case int(shared) < len(prev):
					ascends = len(suffix) > 0 && suffix[0] > prev[shared]
				default:
					ascends = len(suffix) > 0
				}
				if !ascends {
					return fmt.Errorf("lsm: entry %d key is not above the key before it", i)
				}
			}
			prev = append(prev[:shared], suffix...)
			p = flag + 1 + vn
		}
		if p != keysEnd {
			return fmt.Errorf("lsm: block %d keys end at byte %d, not at %d", b, p, keysEnd)
		}
		pos = keysEnd + int(values)
	}
	if pos != len(body) {
		return fmt.Errorf("lsm: %d bytes after entry %d", len(body)-pos, c.count)
	}
	return nil
}

// restart returns the offset of block b.
func (c *diskComponent) restart(b int) int {
	return int(binary.LittleEndian.Uint32(c.restarts[4*b:]))
}

// uvarint decodes the varint at b[off:], which openImage or encodeImage
// has checked, and returns it with the offset after it.
func uvarint(b []byte, off int) (uint64, int) {
	if x := b[off]; x < 0x80 {
		return uint64(x), off + 1
	}
	v, n := binary.Uvarint(b[off:])
	return v, off + n
}

// pos is an entry's place in an image: where its key and its value start,
// and where the keys of its block end and the block's values begin. A pos
// whose key is at the end of the entry blocks is past the last entry.
type pos struct{ key, value, keysEnd int }

// block returns the pos of the first entry of the block at off, or the end
// pos at the end of the entry blocks.
func (c *diskComponent) block(off int) pos {
	if off >= c.entries {
		return pos{key: c.entries}
	}
	klen, key := uint64(c.image[off]), off+1
	if klen >= 0x80 {
		klen, key = uvarint(c.image, off)
	}
	return pos{key: key, value: key + int(klen), keysEnd: key + int(klen)}
}

// first returns the pos of the component's first entry.
func (c *diskComponent) first() pos { return c.block(0) }

// keyAt decodes the key of the entry at p: how much of the previous key it
// shares, the rest of it, its flag's offset, its value's length, and where
// the next key of the block starts.
func (c *diskComponent) keyAt(p pos) (shared int, suffix []byte, flag, vlen, next int) {
	img, off := c.image, p.key
	s := uint64(img[off])
	if s < 0x80 {
		off++
	} else {
		s, off = uvarint(img, off)
	}
	n := uint64(img[off])
	if n < 0x80 {
		off++
	} else {
		n, off = uvarint(img, off)
	}
	flag = off + int(n)
	v := uint64(img[flag+1])
	if next = flag + 2; v >= 0x80 {
		v, next = uvarint(img, flag+1)
	}
	return int(s), img[off:flag:flag], flag, int(v), next
}

// step decodes the entry at p and returns it with the pos of the entry
// after it.
func (c *diskComponent) step(p pos) (shared int, suffix []byte, antimatter bool, value []byte, after pos) {
	shared, suffix, flag, vlen, next := c.keyAt(p)
	end := p.value + vlen
	if after = (pos{next, end, p.keysEnd}); next == p.keysEnd {
		// The block's last value ends where the next block starts.
		after = c.block(end)
	}
	return shared, suffix, c.image[flag] == 1, c.image[p.value:end:end], after
}

// search returns the pos of the first entry whose key is >= key (the end
// pos if there is none) and whether that key equals key. It binary-searches
// the blocks' first keys and walks the keys of one block, comparing only
// the bytes after the prefix the key so far matched: an entry that shares
// less than that with its predecessor is greater than key, one that shares
// more is still less. The entry it returns therefore shares with its
// predecessor only a prefix of key.
func (c *diskComponent) search(key []byte) (p pos, equal bool) {
	blocks := len(c.restarts) / 4
	b := sort.Search(blocks, func(b int) bool {
		_, first, _, _, _ := c.keyAt(c.block(c.restart(b)))
		return bytes.Compare(first, key) > 0
	}) - 1
	if b < 0 {
		return c.first(), false
	}
	// matched is how much of key the key before p matches; that key is
	// below key, and a block's first key shares nothing with a predecessor.
	matched := 0
	for p = c.block(c.restart(b)); p.key < p.keysEnd; {
		shared, suffix, _, vlen, next := c.keyAt(p)
		if shared < matched {
			return p, false
		}
		if shared == matched {
			rest := key[matched:]
			l := commonPrefix(suffix, rest)
			switch {
			case l == len(suffix) && l == len(rest):
				return p, true
			case l == len(rest) || l < len(suffix) && suffix[l] > rest[l]:
				return p, false
			}
			matched += l
		}
		p.key, p.value = next, p.value+vlen
	}
	// Every key of block b is below key: the next block's first one is not.
	return c.block(p.value), false
}

func (c *diskComponent) get(key []byte) (value []byte, antimatter, ok bool) {
	p, equal := c.search(key)
	if !equal {
		return nil, false, false
	}
	_, _, antimatter, value, _ = c.step(p)
	return value, antimatter, true
}

// buildFilter returns a filter over every key of the component.
func (c *diskComponent) buildFilter() filter {
	f := newFilter(uint64(c.count))
	var d diskCursor
	d.seek(c, nil, nil)
	for {
		key, _, _, ok := d.next()
		if !ok {
			return f
		}
		f.add(keyHash(key))
	}
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
