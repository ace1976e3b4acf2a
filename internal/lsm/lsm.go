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
// place; Open reads it back whole. Besides the image a component keeps where
// each key sits in it and a bloom filter over its keys, both built in memory
// by the one walk that validates the image, so a point read binary-searches
// only the components that may hold its key. The image is
//
//	image:  entry* footer
//	entry:  uvarint klen ‖ key ‖ flag (1 = antimatter) ‖ uvarint vlen ‖ value
//	footer: stamp u64 ‖ coveredLow u64 ‖ entry count u64 ‖ CRC-32 u32 ‖ magic [8]byte
//
// with little-endian integers, an IEEE CRC over every byte before it, and a
// magic naming the layout. The stamp is the LSN watermark ("all operations
// with LSN < stamp are contained in this or an older component") WAL replay
// uses to skip already-durable operations; coveredLow lets a merged component
// shadow exactly its inputs if a crash lands between the merge rename and the
// input-file cleanup.
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
// validated image of its file, per entry where its key starts and ends in
// that image, and a bloom filter over its keys that is never written to the
// file. Keys and values handed out are capped views into the image, so the
// GC keeps it alive exactly as long as some caller still views them.
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
	stamp  uint64
	path   string
	image  []byte
	keys   []span // per entry, where its key sits in image
	filter filter // every key of keys, antimatter included
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
// component's filter, so it still shadows older values.
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
// may be nil to leave that side open. It is a thin wrapper over NewIterator;
// callers that span lock releases (the storage layer's chunked scans) hold
// the iterator directly and resume it instead of re-entering Range.
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
		sizes[i] = len(c.keys)
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
		sources[i].cur = &diskCursor{c: c, end: len(c.keys)}
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
// package comment). LSMKFV04 frames entries as LSMKFV02 did, but its keys are
// the ones the storage layer writes since every value is keyed by its place in
// Compare's order: an 02 image holds numbers keyed by width and an 03 image
// durations, intervals, spatial values, records and lists keyed by their
// self-describing bytes, keys no probe would find. Images ending in an older
// magic are refused by name rather than converted.
var (
	formatMagic     = []byte("LSMKFV04")
	oldFormatMagics = [][]byte{[]byte("LSMKFV03"), []byte("LSMKFV02"), []byte("LSMVALID")}
)

// footerLen is the fixed footer size: stamp, coveredLow, count, CRC, magic.
const footerLen = 8 + 8 + 8 + 4 + 8

// writeComponent writes the entries src yields as component id via an atomic
// temp-file + fsync + rename write, and returns the component searching the
// image it wrote.
func (t *Tree) writeComponent(id, coveredLow int, stamp uint64, src cursor, dropAntimatter bool, sizeHint int) (*diskComponent, error) {
	image := encodeImage(coveredLow, stamp, src, dropAntimatter, sizeHint)
	path := filepath.Join(t.dir, fmt.Sprintf("component-%08d.lsm", id))
	if err := fsutil.WriteFileAtomic(path, image, 0o644); err != nil {
		return nil, fmt.Errorf("lsm: write component: %w", err)
	}
	return openImage(id, path, image)
}

// encodeImage builds the image of the entries src yields in key order,
// leaving antimatter out when dropAntimatter is set. sizeHint is the
// expected entry bytes.
func encodeImage(coveredLow int, stamp uint64, src cursor, dropAntimatter bool, sizeHint int) []byte {
	image := make([]byte, 0, sizeHint+footerLen)
	var count uint64
	for {
		key, value, antimatter, ok := src.next()
		if !ok {
			break
		}
		if antimatter && dropAntimatter {
			continue
		}
		flag := byte(0)
		if antimatter {
			flag = 1
		}
		image = binary.AppendUvarint(image, uint64(len(key)))
		image = append(append(image, key...), flag)
		image = binary.AppendUvarint(image, uint64(len(value)))
		image = append(image, value...)
		count++
	}
	image = binary.LittleEndian.AppendUint64(image, stamp)
	image = binary.LittleEndian.AppendUint64(image, uint64(coveredLow))
	image = binary.LittleEndian.AppendUint64(image, count)
	image = binary.LittleEndian.AppendUint32(image, crc32.ChecksumIEEE(image))
	image = append(image, formatMagic...)
	if cap(image)-len(image) > len(image)/8 {
		// A merge that shadowed duplicates or dropped antimatter overshot
		// its hint; the image lives as long as the component, so trim it.
		return bytes.Clone(image)
	}
	return image
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
	for i := range c.keys {
		if _, value, antimatter := c.entry(i); !antimatter {
			if err := check(value); err != nil {
				return fmt.Errorf("lsm: entry %d value: %w", i, err)
			}
		}
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

// openImage checks an image's footer and checksum, then walks its entries
// once, checking every length against the bytes that remain, recording where
// each key sits and adding each key to the component's filter. An image it
// accepts decodes entirely within itself.
func openImage(id int, path string, image []byte) (*diskComponent, error) {
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
	body := image[:n-footerLen]
	if id < 0 || coveredLow > uint64(id) {
		return nil, fmt.Errorf("lsm: covered id %d outside component id %d", coveredLow, id)
	}
	// Every entry takes at least three bytes (two lengths and a flag), and
	// key offsets are 32-bit.
	if count > uint64(len(body)/3) || uint64(len(body)) > math.MaxUint32 {
		return nil, fmt.Errorf("lsm: %d entries in %d bytes", count, len(body))
	}
	keys := make([]span, 0, count)
	f := newFilter(count)
	pos := 0
	for i := uint64(0); i < count; i++ {
		klen, kn := binary.Uvarint(body[pos:])
		// The key must leave room for its flag byte.
		if kn <= 0 || klen >= uint64(len(body)-pos-kn) {
			return nil, fmt.Errorf("lsm: entry %d key overruns the image at byte %d", i, pos)
		}
		start := pos + kn
		end := start + int(klen)
		if body[end] > 1 {
			return nil, fmt.Errorf("lsm: entry %d has flag %d", i, body[end])
		}
		vlen, vn := binary.Uvarint(body[end+1:])
		if vn <= 0 || vlen > uint64(len(body)-end-1-vn) {
			return nil, fmt.Errorf("lsm: entry %d value overruns the image at byte %d", i, end+1)
		}
		pos = end + 1 + vn + int(vlen)
		keys = append(keys, span{uint32(start), uint32(end)})
		f.add(keyHash(body[start:end]))
	}
	if pos != len(body) {
		return nil, fmt.Errorf("lsm: %d bytes after entry %d", len(body)-pos, count)
	}
	return &diskComponent{id: id, coveredLow: int(coveredLow), stamp: stamp, path: path, image: image, keys: keys, filter: f}, nil
}

// span is one key's [start, end) offsets within its component image.
type span struct{ start, end uint32 }

// key returns entry i's key.
func (c *diskComponent) key(i int) []byte {
	k := c.keys[i]
	return c.image[k.start:k.end:k.end]
}

// entry decodes entry i; openImage has checked every length.
func (c *diskComponent) entry(i int) (key, value []byte, antimatter bool) {
	end := int(c.keys[i].end)
	vlen, n := binary.Uvarint(c.image[end+1:])
	start := end + 1 + n
	return c.key(i), c.image[start : start+int(vlen) : start+int(vlen)], c.image[end] == 1
}

// search returns the first entry whose key is >= key.
func (c *diskComponent) search(key []byte) int {
	return sort.Search(len(c.keys), func(i int) bool { return bytes.Compare(c.key(i), key) >= 0 })
}

func (c *diskComponent) get(key []byte) (value []byte, antimatter, ok bool) {
	i := c.search(key)
	if i == len(c.keys) || !bytes.Equal(c.key(i), key) {
		return nil, false, false
	}
	_, value, antimatter = c.entry(i)
	return value, antimatter, true
}

// window returns a cursor over the entries with lo <= key <= hi; a nil bound
// leaves that side open.
func (c *diskComponent) window(lo, hi []byte) diskCursor {
	d := diskCursor{c: c, end: len(c.keys)}
	if lo != nil {
		d.i = c.search(lo)
	}
	if hi != nil {
		if d.end = c.search(hi); d.end < len(c.keys) && bytes.Equal(c.key(d.end), hi) {
			d.end++
		}
	}
	return d
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
