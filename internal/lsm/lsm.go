// Package lsm implements the Log-Structured Merge tree framework that
// AsterixDB uses for all of its internal data storage (Section 4.3 of the
// paper): a mutable in-memory component, immutable disk components produced
// by flushes, antimatter (tombstone) entries for deletes, merge policies, and
// component shadowing via a validity footer used during crash recovery.
//
// Durability protocol: every component file is written to a temp file,
// fsync'd, and renamed into place (fsutil.WriteFileAtomic), so a crash
// mid-flush or mid-merge can never surface a torn component — recovery sees
// either the old file set or the new one. Each component carries an LSN
// stamp ("all operations with LSN < stamp are contained in this or an older
// component") used by WAL replay to skip already-durable operations, and a
// covered-id low bound so a merged component shadows exactly its inputs if a
// crash lands between the merge rename and the input-file cleanup.
package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"asterixdb/internal/btree"
	"asterixdb/internal/crashpoint"
	"asterixdb/internal/fsutil"
)

// Entry is a key/value pair flowing through the LSM index. Antimatter entries
// cancel out older entries with the same key (the deferred-update form of a
// delete).
type Entry struct {
	Key        []byte
	Value      []byte
	Antimatter bool
}

// Options configure an LSM tree.
type Options struct {
	// MemBudget is the in-memory component size (bytes of keys+values) that
	// triggers a flush. Zero means DefaultMemBudget.
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
}

// diskComponent is an immutable, sorted run of entries persisted to a file.
// For search it is held in memory; the file exists so recovery and the
// validity-bit shadowing protocol behave as described in the paper.
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
	stamp   uint64
	path    string
	entries []Entry // sorted by key, one entry per key
}

// Open creates or reopens an LSM tree rooted at dir. Temp files from
// interrupted atomic writes are removed — a crashed flush or merge leaves
// nothing else behind — and so are components shadowed by a merged component
// that crashed before cleaning up its inputs. A component file that fails to
// load is damage, not a crash residue: Open fails naming it and leaves it on
// disk, since deleting it could drop rows a checkpoint already compacted out
// of the log.
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
		comp, err := loadComponent(name)
		if err != nil {
			return nil, fmt.Errorf("lsm: open %s: unreadable component %s: %w", dir, name, err)
		}
		comps = append(comps, comp)
	}
	// Drop components shadowed by a merged component covering their id: the
	// merge renamed its output into place but crashed before removing its
	// inputs. The merged component contains everything they did.
	live := comps[:0]
	for _, c := range comps {
		shadowed := false
		for _, other := range comps {
			if other != c && c.id >= other.coveredLow && c.id < other.id {
				shadowed = true
				break
			}
		}
		if shadowed {
			os.Remove(c.path)
			continue
		}
		live = append(live, c)
	}
	for _, comp := range live {
		// Newest first: higher ids were written later.
		t.disk = append([]*diskComponent{comp}, t.disk...)
		if comp.id >= t.nextID {
			t.nextID = comp.id + 1
		}
		if comp.stamp > t.durable {
			t.durable = comp.stamp
		}
	}
	return t, nil
}

// Dir returns the directory holding this tree's disk components.
func (t *Tree) Dir() string { return t.dir }

// Insert upserts a key/value pair.
func (t *Tree) Insert(key, value []byte) error {
	t.seq++
	t.mem.Put(append([]byte(nil), key...), encodeMemValue(value, false))
	return t.maybeFlush()
}

// Delete writes an antimatter entry for key.
func (t *Tree) Delete(key []byte) error {
	t.seq++
	t.mem.Put(append([]byte(nil), key...), encodeMemValue(nil, true))
	return t.maybeFlush()
}

// Get returns the newest value for key, reporting false when the key is
// absent or deleted.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	if raw, ok := t.mem.Get(key); ok {
		val, anti := decodeMemValue(raw)
		if anti {
			return nil, false
		}
		return val, true
	}
	for _, c := range t.disk {
		if e, ok := c.get(key); ok {
			if e.Antimatter {
				return nil, false
			}
			return e.Value, true
		}
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
	entries := make([]Entry, 0, t.mem.Len())
	t.mem.Scan(func(e btree.Entry) bool {
		val, anti := decodeMemValue(e.Value)
		entries = append(entries, Entry{Key: e.Key, Value: val, Antimatter: anti})
		return true
	})
	id := t.nextID
	t.nextID++
	comp, err := t.writeComponent(id, id, stamp, entries)
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
		sizes[i] = len(c.entries)
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
	merged := mergeEntries(p.inputs)
	if p.dropAntimatter {
		live := merged[:0]
		for _, e := range merged {
			if !e.Antimatter {
				live = append(live, e)
			}
		}
		merged = live
	}
	newest, oldest := p.inputs[0], p.inputs[len(p.inputs)-1]
	stamp := newest.stamp
	for _, c := range p.inputs {
		if c.stamp > stamp {
			stamp = c.stamp
		}
	}
	comp, err := p.tree.writeComponent(newest.id, oldest.coveredLow, stamp, merged)
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

// mergeEntries merges sorted runs; for duplicate keys the entry from the
// newest component (lowest slice index) wins.
func mergeEntries(comps []*diskComponent) []Entry {
	var out []Entry
	pos := make([]int, len(comps))
	for {
		var bestKey []byte
		for i, c := range comps {
			if pos[i] >= len(c.entries) {
				continue
			}
			k := c.entries[pos[i]].Key
			if bestKey == nil || bytes.Compare(k, bestKey) < 0 {
				bestKey = k
			}
		}
		if bestKey == nil {
			return out
		}
		taken := false
		for i, c := range comps {
			if pos[i] < len(c.entries) && bytes.Equal(c.entries[pos[i]].Key, bestKey) {
				if !taken {
					out = append(out, c.entries[pos[i]])
					taken = true
				}
				pos[i]++
			}
		}
	}
}

// ----------------------------------------------------------------------------
// Disk component format
// ----------------------------------------------------------------------------

// validityMagic is the footer written after a component's entries. Atomic
// rename writes make torn files impossible in normal operation, so a file
// without it has been truncated from outside and Open refuses it.
var validityMagic = []byte("LSMVALID")

// writeComponent persists entries as component id via an atomic temp-file +
// fsync + rename write. The file body is: uvarint stamp, uvarint coveredLow,
// uvarint count, entries, validity footer.
func (t *Tree) writeComponent(id, coveredLow int, stamp uint64, entries []Entry) (*diskComponent, error) {
	path := filepath.Join(t.dir, fmt.Sprintf("component-%08d.lsm", id))
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	writeUvarint(stamp)
	writeUvarint(uint64(coveredLow))
	writeUvarint(uint64(len(entries)))
	for _, e := range entries {
		flag := byte(0)
		if e.Antimatter {
			flag = 1
		}
		buf.WriteByte(flag)
		writeUvarint(uint64(len(e.Key)))
		buf.Write(e.Key)
		writeUvarint(uint64(len(e.Value)))
		buf.Write(e.Value)
	}
	buf.Write(validityMagic)
	if err := fsutil.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("lsm: write component: %w", err)
	}
	return &diskComponent{id: id, coveredLow: coveredLow, stamp: stamp, path: path, entries: entries}, nil
}

func loadComponent(path string) (*diskComponent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(validityMagic) || !bytes.Equal(data[len(data)-len(validityMagic):], validityMagic) {
		return nil, fmt.Errorf("lsm: no validity footer")
	}
	data = data[:len(data)-len(validityMagic)]
	rd := bytes.NewReader(data)
	stamp, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	coveredLow, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	count, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		flag, err := rd.ReadByte()
		if err != nil {
			return nil, err
		}
		key, err := readBlob(rd)
		if err != nil {
			return nil, err
		}
		val, err := readBlob(rd)
		if err != nil {
			return nil, err
		}
		entries = append(entries, Entry{Key: key, Value: val, Antimatter: flag == 1})
	}
	var id int
	base := filepath.Base(path)
	fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(base, "component-"), ".lsm"), "%d", &id)
	return &diskComponent{id: id, coveredLow: int(coveredLow), stamp: stamp, path: path, entries: entries}, nil
}

func readBlob(rd *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	// io.ReadFull, not rd.Read: a bare Read on a reader with fewer than n
	// bytes left returns short with a nil error, silently truncating the
	// blob (and desynchronizing every entry after it).
	if _, err := io.ReadFull(rd, out); err != nil {
		return nil, fmt.Errorf("lsm: short read: %w", err)
	}
	return out, nil
}

func (c *diskComponent) get(key []byte) (Entry, bool) {
	i := sort.Search(len(c.entries), func(i int) bool { return bytes.Compare(c.entries[i].Key, key) >= 0 })
	if i < len(c.entries) && bytes.Equal(c.entries[i].Key, key) {
		return c.entries[i], true
	}
	return Entry{}, false
}

func (c *diskComponent) slice(lo, hi []byte) []Entry {
	start := 0
	if lo != nil {
		start = sort.Search(len(c.entries), func(i int) bool { return bytes.Compare(c.entries[i].Key, lo) >= 0 })
	}
	end := len(c.entries)
	if hi != nil {
		end = sort.Search(len(c.entries), func(i int) bool { return bytes.Compare(c.entries[i].Key, hi) > 0 })
	}
	if start > end {
		return nil
	}
	return c.entries[start:end]
}

// encodeMemValue packs the antimatter flag with the value inside the
// in-memory B+-tree.
func encodeMemValue(value []byte, antimatter bool) []byte {
	flag := byte(0)
	if antimatter {
		flag = 1
	}
	out := make([]byte, 1+len(value))
	out[0] = flag
	copy(out[1:], value)
	return out
}

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
	trigger := p.Trigger
	if trigger <= 0 {
		trigger = 4
	}
	ratio := p.Ratio
	if ratio <= 0 {
		ratio = 3
	}
	if len(sizes) < trigger {
		return nil
	}
	for start := 0; start+trigger <= len(sizes); start++ {
		minSz, maxSz := 0, 0
		for end := start; end < len(sizes); end++ {
			sz := sizes[end]
			if sz <= 0 {
				sz = 1
			}
			if end == start {
				minSz, maxSz = sz, sz
			} else {
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
			}
			if maxSz > minSz*ratio {
				break
			}
			if end-start+1 >= trigger {
				// Extend the run greedily: merging the whole tier at once
				// beats repeated pairwise merges.
				run := make([]int, 0, end-start+1)
				for i := start; i <= end; i++ {
					run = append(run, i)
				}
				for next := end + 1; next < len(sizes); next++ {
					sz := sizes[next]
					if sz <= 0 {
						sz = 1
					}
					lo, hi := minSz, maxSz
					if sz < lo {
						lo = sz
					}
					if sz > hi {
						hi = sz
					}
					if hi > lo*ratio {
						break
					}
					minSz, maxSz = lo, hi
					run = append(run, next)
				}
				return run
			}
		}
	}
	return nil
}

// NoMergePolicy never merges; used by ablation benchmarks to show unchecked
// component accumulation.
type NoMergePolicy struct{}

// PickMerge implements MergePolicy.
func (NoMergePolicy) PickMerge([]int) []int { return nil }
