package lsm

import (
	"bytes"

	"asterixdb/internal/btree"
)

// This file implements the tree's one k-way merge and the streaming read
// path on top of it. A merger heap-merges sorted runs — the memtable's
// leaf-chain cursor and disk component cursors — yielding each key once from
// its newest run; Iterator.Next and MergePlan.Execute both pull from it. An
// Iterator is positioned once and then streams: Next is O(log #sources) per
// entry, and a tree-level mutation sequence number lets an iterator that was
// paused across a lock release detect staleness and re-seek to just after
// the last key it returned instead of silently missing or double-visiting
// entries.

// cursor walks one sorted run of entries, one per key.
type cursor interface {
	// next returns the run's next entry and advances past it; ok is false at
	// the end of the run.
	next() (key, value []byte, antimatter, ok bool)
}

// memCursor walks the in-memory component from a seek position.
type memCursor struct{ c btree.Cursor }

func (m *memCursor) next() (key, value []byte, antimatter, ok bool) {
	if !m.c.Valid() {
		return nil, nil, false, false
	}
	key, raw := m.c.Key(), m.c.Value()
	m.c.Next()
	value, antimatter = decodeMemValue(raw)
	return key, value, antimatter, true
}

// keyBufLen is the length an iterator's disk cursors start their key
// buffers with, and the least a buffer grows to.
const keyBufLen = 64

// diskCursor walks a disk component's entries from a pos to the end,
// rebuilding each key from the one before it. It rebuilds into its two
// buffers in turn, so the key it returned stays whole through the next call:
// the merger compares a run's returned key after advancing the run.
type diskCursor struct {
	c  *diskComponent
	at pos
	// keys are the buffers, each as long as its capacity; lens are the
	// lengths of the keys in them, and keys[turn] holds the last key.
	keys [2][]byte
	lens [2]int
	turn int
	// same is how many leading bytes the two keys hold in common, so a
	// rebuild copies only the shared bytes past them.
	same int
}

// seek positions d at c's first entry whose key is >= from (its first entry
// for a nil from), keeping d's buffers. If that key is above a non-nil hi, d
// is left at the end, so a run with nothing in range stays out of the merge.
func (d *diskCursor) seek(c *diskComponent, from, hi []byte) {
	d.c, d.at, d.same, d.lens[d.turn] = c, c.first(), 0, 0
	if from != nil {
		d.at, _ = c.search(from)
		// The entry search returns shares with its predecessor only a prefix
		// of from.
		buf := append(d.keys[d.turn][:0], from...)
		d.keys[d.turn], d.lens[d.turn] = buf[:cap(buf)], len(from)
	}
	if hi != nil && d.at.key < c.entries {
		if shared, suffix, _, _, _ := c.keyAt(d.at); above(from[:shared], suffix, hi) {
			d.at = c.block(c.entries)
		}
	}
}

// above reports whether the key prefix ‖ suffix sorts after hi.
func above(prefix, suffix, hi []byte) bool {
	if len(prefix) > len(hi) {
		return bytes.Compare(prefix, hi) > 0
	}
	if c := bytes.Compare(prefix, hi[:len(prefix)]); c != 0 {
		return c > 0
	}
	return bytes.Compare(suffix, hi[len(prefix):]) > 0
}

func (d *diskCursor) next() (key, value []byte, antimatter, ok bool) {
	if d.at.key >= d.c.entries {
		return nil, nil, false, false
	}
	shared, suffix, antimatter, value, after := d.c.step(d.at)
	prev := d.keys[d.turn][:d.lens[d.turn]]
	d.turn ^= 1
	n := shared + len(suffix)
	buf := d.keys[d.turn]
	if len(buf) < n {
		buf = make([]byte, max(n, 2*len(buf), keyBufLen))
		copy(buf, prev[:shared])
		d.keys[d.turn] = buf
	} else if keep := min(d.same, shared); keep < shared {
		copy(buf[keep:shared], prev[keep:shared])
	}
	copy(buf[shared:n], suffix)
	d.lens[d.turn], d.same, d.at = n, shared, after
	return buf[:n:n], value, antimatter, true
}

// mergeSource is one run of a merger: its cursor and current entry. rank is
// the run's recency (0 = newest); among equal keys the lowest rank wins.
type mergeSource struct {
	rank       int
	cur        cursor
	key, value []byte
	antimatter bool
}

func (s *mergeSource) advance() bool {
	var ok bool
	s.key, s.value, s.antimatter, ok = s.cur.next()
	return ok
}

// merger is a min-heap of runs ordered by (key, rank). It is itself a
// cursor: next yields every key once, from its newest run, antimatter
// included — the iterator suppresses tombstones, a merge keeps or drops them.
type merger struct {
	heap []*mergeSource
}

// reset rebuilds the heap over sources, given newest first.
func (m *merger) reset(sources []mergeSource) {
	m.heap = m.heap[:0]
	for i := range sources {
		if s := &sources[i]; s.advance() {
			s.rank = i
			m.heap = append(m.heap, s)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

func (m *merger) next() (key, value []byte, antimatter, ok bool) {
	if len(m.heap) == 0 {
		return nil, nil, false, false
	}
	top := m.heap[0]
	key, value, antimatter = top.key, top.value, top.antimatter
	// Advance the winner and every older run holding the same key (entries
	// it shadows).
	m.advanceTop()
	for len(m.heap) > 0 && bytes.Equal(m.heap[0].key, key) {
		m.advanceTop()
	}
	return key, value, antimatter, true
}

// advanceTop moves the heap's top run to its next entry, dropping the run
// when it is exhausted.
func (m *merger) advanceTop() {
	if !m.heap[0].advance() {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.siftDown(0)
}

func (m *merger) siftDown(i int) {
	n := len(m.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && less(m.heap[l], m.heap[min]) {
			min = l
		}
		if r < n && less(m.heap[r], m.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		m.heap[i], m.heap[min] = m.heap[min], m.heap[i]
		i = min
	}
}

// less orders runs by (key, rank): the smallest key first, and among equal
// keys the newest run.
func less(a, b *mergeSource) bool {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.rank < b.rank
}

// Iterator is a heap-merged cursor over a tree's components. It visits live
// entries in key order, resolving duplicate keys by component recency and
// suppressing antimatter. Callers must hold the same latch that serializes
// the tree's mutations while calling Next (the storage layer's partition
// latch); between Next calls the latch may be released — a mutation in the
// gap bumps the tree's sequence number and the next Next re-seeks.
type Iterator struct {
	t   *Tree
	seq uint64
	lo  []byte // original lower bound: the re-seek floor before any entry is returned
	hi  []byte

	mem     memCursor
	disk    []diskCursor
	sources []mergeSource
	m       merger

	key, value []byte
	lastKey    []byte // copy of the last returned key, for staleness re-seek
	returned   bool
}

// NewIterator returns an iterator over live entries with lo <= key <= hi
// (either bound may be nil to leave that side open), positioned before the
// first entry. The caller must hold the tree's latch.
func (t *Tree) NewIterator(lo, hi []byte) *Iterator {
	it := &Iterator{t: t}
	if hi != nil {
		it.hi = append([]byte{}, hi...) // an empty hi admits the empty key
	}
	if lo != nil {
		it.lo = append([]byte(nil), lo...)
	}
	it.position(it.lo)
	return it
}

// position seeks every source to the first key >= from and rebuilds the heap.
// A nil from means the beginning. Sources are rebuilt from the tree's current
// component list, so a re-seek after a flush or merge sees the new structure.
func (it *Iterator) position(from []byte) {
	t := it.t
	// A disk cursor starting past hi is left empty; otherwise the bound is
	// applied when entries surface in Next.
	it.mem.c = t.mem.Seek(from)
	if cap(it.disk) < len(t.disk) {
		// One allocation starts every cursor's key buffers; a longer key
		// grows its own.
		it.disk = make([]diskCursor, len(t.disk))
		slab := make([]byte, 2*keyBufLen*len(t.disk))
		for i := range it.disk {
			for j := range it.disk[i].keys {
				at := (2*i + j) * keyBufLen
				it.disk[i].keys[j] = slab[at : at+keyBufLen : at+keyBufLen]
			}
		}
	}
	it.disk = it.disk[:len(t.disk)]
	for i, c := range t.disk {
		it.disk[i].seek(c, from, it.hi)
	}
	it.sources = append(it.sources[:0], mergeSource{cur: &it.mem})
	for i := range it.disk {
		it.sources = append(it.sources, mergeSource{cur: &it.disk[i]})
	}
	it.m.reset(it.sources)
	it.seq = t.seq
}

// Next advances to the next live entry, reporting false at the end of the
// range. If the tree was mutated since the previous call (the sequence number
// moved), the iterator re-seeks to just after the last key it returned: an
// entry inserted behind the cursor is not revisited, an entry inserted ahead
// is picked up, and a deleted entry ahead is skipped — the same contract a
// chunked Range-restart scan had, without its per-restart cost.
func (it *Iterator) Next() bool {
	if it.seq != it.t.seq {
		// Re-seek floor: the original lo bound until the first entry has been
		// returned, then the successor of the last returned key (the shortest
		// key strictly greater than it).
		from := it.lo
		if it.returned {
			from = append(it.lastKey, 0)
			it.lastKey = from[:len(from)-1]
		}
		it.position(from)
	}
	for {
		key, value, antimatter, ok := it.m.next()
		if !ok || (it.hi != nil && bytes.Compare(key, it.hi) > 0) {
			it.m.heap = it.m.heap[:0]
			return false
		}
		it.lastKey = append(it.lastKey[:0], key...)
		it.returned = true
		if !antimatter {
			it.key, it.value = key, value
			return true
		}
	}
}

// Key returns the key of the current entry, read-only and valid until the
// next call to Next: a disk component's keys are rebuilt into the
// iterator's buffers. Copy a key to keep it.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the value of the current entry: a read-only view into the
// memtable or a component image, readable after the latch is released and
// after later calls to Next.
func (it *Iterator) Value() []byte { return it.value }

// Seq returns the tree mutation sequence number the iterator is positioned
// against (tests use it to assert staleness handling).
func (it *Iterator) Seq() uint64 { return it.seq }
