// Package btree implements an in-memory B+-tree over byte-string keys, the
// building block that the LSM framework "LSM-ifies" into AsterixDB's primary
// and secondary B+-tree indexes (Section 4.3 of the paper).
//
// Keys and values are opaque byte slices; keys compare bytewise, which matches
// the order-preserving key encoding produced by adm.EncodeKey.
//
// The tree owns its entries. Put copies each one, once, into an append-only
// arena of 64 KiB chunks:
//
//	entry: [klen u32, only when klen >= 65 535] ‖ key ‖ uvarint vlen ‖ value
//
// and a node holds 8-byte, pointer-free references to entries (chunk index,
// offset in the chunk, key length), so an entry costs the GC no object of its
// own and a key is compared where it lies. An interior node also keeps each
// separator's first 8 key bytes as a number, so a descent compares numbers
// and reads the arena only where two of them tie. Bytes written to the arena
// are never moved or overwritten: a replaced or deleted entry leaves its bytes
// behind (Bytes counts them), and the keys and values the tree hands out are
// capped views into a chunk that stay readable after later mutations, pinning
// that chunk while a caller holds them.
package btree

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// degree is the maximum number of keys per node. 64 keeps nodes around a
// cache line multiple without making the tree too deep for test-sized data.
const degree = 64

// chunkSize is the size of an arena chunk. An entry larger than a chunk gets
// a chunk of its own size.
const chunkSize = 64 << 10

// longKey in a reference's key-length field marks a key of 65 535 bytes or
// more, whose length is a little-endian uint32 in front of it in the arena.
const longKey = 1<<16 - 1

// Entry is a key/value pair stored in the tree.
type Entry struct {
	Key   []byte
	Value []byte
}

// ref locates one entry in the arena: the chunk index in the high 32 bits,
// the entry's offset in that chunk in the next 16 (an entry starts inside the
// first 64 KiB of its chunk) and its key length, or longKey, in the low 16.
type ref uint64

// Tree is an in-memory B+-tree. It is not safe for concurrent mutation; the
// storage layer serializes writers per partition (the paper's node-local
// latches) and the LSM layer makes flushed components immutable.
type Tree struct {
	root   *node
	size   int
	chunks [][]byte // the arena; only the last chunk has room left
	bytes  int
}

type node struct {
	leaf     bool
	refs     []ref    // a leaf's entries, or an interior node's separator keys
	heads    []uint64 // interior only: head of each separator's key
	children []*node  // interior only, len(children) == len(refs)+1
	next     *node    // leaf chain for range scans
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return t.size }

// Bytes returns the bytes written to the tree's arena: the keys, values and
// length varints of every entry put, including entries since replaced or
// deleted. The LSM in-memory component budget is measured in it.
func (t *Tree) Bytes() int { return t.bytes }

// Get returns the value stored under key, or (nil, false).
func (t *Tree) Get(key []byte) ([]byte, bool) {
	n, i := t.find(key)
	if i < len(n.refs) && bytes.Equal(t.key(n.refs[i]), key) {
		return t.value(n.refs[i]), true
	}
	return nil, false
}

// Put inserts or replaces the value under key and reports whether the key was
// already present. The stored value is the concatenation of value's parts, so
// a caller can prefix a tag without building the joined slice.
func (t *Tree) Put(key []byte, value ...[]byte) bool {
	replaced, sep, right := t.insert(t.root, key, head(key), t.write(key, value))
	if right != nil {
		t.root = &node{refs: []ref{sep}, heads: []uint64{head(t.key(sep))}, children: []*node{t.root, right}}
	}
	return replaced
}

// Delete removes key from the tree and reports whether it was present.
// Underflowed nodes are not rebalanced: LSM components are write-once and the
// in-memory component is discarded after each flush, so transient slack is
// bounded and harmless.
func (t *Tree) Delete(key []byte) bool {
	n, i := t.find(key)
	if i < len(n.refs) && bytes.Equal(t.key(n.refs[i]), key) {
		n.refs = slices.Delete(n.refs, i, i+1)
		t.size--
		return true
	}
	return false
}

// write appends an entry to the arena and returns its reference.
func (t *Tree) write(key []byte, value [][]byte) ref {
	vlen := 0
	for _, part := range value {
		vlen += len(part)
	}
	size := len(key) + uvarintLen(vlen) + vlen
	if len(key) >= longKey {
		size += 4
	}
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last])+size > cap(t.chunks[last]) {
		t.chunks = append(t.chunks, make([]byte, 0, max(chunkSize, size)))
		last++
	}
	c := t.chunks[last]
	r := ref(uint64(last)<<32 | uint64(len(c))<<16 | uint64(min(len(key), longKey)))
	if len(key) >= longKey {
		c = binary.LittleEndian.AppendUint32(c, uint32(len(key)))
	}
	c = binary.AppendUvarint(append(c, key...), uint64(vlen))
	for _, part := range value {
		c = append(c, part...)
	}
	t.chunks[last] = c
	t.bytes += size
	return r
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// locate returns the chunk holding r's entry and where its key sits there.
// It inlines, so a search compares keys without a call per probe.
func (t *Tree) locate(r ref) (c []byte, start, end int) {
	c, start, n := t.chunks[r>>32], int(r>>16&0xFFFF), int(r&0xFFFF)
	if n == longKey {
		n = int(binary.LittleEndian.Uint32(c[start:]))
		start += 4
	}
	return c, start, start + n
}

func (t *Tree) key(r ref) []byte {
	c, start, end := t.locate(r)
	return c[start:end:end]
}

func (t *Tree) value(r ref) []byte {
	c, _, end := t.locate(r)
	l, w := binary.Uvarint(c[end:])
	return c[end+w : end+w+int(l) : end+w+int(l)]
}

// head returns a key's first 8 bytes, zero-padded, as a big-endian number.
// A key whose head is less than another's sorts before it; keys whose heads
// tie must compare their bytes.
func head(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// search returns the index of the first of a leaf's refs whose key is >= key.
func (t *Tree) search(refs []ref, key []byte) int {
	lo, hi := 0, len(refs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(t.key(refs[m]), key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// child returns the index of the child of interior node n to descend into
// for key, whose head is h: that of its first separator > key. The heads
// decide every probe but a tie, which reads the separator's key.
func (t *Tree) child(n *node, key []byte, h uint64) int {
	lo, hi := 0, len(n.heads)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if sh := n.heads[m]; sh < h || sh == h && bytes.Compare(t.key(n.refs[m]), key) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find descends to the leaf for key and returns it with the index of its
// first entry >= key. A nil key finds the leftmost leaf: no separator is
// empty, since a separator is the first key of a right sibling.
func (t *Tree) find(key []byte) (*node, int) {
	n, h := t.root, head(key)
	for !n.leaf {
		n = n.children[t.child(n, key, h)]
	}
	return n, t.search(n.refs, key)
}

// insert descends into n to place the entry r holds under key, whose head is
// h; it returns whether an existing key was replaced and, when n split, the
// separator key and new right sibling.
func (t *Tree) insert(n *node, key []byte, h uint64, r ref) (replaced bool, sep ref, right *node) {
	if n.leaf {
		i := t.search(n.refs, key)
		if i < len(n.refs) && bytes.Equal(t.key(n.refs[i]), key) {
			n.refs[i] = r
			return true, 0, nil
		}
		n.refs = slices.Insert(n.refs, i, r)
		t.size++
	} else {
		ci := t.child(n, key, h)
		replaced, sep, right = t.insert(n.children[ci], key, h, r)
		if right == nil {
			return replaced, 0, nil
		}
		n.refs = slices.Insert(n.refs, ci, sep)
		n.heads = slices.Insert(n.heads, ci, head(t.key(sep)))
		n.children = slices.Insert(n.children, ci+1, right)
	}
	if len(n.refs) <= degree {
		return replaced, 0, nil
	}
	sep, right = n.split()
	return replaced, sep, right
}

// split moves the upper half of an overfull node into a new right sibling
// and returns the separator key between them. Both halves keep room for a
// full node, so inserts into them do not grow their slices.
func (n *node) split() (sep ref, right *node) {
	mid := len(n.refs) / 2
	sep = n.refs[mid]
	right = &node{leaf: n.leaf, next: n.next}
	if n.leaf {
		right.refs = append(make([]ref, 0, degree+1), n.refs[mid:]...)
		n.next = right
	} else {
		right.refs = append(make([]ref, 0, degree+1), n.refs[mid+1:]...)
		right.heads = append(make([]uint64, 0, degree+1), n.heads[mid+1:]...)
		right.children = append(make([]*node, 0, degree+2), n.children[mid+1:]...)
		n.heads, n.children = n.heads[:mid], n.children[:mid+1]
	}
	n.refs = n.refs[:mid]
	return sep, right
}

// Scan visits every entry in key order until visit returns false.
func (t *Tree) Scan(visit func(Entry) bool) {
	t.Range(nil, nil, visit)
}

// Range visits entries with lo <= key <= hi in key order until visit returns
// false. A nil lo means "from the beginning"; a nil hi means "to the end".
func (t *Tree) Range(lo, hi []byte, visit func(Entry) bool) {
	for c := t.Seek(lo); c.Valid(); c.Next() {
		k := c.Key()
		if hi != nil && bytes.Compare(k, hi) > 0 || !visit(Entry{Key: k, Value: c.Value()}) {
			return
		}
	}
}

// Cursor is a position inside the tree's leaf chain, the building block of
// the LSM layer's resumable merge iterator. A cursor is valid only as long as
// the tree is not mutated: Put and Delete may split or shrink leaves under
// it. The LSM iterator detects mutation through the tree's sequence number
// and re-seeks, so a stale cursor is never advanced.
type Cursor struct {
	t   *Tree
	n   *node
	idx int
}

// Seek returns a cursor positioned at the first entry with key >= k (at the
// first entry of the tree when k is nil). The cursor is invalid when no such
// entry exists.
func (t *Tree) Seek(k []byte) Cursor {
	n, idx := t.find(k)
	c := Cursor{t: t, n: n, idx: idx}
	c.skipEmpty()
	return c
}

// skipEmpty moves the cursor off exhausted leaves (a leaf can be empty after
// unbalanced deletes).
func (c *Cursor) skipEmpty() {
	for c.n != nil && c.idx >= len(c.n.refs) {
		c.n = c.n.next
		c.idx = 0
	}
}

// Valid reports whether the cursor points at an entry.
func (c *Cursor) Valid() bool { return c.n != nil }

// Key returns the entry key under the cursor.
func (c *Cursor) Key() []byte { return c.t.key(c.n.refs[c.idx]) }

// Value returns the entry value under the cursor.
func (c *Cursor) Value() []byte { return c.t.value(c.n.refs[c.idx]) }

// Next advances the cursor to the next entry in key order.
func (c *Cursor) Next() {
	c.idx++
	c.skipEmpty()
}

// Min returns the smallest entry, or false when the tree is empty.
func (t *Tree) Min() (Entry, bool) {
	c := t.Seek(nil)
	if !c.Valid() {
		return Entry{}, false
	}
	return Entry{Key: c.Key(), Value: c.Value()}, true
}

// Max returns the largest entry, or false when the tree is empty.
func (t *Tree) Max() (Entry, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	// The rightmost leaf can be empty only when the whole tree is empty or
	// after unbalanced deletes; walk the leaf chain from the root in that case.
	if len(n.refs) > 0 {
		r := n.refs[len(n.refs)-1]
		return Entry{Key: t.key(r), Value: t.value(r)}, true
	}
	var out Entry
	found := false
	t.Scan(func(e Entry) bool {
		out, found = e, true
		return true
	})
	return out, found
}
