package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val-%d", i)) }

func TestPutGet(t *testing.T) {
	tr := New()
	const n = 2000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if replaced := tr.Put(key(i), val(i)); replaced {
			t.Fatalf("Put(%d) reported replacement on first insert", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok := tr.Get(key(i))
		if !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, got, ok)
		}
	}
	if _, ok := tr.Get([]byte("absent")); ok {
		t.Error("Get of absent key should fail")
	}
	// Replacement keeps size constant.
	if replaced := tr.Put(key(7), []byte("new")); !replaced {
		t.Error("Put of existing key should report replacement")
	}
	if tr.Len() != n {
		t.Errorf("Len after replace = %d", tr.Len())
	}
	got, _ := tr.Get(key(7))
	if string(got) != "new" {
		t.Errorf("replaced value = %q", got)
	}
}

func TestScanOrder(t *testing.T) {
	tr := New()
	const n = 500
	for _, i := range rand.New(rand.NewSource(2)).Perm(n) {
		tr.Put(key(i), val(i))
	}
	var keys [][]byte
	tr.Scan(func(e Entry) bool {
		keys = append(keys, e.Key)
		return true
	})
	if len(keys) != n {
		t.Fatalf("Scan visited %d entries", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("scan out of order at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
}

func TestRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), val(i))
	}
	var got []string
	tr.Range(key(10), key(19), func(e Entry) bool {
		got = append(got, string(e.Key))
		return true
	})
	if len(got) != 10 || got[0] != string(key(10)) || got[9] != string(key(19)) {
		t.Errorf("Range(10..19) = %v", got)
	}
	// Open-ended ranges.
	count := 0
	tr.Range(nil, key(4), func(Entry) bool { count++; return true })
	if count != 5 {
		t.Errorf("Range(nil..4) visited %d", count)
	}
	count = 0
	tr.Range(key(95), nil, func(Entry) bool { count++; return true })
	if count != 5 {
		t.Errorf("Range(95..nil) visited %d", count)
	}
	// Early termination.
	count = 0
	tr.Range(nil, nil, func(Entry) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("early-terminated range visited %d", count)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	const n = 300
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i))
	}
	for i := 0; i < n; i += 2 {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Delete(key(0)) {
		t.Error("double delete should report false")
	}
	if tr.Len() != n/2 {
		t.Errorf("Len after deletes = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(key(i))
		if i%2 == 0 && ok {
			t.Fatalf("deleted key %d still present", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("surviving key %d missing", i)
		}
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	if _, ok := tr.Min(); ok {
		t.Error("Min of empty tree should report false")
	}
	for _, i := range []int{5, 3, 9, 1, 7} {
		tr.Put(key(i), val(i))
	}
	mn, _ := tr.Min()
	mx, _ := tr.Max()
	if string(mn.Key) != string(key(1)) || string(mx.Key) != string(key(9)) {
		t.Errorf("Min/Max = %q/%q", mn.Key, mx.Key)
	}
}

// TestBytesAccounting: Bytes counts what the arena holds, each entry's key,
// value and length varints, and a replaced or deleted entry's bytes stay
// counted because they stay in the arena.
func TestBytesAccounting(t *testing.T) {
	tr := New()
	tr.Put([]byte("a"), []byte("12345"))
	if tr.Bytes() != 7 {
		t.Errorf("Bytes = %d, want 1 key + 1 length + 5 value", tr.Bytes())
	}
	tr.Put([]byte("a"), []byte("1"))
	if tr.Bytes() != 10 {
		t.Errorf("Bytes after shrink-replace = %d, want 7 + 3", tr.Bytes())
	}
	tr.Delete([]byte("a"))
	if tr.Bytes() != 10 || tr.Len() != 0 {
		t.Errorf("Bytes after delete = %d (Len %d), want 10 (0)", tr.Bytes(), tr.Len())
	}
	// A value in parts is stored joined; a long key carries its own length.
	tr.Put([]byte("b"), []byte{0}, make([]byte, 200))
	if v, _ := tr.Get([]byte("b")); len(v) != 201 || tr.Bytes() != 10+1+2+201 {
		t.Errorf("parted value: len %d, Bytes %d", len(v), tr.Bytes())
	}
	long := bytes.Repeat([]byte("k"), 1<<16)
	before := tr.Bytes()
	tr.Put(long, nil)
	if k, _ := tr.Max(); !bytes.Equal(k.Key, long) || tr.Bytes()-before != 4+1<<16+1 {
		t.Errorf("long key: %d bytes back, arena grew by %d", len(k.Key), tr.Bytes()-before)
	}
}

func TestPropertyMatchesSortedMap(t *testing.T) {
	// The tree must behave exactly like a sorted map for any key set.
	f := func(keys []uint16) bool {
		tr := New()
		ref := map[string]string{}
		for i, k := range keys {
			ks := fmt.Sprintf("%05d", k)
			vs := fmt.Sprintf("v%d", i)
			tr.Put([]byte(ks), []byte(vs))
			ref[ks] = vs
		}
		if tr.Len() != len(ref) {
			return false
		}
		var want []string
		for k := range ref {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		tr.Scan(func(e Entry) bool {
			got = append(got, string(e.Key))
			if ref[string(e.Key)] != string(e.Value) {
				return false
			}
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// postingKeys returns n keys shaped like a keyword index's entries — a
// uvarint token length, the token, then a 5-byte primary key — in random
// order, over a vocabulary of 2 000 tokens of 3 to 12 letters.
func postingKeys(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	words := make([][]byte, 2000)
	for i := range words {
		for range 3 + rng.Intn(10) {
			words[i] = append(words[i], byte('a'+rng.Intn(26)))
		}
	}
	keys := make([][]byte, n)
	for i := range keys {
		w := words[rng.Intn(len(words))]
		k := binary.AppendUvarint(nil, uint64(len(w)))
		keys[i] = binary.BigEndian.AppendUint32(append(append(k, w...), 0x03), uint32(rng.Int31()))
	}
	return keys
}

// BenchmarkPut: sequential short keys, and keyword-index keys in random
// order into a tree refilled from empty every 1<<16 puts (a memtable's
// life between flushes).
func BenchmarkPut(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		tr := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Put(key(i), val(i))
		}
	})
	b.Run("random-postings", func(b *testing.B) {
		keys := postingKeys(1 << 16)
		value := []byte("v")
		tr := New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(keys) == 0 && i > 0 {
				tr = New()
			}
			tr.Put(keys[i%len(keys)], value)
		}
	})
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % n))
	}
}

// TestCursor exercises the leaf-chain cursor: seek to existing and missing
// keys, iterate to the end, and survive empty leaves left by deletes.
func TestCursor(t *testing.T) {
	tr := New()
	for i := 0; i < 500; i += 2 { // even keys only
		k := []byte(fmt.Sprintf("k%06d", i))
		tr.Put(k, []byte(fmt.Sprintf("v%d", i)))
	}
	// Seek to an absent (odd) key lands on its even successor.
	c := tr.Seek([]byte(fmt.Sprintf("k%06d", 101)))
	if !c.Valid() || string(c.Key()) != fmt.Sprintf("k%06d", 102) {
		t.Fatalf("seek landed on %q", c.Key())
	}
	// Full walk from the beginning is sorted and complete.
	n := 0
	var prev []byte
	for c = tr.Seek(nil); c.Valid(); c.Next() {
		if prev != nil && bytes.Compare(c.Key(), prev) <= 0 {
			t.Fatalf("keys out of order: %q after %q", c.Key(), prev)
		}
		prev = append(prev[:0], c.Key()...)
		n++
	}
	if n != 250 {
		t.Fatalf("cursor visited %d entries, want 250", n)
	}
	// Seek past the end is invalid.
	if c := tr.Seek([]byte("z")); c.Valid() {
		t.Fatalf("seek past end valid at %q", c.Key())
	}
	// Empty the first leaf's worth of keys; the cursor must skip the husk.
	for i := 0; i < 128; i += 2 {
		tr.Delete([]byte(fmt.Sprintf("k%06d", i)))
	}
	c = tr.Seek(nil)
	if !c.Valid() || string(c.Key()) != fmt.Sprintf("k%06d", 128) {
		t.Fatalf("cursor after deletes starts at %q", c.Key())
	}
}
