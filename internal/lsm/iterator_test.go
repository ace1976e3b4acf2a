package lsm

import (
	"fmt"
	"testing"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

func collect(it *Iterator) (keys, values []string) {
	for it.Next() {
		keys = append(keys, string(it.Key()))
		values = append(values, string(it.Value()))
	}
	return keys, values
}

// TestIteratorDuplicateKeysAcrossComponents overwrites the same keys across
// several flushed components and the memtable: the iterator must yield each
// key once, with the newest value.
func TestIteratorDuplicateKeysAcrossComponents(t *testing.T) {
	tr, err := Open(t.TempDir(), Options{Policy: NoMergePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			if err := tr.Insert(key(i), []byte(fmt.Sprintf("v%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Newest overwrites for half the keys stay in the memtable.
	for i := 0; i < 5; i++ {
		if err := tr.Insert(key(i), []byte(fmt.Sprintf("mem-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	keys, values := collect(tr.NewIterator(nil, nil))
	if len(keys) != 10 {
		t.Fatalf("got %d keys, want 10: %v", len(keys), keys)
	}
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("v2-%d", i)
		if i < 5 {
			want = fmt.Sprintf("mem-%d", i)
		}
		if values[i] != want {
			t.Errorf("key %d: value %q, want %q", i, values[i], want)
		}
	}
}

// TestIteratorAntimatter checks that a tombstone in a newer component hides
// the live entry in an older one, in the memtable and across flushes.
func TestIteratorAntimatter(t *testing.T) {
	tr, err := Open(t.TempDir(), Options{Policy: NoMergePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tr.Insert(key(i), []byte("live")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(key(3)); err != nil { // tombstone in memtable
		t.Fatal(err)
	}
	if err := tr.Delete(key(7)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil { // tombstone in its own disk component
		t.Fatal(err)
	}
	keys, _ := collect(tr.NewIterator(nil, nil))
	if len(keys) != 8 {
		t.Fatalf("got %d keys, want 8: %v", len(keys), keys)
	}
	for _, k := range keys {
		if k == string(key(3)) || k == string(key(7)) {
			t.Errorf("deleted key %s visited", k)
		}
	}
}

// TestIteratorEmptyComponents iterates over a tree with an empty memtable,
// with no disk components, and with bounds that select nothing.
func TestIteratorEmptyComponents(t *testing.T) {
	tr, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if keys, _ := collect(tr.NewIterator(nil, nil)); len(keys) != 0 {
		t.Fatalf("empty tree yielded %v", keys)
	}
	for i := 0; i < 5; i++ {
		if err := tr.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Memtable now empty, one disk component.
	if keys, _ := collect(tr.NewIterator(nil, nil)); len(keys) != 5 {
		t.Fatalf("got %v, want 5 keys", keys)
	}
	if keys, _ := collect(tr.NewIterator([]byte("zzz"), nil)); len(keys) != 0 {
		t.Fatalf("out-of-range lo yielded %v", keys)
	}
	if keys, _ := collect(tr.NewIterator(nil, []byte("aaa"))); len(keys) != 0 {
		t.Fatalf("out-of-range hi yielded %v", keys)
	}
	if keys, _ := collect(tr.NewIterator(key(1), key(3))); len(keys) != 3 {
		t.Fatalf("bounded range yielded %v, want 3 keys", keys)
	}
}

// TestIteratorStalenessReseek pauses an iterator mid-scan, mutates the tree
// (inserts behind and ahead of the cursor, a delete ahead, and a flush that
// restructures the components), and checks the resumed iterator neither
// misses nor double-visits: entries behind the cursor are not revisited,
// inserts ahead appear, deletes ahead are skipped.
func TestIteratorStalenessReseek(t *testing.T) {
	tr, err := Open(t.TempDir(), Options{Policy: NoMergePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i += 2 { // even keys 0..18
		if err := tr.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.NewIterator(nil, nil)
	var seen []string
	for i := 0; i < 5; i++ { // visit keys 0,2,4,6,8
		if !it.Next() {
			t.Fatal("iterator exhausted early")
		}
		seen = append(seen, string(it.Key()))
	}
	if seq0 := it.Seq(); seq0 != tr.seq {
		t.Fatalf("iterator seq %d != tree seq %d", seq0, tr.seq)
	}

	// Mutate: insert behind (1), insert ahead (11), delete ahead (12),
	// overwrite the paused position's last key (8), then flush so the
	// component structure changes too.
	for _, m := range []func() error{
		func() error { return tr.Insert(key(1), []byte("behind")) },
		func() error { return tr.Insert(key(11), []byte("ahead")) },
		func() error { return tr.Delete(key(12)) },
		func() error { return tr.Insert(key(8), []byte("overwritten")) },
		func() error { return tr.Flush() },
	} {
		if err := m(); err != nil {
			t.Fatal(err)
		}
	}
	if it.Seq() == tr.seq {
		t.Fatal("tree seq did not move")
	}

	for it.Next() {
		seen = append(seen, string(it.Key()))
	}
	want := []string{}
	for i := 0; i < 5; i++ {
		want = append(want, string(key(2*i)))
	}
	// Resumed: 10, 11 (insert ahead), 14, 16, 18 — 12 deleted, 1 behind not
	// revisited, 8 not double-visited despite its overwrite.
	for _, k := range []int{10, 11, 14, 16, 18} {
		want = append(want, string(key(k)))
	}
	if len(seen) != len(want) {
		t.Fatalf("visited %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("visited %v, want %v", seen, want)
		}
	}
}

// TestIteratorReseekAcrossMerge pauses an iterator, forces a full merge (the
// component count collapses), and resumes.
func TestIteratorReseekAcrossMerge(t *testing.T) {
	tr, err := Open(t.TempDir(), Options{Policy: NoMergePolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := round; i < 30; i += 3 {
			if err := tr.Insert(key(i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.NewIterator(nil, nil)
	count := 0
	for i := 0; i < 10; i++ {
		if !it.Next() {
			t.Fatal("exhausted early")
		}
		count++
	}
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	if tr.Components() != 1 {
		t.Fatalf("merge left %d components", tr.Components())
	}
	for it.Next() {
		count++
	}
	if count != 30 {
		t.Fatalf("visited %d entries across a merge, want 30", count)
	}
}

// TestRangeMatchesIterator cross-checks the Range wrapper against a straight
// iterator walk with bounds.
func TestRangeMatchesIterator(t *testing.T) {
	tr, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tr.Insert(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%17 == 0 {
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var got []string
	tr.Range(key(10), key(20), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 11 {
		t.Fatalf("range yielded %d keys, want 11", len(got))
	}
	// Early stop still works through the wrapper.
	n := 0
	tr.Range(nil, nil, func(_, _ []byte) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early-stopping range visited %d", n)
	}
}

// TestIteratorStaleBeforeFirstNext is the regression test for the re-seek
// floor: a mutation landing between NewIterator and the first Next must not
// make a bounded iterator forget its lo bound and restart from the first key.
func TestIteratorStaleBeforeFirstNext(t *testing.T) {
	tr, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := tr.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.NewIterator(key(10), key(20))
	// Mutate before the iterator ever returned an entry.
	if err := tr.Insert(key(0), []byte("mutated")); err != nil {
		t.Fatal(err)
	}
	keys, _ := collect(it)
	if len(keys) != 11 || keys[0] != string(key(10)) || keys[len(keys)-1] != string(key(20)) {
		t.Fatalf("bounded iterator after pre-first-Next mutation visited %v", keys)
	}
}
