package lsm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// memShape is one kind of memtable entry the storage layer writes.
type memShape struct {
	name       string
	key, value int // bytes
}

var memShapes = []memShape{
	{"keyword index", 13, 0},   // token ‖ primary key, the flag alone as value
	{"timestamp index", 14, 5}, // timestamp ‖ primary key → primary key
	{"primary record", 5, 150}, // primary key → record
}

// shapeWriter fills a key and a value of one shape in reused buffers, so
// writing entries allocates nothing of its own; keys come in a random order.
type shapeWriter struct {
	key, value []byte
	perm       []int
}

func newShapeWriter(s memShape, n int) *shapeWriter {
	return &shapeWriter{
		key:   make([]byte, s.key),
		value: bytes.Repeat([]byte{'v'}, s.value),
		perm:  rand.New(rand.NewSource(1)).Perm(n),
	}
}

// entry fills the key of the i-th entry: its permuted number, big-endian, in
// the key's last four bytes.
func (w *shapeWriter) entry(i int) (key, value []byte) {
	binary.BigEndian.PutUint32(w.key[len(w.key)-4:], uint32(w.perm[i%len(w.perm)]))
	return w.key, w.value
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestMemtableResidentWithinBudgetCount: the heap a memtable holds is at
// most 2.5 times what MemBytes counts, for each shape of entry the storage
// layer writes. Entries as heap objects of their own (a cloned key, a
// flagged value and two slice headers each) held 6.6, 5.1 and 1.6 times.
func TestMemtableResidentWithinBudgetCount(t *testing.T) {
	const n = 20000
	for _, s := range memShapes {
		w := newShapeWriter(s, n)
		tr := openTemp(t, Options{Background: true})
		before := liveHeap()
		for i := 0; i < n; i++ {
			if err := tr.Insert(w.entry(i)); err != nil {
				t.Fatal(err)
			}
		}
		resident := float64(liveHeap()-before) / n
		counted := float64(tr.MemBytes()) / n
		runtime.KeepAlive(tr)
		runtime.KeepAlive(w) // its key order is not the memtable's
		t.Logf("%s: %.1f B resident, %.1f B counted per entry (%.2fx)", s.name, resident, counted, resident/counted)
		if resident > 2.5*counted {
			t.Errorf("%s: %.1f B resident per entry, more than 2.5 x the %.1f B MemBytes counts", s.name, resident, counted)
		}
	}
}

// TestMemtableInsertAllocs: an insert allocates only when an arena chunk
// fills or a node splits, which over 20 000 inserts rounds to no allocation
// per insert.
func TestMemtableInsertAllocs(t *testing.T) {
	const n = 20000
	for _, s := range memShapes {
		w := newShapeWriter(s, n)
		tr := openTemp(t, Options{Background: true})
		i := 0
		allocs := testing.AllocsPerRun(n, func() {
			if err := tr.Insert(w.entry(i)); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per Insert, want 0", s.name, allocs)
		}
	}
}

// TestUpsertsOfOneKeyFlush: replaced entries stay in the arena and count
// against the budget, so upserting one key over and over flushes instead of
// growing the memtable.
func TestUpsertsOfOneKeyFlush(t *testing.T) {
	tr := openTemp(t, Options{})
	key, value := []byte("k0001"), bytes.Repeat([]byte{'v'}, 20)
	for i := 0; i < 100000; i++ {
		binary.BigEndian.PutUint32(value, uint32(i))
		if err := tr.Insert(key, value); err != nil {
			t.Fatal(err)
		}
		if tr.MemBytes() > 2*DefaultMemBudget {
			t.Fatalf("after %d upserts the memtable holds %d bytes, past twice the %d budget", i+1, tr.MemBytes(), DefaultMemBudget)
		}
	}
	if tr.Flushes() == 0 {
		t.Fatal("100 000 upserts of one key never flushed")
	}
	if got, ok := tr.Get(key); !ok || !bytes.Equal(got, value) {
		t.Fatalf("Get = %q, %v; want the last upsert", got, ok)
	}
}

// TestMemtableViewsBesideWrites: keys and values handed out by a paused
// Iterator and by Get are views into the memtable's arena. A writer appends
// to the same arena chunk, flushes the memtable and writes on into the next
// one while the reader, without the latch, reads its views; they must read
// what they did when handed out. CI runs it under -race -count=20.
func TestMemtableViewsBesideWrites(t *testing.T) {
	var mu sync.Mutex // the partition latch
	tr := openTemp(t, Options{Background: true})
	for i := 0; i < 100; i++ {
		tr.Insert(k(i), v(i))
	}
	mu.Lock()
	it := tr.NewIterator(nil, nil)
	var views [][]byte
	for i := 0; i < 10 && it.Next(); i++ {
		views = append(views, it.Key(), it.Value())
	}
	got, _ := tr.Get(k(50))
	views = append(views, got)
	mu.Unlock()
	want := make([][]byte, len(views))
	for i, b := range views {
		want[i] = bytes.Clone(b)
	}
	check := func() {
		for i := range views {
			if !bytes.Equal(views[i], want[i]) {
				t.Fatalf("view %d reads %q, was %q", i, views[i], want[i])
			}
		}
	}

	done := make(chan error, 1)
	go func() {
		// Appends land in the chunk the views point into (100 small
		// entries leave most of its 64 KiB free); the flush then drops the
		// memtable the views came from.
		var err error
		for i := 100; i < 400 && err == nil; i++ {
			mu.Lock()
			if err = tr.Insert(k(i), v(i)); err == nil {
				err = tr.Insert(k(i-100), v(i)) // a replacement: new bytes, old ones kept
			}
			mu.Unlock()
		}
		if err == nil {
			mu.Lock()
			err = tr.Flush()
			mu.Unlock()
		}
		// A memtable that reused the flushed one's chunks would write over
		// the views here.
		for i := 400; i < 500 && err == nil; i++ {
			mu.Lock()
			err = tr.Insert(k(i), v(i))
			mu.Unlock()
		}
		done <- err
	}()
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		check()
	}
	check()
	// The paused iterator resumes after the flush just past its last key.
	mu.Lock()
	defer mu.Unlock()
	if !it.Next() || !bytes.Equal(it.Key(), k(10)) || !bytes.Equal(it.Value(), v(110)) {
		t.Fatalf("resumed iterator at %q=%q, want %q=%q", it.Key(), it.Value(), k(10), v(110))
	}
}
