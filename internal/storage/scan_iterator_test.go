package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"asterixdb/internal/adm"
)

// This file covers the resumable-iterator scan contract under concurrent
// mutation: a paused ScanPartition (its visitor blocked, the partition latch
// released) must neither deadlock concurrent writers nor violate the
// documented visit semantics — every record present for the whole scan and
// never deleted is visited exactly once, in key order; records inserted ahead
// of the cursor may be visited; records deleted ahead of the cursor are not.

// TestScanPausedUnderMutation drip-feeds a scan through a visitor that blocks
// on an unbuffered channel while a writer goroutine interleaves inserts,
// overwrites, deletes and flushes into the same partition.
func TestScanPausedUnderMutation(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)

	// All records land in one partition so the scan and the mutations
	// genuinely contend on one latch: find ids mapping to partition 0.
	var ids []int
	for id := 1; len(ids) < 400; id++ {
		rec := message(id, id, int64(id), fmt.Sprintf("msg %d", id), 1, 1)
		pk, err := ds.PrimaryKeyOf(rec)
		if err != nil {
			t.Fatal(err)
		}
		if ds.partitionFor(pk) == 0 {
			ids = append(ids, id)
		}
	}
	initial := ids[:200]  // inserted before the scan
	incoming := ids[200:] // inserted while the scan is paused
	for _, id := range initial {
		if err := ds.Insert(message(id, id, int64(id), fmt.Sprintf("msg %d", id), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a slice of the initial records mid-scan: the victims are spread
	// across the key range so some fall behind and some ahead of the cursor.
	var deleted []int
	for i := 10; i < len(initial); i += 20 {
		deleted = append(deleted, initial[i])
	}

	visited := make(chan int) // visitor hands each id over and blocks
	scanErr := make(chan error, 1)
	go func() {
		scanErr <- ds.ScanPartition(0, func(v adm.Value) bool {
			r, _ := adm.AsRecord(v)
			visited <- int(r.Get("message-id").(adm.Int32))
			return true
		})
	}()

	var mu sync.Mutex
	mutated := false
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fail := func(err error) bool {
			if err != nil {
				mu.Lock()
				if writerErr == nil {
					writerErr = err
				}
				mu.Unlock()
				return true
			}
			return false
		}
		for _, id := range incoming {
			if fail(ds.Insert(message(id, id, int64(id), "incoming", 1, 1))) {
				return
			}
		}
		for _, id := range deleted {
			if _, err := ds.Delete(adm.Int32(int32(id))); fail(err) {
				return
			}
		}
		if fail(ds.Flush()) {
			return
		}
		mu.Lock()
		mutated = true
		mu.Unlock()
	}()

	seen := map[int]int{}
	var order []int
	timeout := time.After(30 * time.Second)
	drained := false
	for !drained {
		select {
		case id := <-visited:
			seen[id]++
			order = append(order, id)
		case err := <-scanErr:
			if err != nil {
				t.Fatal(err)
			}
			drained = true
		case <-timeout:
			t.Fatal("scan deadlocked against concurrent mutation")
		}
	}
	wg.Wait()
	mu.Lock()
	we, done := writerErr, mutated
	mu.Unlock()
	if we != nil {
		t.Fatal(we)
	}
	if !done {
		t.Fatal("writer did not finish")
	}

	// Exactly-once for every id, in id order (int32 keys encode order-
	// preservingly, and all visited ids share one partition).
	for id, n := range seen {
		if n != 1 {
			t.Errorf("id %d visited %d times", id, n)
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Errorf("visit order violated: %d after %d", order[i], order[i-1])
		}
	}
	// Initial records that were never deleted must all appear.
	isDeleted := map[int]bool{}
	for _, id := range deleted {
		isDeleted[id] = true
	}
	for _, id := range initial {
		if !isDeleted[id] && seen[id] == 0 {
			t.Errorf("surviving record %d missed by the scan", id)
		}
	}
}

// TestSecondarySearchPausedUnderMutation does the same for the chunked
// secondary B+-tree range search: the visitor pauses while the index is
// mutated and flushed, and the resumed iterator must keep its exactly-once,
// in-order contract over the surviving entries.
func TestSecondarySearchPausedUnderMutation(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	if _, err := ds.CreateIndex(IndexSpec{Name: "authorIdx", Fields: []string{"author-id"}, Kind: BTreeIndex}); err != nil {
		t.Fatal(err)
	}
	var part0 []int
	for id := 1; len(part0) < 300; id++ {
		rec := message(id, id, int64(id), "m", 1, 1)
		pk, err := ds.PrimaryKeyOf(rec)
		if err != nil {
			t.Fatal(err)
		}
		if ds.partitionFor(pk) == 0 {
			part0 = append(part0, id)
		}
	}
	initial, incoming := part0[:150], part0[150:]
	for _, id := range initial {
		if err := ds.Insert(message(id, id, int64(id), "m", 1, 1)); err != nil {
			t.Fatal(err)
		}
	}

	visited := make(chan []byte)
	searchErr := make(chan error, 1)
	go func() {
		searchErr <- searchIndexPartition(ds, 0, "authorIdx", Probe{}, func(pk []byte) bool {
			visited <- pk
			return true
		})
	}()
	// The writer may outlive the search; wait for it before the manager
	// closes and the directory is removed under its flush.
	writerDone := make(chan struct{})
	defer func() { <-writerDone }()
	go func() {
		defer close(writerDone)
		for _, id := range incoming {
			if err := ds.Insert(message(id, id, int64(id), "m", 1, 1)); err != nil {
				searchErr <- err
				return
			}
		}
		_ = ds.Flush()
	}()

	seen := map[string]int{}
	timeout := time.After(30 * time.Second)
	for {
		select {
		case pk := <-visited:
			seen[string(pk)]++
		case err := <-searchErr:
			if err != nil {
				t.Fatal(err)
			}
			for pk, n := range seen {
				if n != 1 {
					t.Errorf("pk %x visited %d times", pk, n)
				}
			}
			if len(seen) < len(initial) {
				t.Errorf("visited %d pks, want at least the %d initial entries", len(seen), len(initial))
			}
			return
		case <-timeout:
			t.Fatal("secondary search deadlocked against concurrent mutation")
		}
	}
}
