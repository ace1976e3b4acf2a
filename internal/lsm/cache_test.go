package lsm

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheEvictsUnreferencedPages: a cache keeps its bytes within its
// capacity by dropping the first page its sweep finds unreferenced since
// the sweep last passed, never keeps a page larger than itself, hands out
// the first copy of a page two readers cached, and drops a component's
// pages when asked.
func TestCacheEvictsUnreferencedPages(t *testing.T) {
	c := NewCache(300)
	var a, b [3]atomic.Pointer[cachedPage]
	page := func(n int) []byte { return make([]byte, n) }
	for i := range a {
		c.put(&a[i], page(100))
	}
	if p := a[0].Load(); p == nil {
		t.Fatal("page 0 evicted under capacity")
	} else {
		c.hit(p)
	}
	c.put(&b[0], page(100)) // passes over referenced page 0, evicts page 1
	if a[1].Load() != nil || a[0].Load() == nil || a[2].Load() == nil || b[0].Load() == nil {
		t.Fatalf("cached after a fourth page: %v %v %v %v; want page 1 evicted", a[0].Load() != nil, a[1].Load() != nil, a[2].Load() != nil, b[0].Load() != nil)
	}
	if big := page(301); &c.put(&b[1], big)[0] != &big[0] || b[1].Load() != nil {
		t.Fatal("a page past the capacity was not handed back uncached")
	}
	first := page(10)
	c.put(&b[2], first)
	if got := c.put(&b[2], page(10)); &got[0] != &first[0] {
		t.Fatal("a second copy of a cached page replaced the first")
	}
	c.drop(a[:])
	s := c.Stats()
	if s.ResidentBytes != 110 || s.Evictions != 3 || s.Hits != 1 || s.Misses != 7 || s.BytesRead != 4*100+301+20 {
		t.Fatalf("stats %+v", s)
	}
}

// TestCacheBesideBackgroundMerges: trees sharing one small cache, each
// written, flushed and merged under its own latch with every merge's
// Execute outside it, while readers run Get and scans under the latches
// and pages come and go from the cache. Every read sees the tree as the
// writer left it. CI runs it under -race, 20 times.
func TestCacheBesideBackgroundMerges(t *testing.T) {
	const trees, rounds, perRound = 2, 12, 64
	cache := NewCache(2 << 10)
	type latched struct {
		mu sync.Mutex
		tr *Tree
		// written is how many rounds are in the tree.
		written int
	}
	var ts [trees]*latched
	for i := range ts {
		tr := openTemp(t, Options{Background: true, MemBudget: 1 << 30, Cache: cache, Policy: TieredPolicy{Trigger: 2}})
		tr.pageBytes = 256
		ts[i] = &latched{tr: tr}
	}
	value := func(tree, i int) []byte { return []byte(fmt.Sprintf("t%d-value-%d", tree, i)) }
	var wg sync.WaitGroup
	errs := make(chan error, 4*trees)
	for i, l := range ts {
		wg.Add(1)
		go func() { // the writer and its background merges
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				l.mu.Lock()
				for j := r * perRound; j < (r+1)*perRound; j++ {
					l.tr.Insert(key(j), value(i, j))
				}
				err := l.tr.Flush()
				l.written = r + 1
				plan, perr := l.tr.PlanMerge()
				l.mu.Unlock()
				if err != nil || perr != nil {
					errs <- fmt.Errorf("flush %v, plan %v", err, perr)
					return
				}
				if plan == nil {
					continue
				}
				err = plan.Execute()
				l.mu.Lock()
				if err == nil {
					err = l.tr.InstallMerge(plan)
				} else {
					l.tr.AbortMerge(plan)
				}
				l.mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				runtime.GC() // merged-away components release their files and pages
			}
		}()
		for range 2 {
			wg.Add(1)
			go func() { // a reader
				defer wg.Done()
				for n := 0; ; n++ {
					l.mu.Lock()
					written := l.written
					if written == rounds && n > rounds {
						l.mu.Unlock()
						return
					}
					j := n * 7 % max(written*perRound, 1)
					got, ok := l.tr.Get(key(j))
					if ok != (written > 0) || ok && !bytes.Equal(got, value(i, j)) {
						l.mu.Unlock()
						errs <- fmt.Errorf("tree %d: Get(%q) = %q, %v with %d rounds written", i, key(j), got, ok, written)
						return
					}
					seen := 0
					for it := l.tr.NewIterator(nil, nil); it.Next(); seen++ {
						if !bytes.Equal(it.Value(), value(i, seen)) {
							l.mu.Unlock()
							errs <- fmt.Errorf("tree %d: scan entry %d is %q = %q", i, seen, it.Key(), it.Value())
							return
						}
					}
					l.mu.Unlock()
					if seen != written*perRound {
						errs <- fmt.Errorf("tree %d: scan saw %d entries of %d", i, seen, written*perRound)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := cache.Stats(); s.Evictions == 0 || s.Hits == 0 || s.ResidentBytes > 2<<10 {
		t.Fatalf("cache %+v: want hits, evictions and at most 2 KiB resident", s)
	}
}
