package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/external"
	"asterixdb/internal/lsm"
)

// residentCacheBytes is the page cache TestResidentBytesBounded reads
// through: small, so the data it ingests is several times the cache.
const residentCacheBytes = 1 << 20

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesBounded: a dataset with a B+-tree, an R-tree and a
// keyword index, holding component files at least four times the page
// cache, keeps resident only the cache, the memtables and a small share of
// its component bytes (page indexes, filters, open files) — after ingest,
// a scan and point reads have passed through the cache.
func TestResidentBytesBounded(t *testing.T) {
	const (
		partitions = 2
		memBudget  = 64 << 10
		records    = 16000
	)
	before := liveHeap()
	m, err := NewManager(t.TempDir(), Options{Partitions: partitions, MemBudget: memBudget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	m.cache = lsm.NewCache(residentCacheBytes)
	ds := createMessages(t, m)
	specs := []IndexSpec{
		{Name: "byTime", Fields: []string{"timestamp"}, Kind: BTreeIndex},
		{Name: "byPlace", Fields: []string{"sender-location"}, Kind: RTreeIndex},
		{Name: "byWord", Fields: []string{"message"}, Kind: KeywordIndex},
	}
	for _, spec := range specs {
		if _, err := ds.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(66))
	words := make([]string, 25)
	for id := 0; id < records; {
		batch := make([]*adm.Record, 0, 200)
		for ; len(batch) < cap(batch); id++ {
			for i := range words {
				words[i] = consistencyWords[rng.Intn(len(consistencyWords))]
			}
			batch = append(batch, message(id, rng.Intn(50), int64(rng.Intn(1e6)), strings.Join(words, " "),
				rng.Float64()*100, rng.Float64()*100))
		}
		if _, err := ds.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := ds.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if disk < 4*residentCacheBytes {
		t.Fatalf("%d component bytes, want at least four times the %d-byte cache", disk, residentCacheBytes)
	}
	if n, err := ds.Count(); err != nil || n != records {
		t.Fatalf("Count = %d, %v; want %d", n, err, records)
	}
	for id := 0; id < records; id += 97 {
		if _, ok, err := ds.LookupPK(adm.Int32(int32(id))); err != nil || !ok {
			t.Fatalf("LookupPK(%d) = %v, %v", id, ok, err)
		}
	}
	trees := partitions * (1 + len(specs))
	bound := uint64(residentCacheBytes + int64(trees*memBudget) + disk/20)
	after := liveHeap()
	resident := after - min(before, after)
	t.Logf("%d bytes resident over %d component bytes; bound %d", resident, disk, bound)
	if resident > bound {
		t.Fatalf("%d bytes resident over %d component bytes, want at most %d (cache %d, memtables %d, 5%% of components %d)",
			resident, disk, bound, residentCacheBytes, trees*memBudget, disk/20)
	}
	runtime.KeepAlive(ds)
}

// TestDroppedIndexReadsItsRemovedFiles: a search through the handle of an
// index dropped after its components were flushed, and never read before,
// reads every page from the deleted files through a cache of a few pages
// and finds every entry.
func TestDroppedIndexReadsItsRemovedFiles(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, Options{Partitions: 2, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	m.cache = lsm.NewCache(32 << 10)
	ds := createMessages(t, m)
	x, err := ds.CreateIndex(IndexSpec{Name: "byTime", Fields: []string{"timestamp"}, Kind: BTreeIndex})
	if err != nil {
		t.Fatal(err)
	}
	const records = 5000
	batch := make([]*adm.Record, 0, records)
	for i := 0; i < records; i++ {
		batch = append(batch, message(i, i%7, int64(i), "dropped but held", 0, 0))
	}
	if _, err := ds.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ds.DropIndex("byTime"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ds.indexDir(ds.partitions[0], "byTime")); !os.IsNotExist(err) {
		t.Fatalf("index directory still present after the drop: %v", err)
	}
	before := m.Stats().PageCache
	found := 0
	for part := range ds.partitions {
		if err := x.SearchPartition(part, Probe{Lo: adm.Datetime(0), Hi: adm.Datetime(records)}, func([]byte) bool { found++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	after := m.Stats().PageCache
	if found != records || after.Misses == before.Misses || after.Evictions == before.Evictions {
		t.Fatalf("found %d of %d entries; %d misses, %d evictions", found, records, after.Misses-before.Misses, after.Evictions-before.Evictions)
	}
}

// TestFreshInsertsReadFewPages: an insert reads the key it may replace, and
// with eight disk components in each partition's primary index the
// component filters keep inserts of new keys to at most 0.005 page fetches
// each, hits and misses of the page cache together. A filter that let 0.8 %
// of absent keys through would fetch about 0.06.
func TestFreshInsertsReadFewPages(t *testing.T) {
	const components, per, fresh = 8, 1000, 8000
	m, err := NewManager(t.TempDir(), Options{Partitions: 2, MemBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	ds := createMessages(t, m)
	insert := func(from, n int) {
		t.Helper()
		batch := make([]*adm.Record, 0, n)
		for id := from; id < from+n; id++ {
			batch = append(batch, message(id, id%50, int64(id), "fresh", 0, 0))
		}
		if _, err := ds.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < components; c++ {
		insert(c*per, per)
		if err := ds.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if s := ds.Stats(); s.Components != components*len(ds.partitions) {
		t.Fatalf("%d primary components, want %d", s.Components, components*len(ds.partitions))
	}
	before := m.Stats().PageCache
	insert(components*per, fresh)
	after := m.Stats().PageCache
	pages := float64(after.Hits+after.Misses-before.Hits-before.Misses) / fresh
	t.Logf("%.5f page fetches per insert of a new key over %d components", pages, components)
	if pages > 0.005 {
		t.Fatalf("%.5f page fetches per insert of a new key over %d components, want <= 0.005", pages, components)
	}
}

// TestLoadLeavesTreesWithinBudget: a load reads a file and stores its
// records as one batch, many times every tree's in-memory budget. Once the
// background queue drains, every tree of every partition, the primary and
// both secondary indexes, holds less than its budget in memory: the writer
// queues a flush for a tree over budget after each group it applies.
func TestLoadLeavesTreesWithinBudget(t *testing.T) {
	const budget, records = 4 << 10, 3000
	m, err := NewManager(t.TempDir(), Options{Partitions: 2, MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	rt := &adm.RecordType{Name: "Line", Fields: []adm.FieldType{
		{Name: "id", Type: adm.Prim(adm.TagInt32)},
		{Name: "n", Type: adm.Prim(adm.TagInt32)},
		{Name: "text", Type: adm.Prim(adm.TagString)},
	}}
	ds, err := m.CreateDataset(DatasetSpec{Name: "Lines", Type: rt, PrimaryKey: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []IndexSpec{
		{Name: "byN", Fields: []string{"n"}, Kind: BTreeIndex},
		{Name: "byWord", Fields: []string{"text"}, Kind: KeywordIndex},
	} {
		if _, err := ds.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	var file strings.Builder
	for id := 0; id < records; id++ {
		fmt.Fprintf(&file, "%d|%d|%s %s\n", id, id%97, consistencyWords[id%len(consistencyWords)], consistencyWords[id/7%len(consistencyWords)])
	}
	path := filepath.Join(t.TempDir(), "lines.csv")
	if err := os.WriteFile(path, []byte(file.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	ext, err := external.NewDataset(rt, "localfs", map[string]string{"path": "localhost://" + path, "format": "delimited-text", "delimiter": "|"})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ext.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ds.InsertBatch(recs); err != nil || n != records {
		t.Fatalf("loaded %d records, %v; want %d", n, err, records)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if depth, inflight := m.sched.queueStats(); depth == 0 && inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background queue still busy after 10 s")
		}
	}
	if s := ds.Stats(); s.Components == 0 || s.SecondaryComponents == 0 {
		t.Fatalf("%d primary and %d secondary components after the load, want flushes of both", s.Components, s.SecondaryComponents)
	}
	for part, p := range ds.partitions {
		p.mu.Lock()
		for i, tree := range p.allTrees() {
			if n := tree.MemBytes(); n >= budget {
				t.Errorf("partition %d tree %d holds %d bytes in memory, budget %d", part, i, n, budget)
			}
		}
		p.mu.Unlock()
	}
}
