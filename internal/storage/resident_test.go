package storage

import (
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"asterixdb/internal/adm"
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
