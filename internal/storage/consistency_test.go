package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/fuzzy"
	"asterixdb/internal/spatial"
)

// consistencyWords is the text vocabulary for the index-consistency workload;
// small enough that keyword and ngram probes hit real posting lists.
var consistencyWords = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}

// randomMessage builds one record with pseudo-random indexed field values.
func randomMessage(rng *rand.Rand, id int) *adm.Record {
	n := 1 + rng.Intn(4)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = consistencyWords[rng.Intn(len(consistencyWords))]
	}
	return message(id, rng.Intn(20), int64(rng.Intn(100000)), strings.Join(parts, " "),
		rng.Float64()*100, rng.Float64()*100)
}

// scanAll returns every live record keyed by its primary key value.
func scanAll(t *testing.T, ds *Dataset) map[int32]*adm.Record {
	t.Helper()
	out := map[int32]*adm.Record{}
	if err := ds.Scan(func(r *adm.Record) bool {
		out[int32(r.Get("message-id").(adm.Int32))] = r
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// idsOf collects the primary keys of a record slice as a set.
func idsOf(recs []*adm.Record) map[int32]bool {
	out := map[int32]bool{}
	for _, r := range recs {
		out[int32(r.Get("message-id").(adm.Int32))] = true
	}
	return out
}

// assertSameIDs fails unless got and want contain exactly the same keys.
func assertSameIDs(t *testing.T, label string, got, want map[int32]bool) {
	t.Helper()
	for id := range want {
		if !got[id] {
			t.Errorf("%s: index search missed record %d", label, id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("%s: index search returned record %d that the scan predicate rejects", label, id)
		}
	}
}

// TestSecondaryIndexConsistencyUnderMutation interleaves inserts, overwrites,
// deletes and LSM flushes, then checks that every secondary index returns
// exactly the records a full scan plus the equivalent predicate returns:
// B+-tree range search, R-tree intersection search, keyword token search, and
// the ngram conjunctive candidate search (whose predicate is "contains every
// gram of the probe").
func TestSecondaryIndexConsistencyUnderMutation(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	for _, spec := range consistencyIndexes {
		if _, err := ds.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(11))
	live := map[int32]bool{}
	nextID := 1
	for round := 0; round < 6; round++ {
		// Insert a batch of fresh records.
		var batch []*adm.Record
		for i := 0; i < 60; i++ {
			batch = append(batch, randomMessage(rng, nextID))
			live[int32(nextID)] = true
			nextID++
		}
		if _, err := ds.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		// Overwrite some existing keys with new field values ("out with the
		// old, in with the new": the old secondary entries must disappear).
		for i := 0; i < 10; i++ {
			id := 1 + rng.Intn(nextID-1)
			if !live[int32(id)] {
				continue
			}
			if err := ds.Insert(randomMessage(rng, id)); err != nil {
				t.Fatal(err)
			}
		}
		// Delete some records.
		for i := 0; i < 15; i++ {
			id := 1 + rng.Intn(nextID-1)
			if _, err := ds.Delete(adm.Int32(int32(id))); err != nil {
				t.Fatal(err)
			}
			delete(live, int32(id))
		}
		// Flush every other round so disk components participate.
		if round%2 == 1 {
			if err := ds.Flush(); err != nil {
				t.Fatal(err)
			}
		}

		all := scanAll(t, ds)
		if len(all) != len(live) {
			t.Fatalf("round %d: scan found %d records, want %d", round, len(all), len(live))
		}
		checkIndexesAgree(t, ds, fmt.Sprintf("round %d", round), consistencyWords[rng.Intn(len(consistencyWords))])
	}
}

// consistencyIndexes are the four secondary indexes checkIndexesAgree reads.
var consistencyIndexes = []IndexSpec{
	{Name: "tsIdx", Fields: []string{"timestamp"}, Kind: BTreeIndex},
	{Name: "locIdx", Fields: []string{"sender-location"}, Kind: RTreeIndex},
	{Name: "kwIdx", Fields: []string{"message"}, Kind: KeywordIndex},
	{Name: "ngIdx", Fields: []string{"message"}, Kind: NGramIndex, GramLength: 3},
}

// checkIndexesAgree checks that every index of consistencyIndexes returns
// exactly the records a full scan plus the equivalent predicate returns:
// B+-tree range search, R-tree intersection search, keyword token search for
// each of words, and the ngram conjunctive candidate search (whose predicate
// is "contains every gram of the probe") for a probe built from each word.
func checkIndexesAgree(t *testing.T, ds *Dataset, label string, words ...string) {
	t.Helper()
	all := scanAll(t, ds)

	// B+-tree range.
	lo, hi := adm.Datetime(20000), adm.Datetime(70000)
	recs, err := ds.SearchSecondaryRange("tsIdx", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32]bool{}
	for id, r := range all {
		ts := r.Get("timestamp")
		if c1, _ := adm.Compare(ts, lo); c1 >= 0 {
			if c2, _ := adm.Compare(ts, hi); c2 <= 0 {
				want[id] = true
			}
		}
	}
	assertSameIDs(t, label+" btree", idsOf(recs), want)

	// R-tree intersection.
	probe := adm.Rectangle{LowerLeft: adm.Point{X: 20, Y: 20}, UpperRight: adm.Point{X: 60, Y: 70}}
	recs, err = ds.SearchSecondaryRTree("locIdx", probe)
	if err != nil {
		t.Fatal(err)
	}
	want = map[int32]bool{}
	for id, r := range all {
		if ok, err := spatial.Intersect(r.Get("sender-location"), probe); err == nil && ok {
			want[id] = true
		}
	}
	assertSameIDs(t, label+" rtree", idsOf(recs), want)

	for _, word := range words {
		// Keyword token search: candidates are exactly the records whose
		// token set contains the probe word.
		recs, err = ds.SearchSecondaryConjunctive("kwIdx", word)
		if err != nil {
			t.Fatal(err)
		}
		want = map[int32]bool{}
		for id, r := range all {
			for _, tok := range fuzzy.WordTokens(string(r.Get("message").(adm.String))) {
				if tok == word {
					want[id] = true
					break
				}
			}
		}
		assertSameIDs(t, label+" keyword "+word, idsOf(recs), want)

		// NGram conjunctive search: candidates are exactly the records whose
		// text contains every (unpadded) gram of the probe — a superset of
		// the contains() matches that the query layer post-validates.
		probeStr := word[:3] + word[1:4]
		recs, err = ds.SearchSecondaryConjunctive("ngIdx", probeStr)
		if err != nil {
			t.Fatal(err)
		}
		grams := substringGrams(probeStr, 3)
		want = map[int32]bool{}
		for id, r := range all {
			text := strings.ToLower(string(r.Get("message").(adm.String)))
			hasAll := true
			for _, g := range grams {
				if !strings.Contains(text, g) {
					hasAll = false
					break
				}
			}
			if hasAll {
				want[id] = true
			}
			// Every true contains() match must be among the candidates.
			if strings.Contains(text, probeStr) && !want[id] {
				t.Errorf("%s: ngram candidates exclude a true contains match (record %d)", label, id)
			}
		}
		assertSameIDs(t, label+" ngram "+word, idsOf(recs), want)
	}
}

// TestCreateIndexConcurrentWithWriters races CreateIndex against live
// inserts and deletes. The publish ordering must make every record reach
// the new index exactly once: a writer that saw the published spec logs and
// applies its own entries (the trees exist before the spec is visible), and
// a writer that did not is fully applied before the backfill scan runs
// (publish waits out in-flight writers under d.mu). A regression here shows
// up as records missing from the index until the next restart's WAL replay.
func TestCreateIndexConcurrentWithWriters(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	rng := rand.New(rand.NewSource(23))
	for i := 1; i <= 100; i++ {
		if err := ds.Insert(randomMessage(rng, i)); err != nil {
			t.Fatal(err)
		}
	}

	const writers = 4
	const perWriter = 150
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			<-start
			for i := 0; i < perWriter; i++ {
				id := 101 + w*perWriter + i
				if err := ds.Insert(randomMessage(rng, id)); err != nil {
					t.Error(err)
					return
				}
				// Deletes against the preloaded range exercise antimatter
				// racing the backfill scan.
				if i%7 == 0 {
					if _, err := ds.Delete(adm.Int32(int32(1 + rng.Intn(100)))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	for _, spec := range []IndexSpec{
		{Name: "tsIdx", Fields: []string{"timestamp"}, Kind: BTreeIndex},
		{Name: "locIdx", Fields: []string{"sender-location"}, Kind: RTreeIndex},
		{Name: "kwIdx", Fields: []string{"message"}, Kind: KeywordIndex},
	} {
		if _, err := ds.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	all := scanAll(t, ds)
	want := map[int32]bool{}
	for id := range all {
		want[id] = true
	}

	recs, err := ds.SearchSecondaryRange("tsIdx", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIDs(t, "btree full range", idsOf(recs), want)

	probe := adm.Rectangle{LowerLeft: adm.Point{X: -1, Y: -1}, UpperRight: adm.Point{X: 101, Y: 101}}
	recs, err = ds.SearchSecondaryRTree("locIdx", probe)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIDs(t, "rtree full rect", idsOf(recs), want)

	for _, word := range consistencyWords {
		recs, err = ds.SearchSecondaryConjunctive("kwIdx", word)
		if err != nil {
			t.Fatal(err)
		}
		kwWant := map[int32]bool{}
		for id, r := range all {
			for _, tok := range fuzzy.WordTokens(string(r.Get("message").(adm.String))) {
				if tok == word {
					kwWant[id] = true
					break
				}
			}
		}
		assertSameIDs(t, "keyword "+word, idsOf(recs), kwWant)
	}
}

// TestPartitionSearchPrimitivesAgreeWithMaterializedPath checks that the
// per-partition primitives the compiled jobs run on (secondary search
// emitting PKs, partition-local primary fetch) reconstruct exactly the
// records the materializing access path returns.
func TestPartitionSearchPrimitivesAgreeWithMaterializedPath(t *testing.T) {
	m := newTestManager(t)
	ds := createMessages(t, m)
	for _, spec := range []IndexSpec{
		{Name: "tsIdx", Fields: []string{"timestamp"}, Kind: BTreeIndex},
		{Name: "locIdx", Fields: []string{"sender-location"}, Kind: RTreeIndex},
		{Name: "kwIdx", Fields: []string{"message"}, Kind: KeywordIndex},
	} {
		if _, err := ds.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(23))
	var batch []*adm.Record
	for i := 1; i <= 150; i++ {
		batch = append(batch, randomMessage(rng, i))
	}
	if _, err := ds.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}

	collect := func(search func(part int, visit func(pk []byte) bool) error) map[int32]bool {
		t.Helper()
		got := map[int32]bool{}
		for part := 0; part < ds.PartitionCount(); part++ {
			err := search(part, func(pk []byte) bool {
				v, ok, err := ds.FetchPKPartition(part, pk)
				if err != nil || !ok {
					t.Fatalf("partition %d: primary fetch failed for secondary key: %v %v", part, ok, err)
				}
				rec, ok := v.(*adm.LazyRecord)
				if !ok {
					t.Fatalf("partition %d: primary fetch returned %T, want the lazy view", part, v)
				}
				got[int32(rec.Get("message-id").(adm.Int32))] = true
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return got
	}

	lo, hi := adm.Datetime(10000), adm.Datetime(80000)
	recs, err := ds.SearchSecondaryRange("tsIdx", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(func(part int, visit func([]byte) bool) error {
		return searchIndexPartition(ds, part, "tsIdx", Probe{Lo: lo, Hi: hi}, visit)
	})
	assertSameIDs(t, "btree partitions", got, idsOf(recs))

	probe := adm.Rectangle{LowerLeft: adm.Point{X: 10, Y: 10}, UpperRight: adm.Point{X: 80, Y: 80}}
	// The per-partition primitive emits candidates (no post-validation), which
	// for point fields and a rectangle probe coincide with the exact matches.
	recs, err = ds.SearchSecondaryRTree("locIdx", probe)
	if err != nil {
		t.Fatal(err)
	}
	got = collect(func(part int, visit func([]byte) bool) error {
		return searchIndexPartition(ds, part, "locIdx", Probe{Value: probe}, visit)
	})
	assertSameIDs(t, "rtree partitions", got, idsOf(recs))

	recs, err = ds.SearchSecondaryConjunctive("kwIdx", "delta")
	if err != nil {
		t.Fatal(err)
	}
	got = collect(func(part int, visit func([]byte) bool) error {
		return searchIndexPartition(ds, part, "kwIdx", Probe{Value: adm.String("delta")}, visit)
	})
	assertSameIDs(t, "keyword partitions", got, idsOf(recs))
}
