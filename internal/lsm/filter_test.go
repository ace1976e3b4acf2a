package lsm

import (
	"fmt"
	"testing"
)

// checkReads fails unless every key in live reads back with its value and
// every key in gone reads back absent.
func checkReads(t *testing.T, tr *Tree, live map[string]string, gone []string) {
	t.Helper()
	for key, want := range live {
		if got, ok := tr.Get([]byte(key)); !ok || string(got) != want {
			t.Fatalf("Get(%q) = %q, %v; want %q", key, got, ok, want)
		}
	}
	for _, key := range gone {
		if got, ok := tr.Get([]byte(key)); ok {
			t.Fatalf("Get(%q) = %q after its delete", key, got)
		}
	}
}

// TestFilterKeepsTombstone: a delete flushed into a newer component than its
// key still hides the key, because the tombstone is in its component's
// filter, and so after Open, when the first Get builds the filters again. A
// live key beside it is still found.
func TestFilterKeepsTombstone(t *testing.T) {
	tr := openTemp(t, Options{Background: true})
	tr.Insert([]byte("k"), []byte("old"))
	tr.Insert([]byte("j"), []byte("live"))
	tr.Flush()
	tr.Delete([]byte("k"))
	tr.Flush()
	live := map[string]string{"j": "live"}
	checkReads(t, tr, live, []string{"k"})
	reopened, err := Open(tr.Dir(), Options{Background: true})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Components() != 2 {
		t.Fatalf("reopened %d components, want 2", reopened.Components())
	}
	checkReads(t, reopened, live, []string{"k"})
}

// TestFilterFalsePositiveRate: over 100 000 absent keys, a component's filter
// lets at most 0.1 % through to a search. The newer of the two components holds
// tombstones for half the older one's keys.
func TestFilterFalsePositiveRate(t *testing.T) {
	const n, absent = 10000, 100000
	tr := openTemp(t, Options{Background: true, MemBudget: 1 << 30})
	live := map[string]string{}
	var gone []string
	for i := 0; i < n; i++ {
		tr.Insert(k(i), v(i))
		live[string(k(i))] = string(v(i))
	}
	tr.Flush()
	for i := 0; i < n; i += 2 {
		tr.Delete(k(i))
		delete(live, string(k(i)))
		gone = append(gone, string(k(i)))
	}
	tr.Flush()
	checkReads(t, tr, live, gone)
	before := tr.Reads()
	for i := n; i < n+absent; i++ {
		if _, ok := tr.Get(k(i)); ok {
			t.Fatalf("absent key %d found", i)
		}
	}
	r := tr.Reads()
	probes := uint64(absent * tr.Components())
	falses, skips := r.FilterFalsePositives-before.FilterFalsePositives, r.FilterSkips-before.FilterSkips
	fp := float64(falses) / float64(probes)
	t.Logf("false-positive rate %.4f over %d component probes", fp, probes)
	if r.PointReads-before.PointReads != absent || fp > 0.001 || falses+skips != probes {
		t.Fatalf("%d reads: %d false positives and %d skips of %d component probes; want %d reads, a rate <= 0.001, every probe one or the other",
			r.PointReads-before.PointReads, falses, skips, probes, absent)
	}
}

// TestFilterAbsentKeySearches: over eight components an absent key costs at
// most 0.01 binary searches per Get. Each component also deletes half of the
// previous one's keys.
func TestFilterAbsentKeySearches(t *testing.T) {
	const components, per, absent = 8, 2000, 20000
	tr := openTemp(t, Options{Background: true, MemBudget: 1 << 30, Policy: NoMergePolicy{}})
	live := map[string]string{}
	var gone []string
	for c := 0; c < components; c++ {
		for i := c * per; i < (c+1)*per; i++ {
			tr.Insert(k(i), v(i))
			live[string(k(i))] = string(v(i))
		}
		for i := (c - 1) * per; c > 0 && i < (c-1)*per+per/2; i++ {
			tr.Delete(k(i))
			delete(live, string(k(i)))
			gone = append(gone, string(k(i)))
		}
		tr.Flush()
	}
	if tr.Components() != components {
		t.Fatalf("%d components, want %d", tr.Components(), components)
	}
	checkReads(t, tr, live, gone)
	before := tr.Reads()
	for i := 0; i < absent; i++ {
		key := []byte(fmt.Sprintf("absent-%d", i))
		if _, ok := tr.Get(key); ok {
			t.Fatalf("absent key %q found", key)
		}
	}
	r := tr.Reads()
	searches := float64(r.FilterFalsePositives-before.FilterFalsePositives) / absent
	t.Logf("%.4f binary searches per absent Get over %d components", searches, components)
	if searches > 0.01 {
		t.Fatalf("%.4f binary searches per absent Get, want <= 0.01", searches)
	}
}

// TestFilterBuiltByFirstGet: a flush, a merge and a reopen build no filter,
// and neither do scans; the first Get that reaches a component builds one
// sized for its entries, and FilterBytes counts it.
func TestFilterBuiltByFirstGet(t *testing.T) {
	tr := openTemp(t, Options{Background: true, MemBudget: 1 << 30})
	for round := 0; round < 2; round++ {
		for i := 0; i < 1000; i++ {
			tr.Insert(k(round*1000+i), v(i))
		}
		tr.Flush()
	}
	unbuilt := func(tr *Tree, when string) {
		t.Helper()
		tr.Scan(func(_, _ []byte) bool { return true })
		if n := tr.FilterBytes(); n != 0 {
			t.Fatalf("%s and a scan: %d filter bytes, want none", when, n)
		}
	}
	unbuilt(tr, "two flushes")
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	unbuilt(tr, "a merge")
	reopened, err := Open(tr.Dir(), Options{Background: true})
	if err != nil {
		t.Fatal(err)
	}
	unbuilt(reopened, "a reopen")
	if _, ok := reopened.Get(k(5)); !ok {
		t.Fatal("key 5 not found")
	}
	if n, want := reopened.FilterBytes(), 8*len(newFilter(2000)); n != want {
		t.Fatalf("after a Get: %d filter bytes, want %d", n, want)
	}
}
