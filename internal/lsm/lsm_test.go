package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func openTemp(t testing.TB, opts Options) *Tree {
	t.Helper()
	tr, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func k(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
func v(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestInsertGetAcrossFlush(t *testing.T) {
	tr := openTemp(t, Options{MemBudget: 1 << 10})
	const n = 500
	for i := 0; i < n; i++ {
		if err := tr.Insert(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Flushes() == 0 {
		t.Error("expected at least one flush with a 1KiB budget")
	}
	for i := 0; i < n; i++ {
		got, ok := tr.Get(k(i))
		if !ok || string(got) != string(v(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, got, ok)
		}
	}
	if tr.Len() != n {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestDeleteAntimatter(t *testing.T) {
	tr := openTemp(t, Options{MemBudget: 1 << 10})
	for i := 0; i < 200; i++ {
		tr.Insert(k(i), v(i))
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	// Delete after the flush: the antimatter entry lives in a newer component
	// than the data it cancels.
	for i := 0; i < 200; i += 2 {
		if err := tr.Delete(k(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		_, ok := tr.Get(k(i))
		if i%2 == 0 && ok {
			t.Fatalf("deleted key %d still visible", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("live key %d missing", i)
		}
	}
	if tr.Len() != 100 {
		t.Errorf("Len = %d", tr.Len())
	}
	// Merging everything drops the antimatter.
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	if tr.Components() != 1 {
		t.Errorf("Components after full merge = %d", tr.Components())
	}
	if tr.Len() != 100 {
		t.Errorf("Len after merge = %d", tr.Len())
	}
}

func TestNewestComponentWins(t *testing.T) {
	tr := openTemp(t, Options{MemBudget: 1 << 20})
	tr.Insert(k(1), []byte("old"))
	tr.Flush()
	tr.Insert(k(1), []byte("new"))
	tr.Flush()
	got, ok := tr.Get(k(1))
	if !ok || string(got) != "new" {
		t.Errorf("Get = %q, %v", got, ok)
	}
	count := 0
	tr.Scan(func(key, value []byte) bool {
		count++
		if string(value) != "new" {
			t.Errorf("Scan value = %q", value)
		}
		return true
	})
	if count != 1 {
		t.Errorf("Scan visited %d entries", count)
	}
}

func TestRange(t *testing.T) {
	tr := openTemp(t, Options{MemBudget: 2 << 10})
	for i := 0; i < 300; i++ {
		tr.Insert(k(i), v(i))
	}
	var got []string
	tr.Range(k(100), k(109), func(key, _ []byte) bool {
		got = append(got, string(key))
		return true
	})
	if len(got) != 10 || got[0] != string(k(100)) || got[9] != string(k(109)) {
		t.Errorf("Range = %v", got)
	}
	// Early stop.
	count := 0
	tr.Range(nil, nil, func(_, _ []byte) bool { count++; return count < 7 })
	if count != 7 {
		t.Errorf("early stop visited %d", count)
	}
}

// TestOpenRefusesUnreadableComponent: a component is only ever written by an
// atomic rename, so one without this layout's footer is damage or an older
// layout. Open must fail naming it and leave it on disk rather than silently
// drop its entries.
func TestOpenRefusesUnreadableComponent(t *testing.T) {
	for _, row := range []struct {
		name, want string
		image      []byte
	}{
		{"garbage", "footer", []byte("partial garbage")},
		{"older layout footer", "drop and recreate", oldLayoutImage()},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			tr, err := Open(dir, Options{MemBudget: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				tr.Insert(k(i), v(i))
			}
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			bad := filepath.Join(dir, "component-00000099.lsm")
			if err := os.WriteFile(bad, row.image, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("Open over an unreadable component = %v, want an error naming %s and saying %q", err, bad, row.want)
			}
			if _, err := os.Stat(bad); err != nil {
				t.Fatalf("unreadable component file was removed: %v", err)
			}
			// Once the damaged file is dealt with, the intact components reopen.
			if err := os.Remove(bad); err != nil {
				t.Fatal(err)
			}
			tr2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if _, ok := tr2.Get(k(i)); !ok {
					t.Fatalf("key %d lost after reopen", i)
				}
			}
		})
	}
}

func TestReopenPreservesData(t *testing.T) {
	dir := t.TempDir()
	tr, _ := Open(dir, Options{MemBudget: 512})
	for i := 0; i < 200; i++ {
		tr.Insert(k(i), v(i))
	}
	tr.Flush()
	tr2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr2.Len(); got != 200 {
		t.Errorf("Len after reopen = %d", got)
	}
}

func TestMergePolicies(t *testing.T) {
	if pick := (TieredPolicy{}).PickMerge([]int{10, 10, 10}); pick != nil {
		t.Errorf("default TieredPolicy should not merge below its trigger: %v", pick)
	}
	if pick := (TieredPolicy{}).PickMerge([]int{10, 10, 10, 10}); len(pick) != 4 {
		t.Errorf("default TieredPolicy should merge a full tier: %v", pick)
	}
	if pick := (NoMergePolicy{}).PickMerge([]int{1, 1, 1, 1, 1, 1, 1}); pick != nil {
		t.Errorf("NoMergePolicy should never merge: %v", pick)
	}
}

func TestMergeReducesComponents(t *testing.T) {
	// The default policy merges inline after the flush that completes a tier.
	tr := openTemp(t, Options{MemBudget: 1 << 20})
	for batch := 0; batch < 5; batch++ {
		for i := 0; i < 50; i++ {
			tr.Insert(k(batch*50+i), v(i))
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Components() > 4 {
		t.Errorf("Components = %d, merges = %d", tr.Components(), tr.Merges())
	}
	if tr.Merges() == 0 {
		t.Error("expected at least one merge")
	}
	if tr.Len() != 250 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestNoMergePolicyAccumulatesComponents(t *testing.T) {
	tr := openTemp(t, Options{MemBudget: 1 << 20, Policy: NoMergePolicy{}})
	for batch := 0; batch < 8; batch++ {
		tr.Insert(k(batch), v(batch))
		tr.Flush()
	}
	if tr.Components() != 8 {
		t.Errorf("Components = %d", tr.Components())
	}
}

func TestPropertyLSMMatchesMap(t *testing.T) {
	// Whatever interleaving of inserts, deletes and flushes happens, the LSM
	// tree must agree with a plain map.
	type op struct {
		Key    uint8
		Delete bool
		Flush  bool
	}
	f := func(ops []op) bool {
		dir, err := os.MkdirTemp("", "lsmprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		tr, err := Open(dir, Options{MemBudget: 256})
		if err != nil {
			return false
		}
		ref := map[string]string{}
		for i, o := range ops {
			key := fmt.Sprintf("k%03d", o.Key)
			switch {
			case o.Flush:
				if err := tr.Flush(); err != nil {
					return false
				}
			case o.Delete:
				tr.Delete([]byte(key))
				delete(ref, key)
			default:
				val := fmt.Sprintf("v%d", i)
				tr.Insert([]byte(key), []byte(val))
				ref[key] = val
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for key, want := range ref {
			got, ok := tr.Get([]byte(key))
			if !ok || string(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsertWithFlushes(b *testing.B) {
	dir := b.TempDir()
	tr, _ := Open(dir, Options{MemBudget: 64 << 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(k(i), v(i))
	}
}

func TestFlushStampedDurableLSN(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(dir, Options{MemBudget: 1 << 20, Background: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Insert([]byte("a"), []byte("1"))
	if err := tr.FlushStamped(100); err != nil {
		t.Fatal(err)
	}
	if tr.DurableLSN() != 100 {
		t.Fatalf("DurableLSN = %d, want 100", tr.DurableLSN())
	}
	// A stamp below the watermark is clamped up; an empty flush still
	// advances the watermark.
	tr.Insert([]byte("b"), []byte("2"))
	if err := tr.FlushStamped(50); err != nil {
		t.Fatal(err)
	}
	if tr.DurableLSN() != 100 {
		t.Fatalf("DurableLSN after lower stamp = %d, want 100", tr.DurableLSN())
	}
	if err := tr.FlushStamped(300); err != nil {
		t.Fatal(err)
	}
	if tr.DurableLSN() != 300 {
		t.Fatalf("DurableLSN after empty stamped flush = %d, want 300 (watermark advances without data)", tr.DurableLSN())
	}

	// Reopen: the watermark comes back from the component stamps. The empty
	// flush above wrote no component, so the highest persisted stamp is 100.
	tr2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.DurableLSN() != 100 {
		t.Fatalf("DurableLSN after reopen = %d, want 100", tr2.DurableLSN())
	}
	if v, ok := tr2.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("Get(b) after reopen = %q, %v", v, ok)
	}
}

func TestMergeKeepsRecencyOrderAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(dir, Options{MemBudget: 1 << 20, Background: true})
	if err != nil {
		t.Fatal(err)
	}
	// Old value in two components, merge them, then write a NEWER value in
	// a post-merge flush. The merged component must not out-rank the newer
	// flush after reopen.
	tr.Insert([]byte("k"), []byte("old"))
	tr.Flush()
	tr.Insert([]byte("x"), []byte("1"))
	tr.Flush()
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	tr.Insert([]byte("k"), []byte("new"))
	tr.Flush()
	if v, _ := tr.Get([]byte("k")); string(v) != "new" {
		t.Fatalf("Get(k) before reopen = %q, want new", v)
	}
	tr2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tr2.Get([]byte("k")); !ok || string(v) != "new" {
		t.Fatalf("Get(k) after reopen = %q, %v; merged component outranked a newer flush", v, ok)
	}
}

func TestOpenRemovesShadowedComponents(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(dir, Options{MemBudget: 1 << 20, Background: true})
	if err != nil {
		t.Fatal(err)
	}
	// Delete a key so the merge (which includes the oldest component) drops
	// both the antimatter and the original entry, then resurrect the crash
	// window: the merged component exists alongside a stale input.
	tr.Insert([]byte("dead"), []byte("v"))
	tr.Insert([]byte("live"), []byte("v"))
	tr.Flush()
	staleInput := tr.disk[0]
	staleBytes, err := os.ReadFile(staleInput.path)
	if err != nil {
		t.Fatal(err)
	}
	tr.Delete([]byte("dead"))
	tr.Flush()
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash-before-cleanup: the superseded input file is back.
	if err := os.WriteFile(staleInput.path, staleBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	tr2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr2.Get([]byte("dead")); ok {
		t.Fatal("deleted key resurrected by a shadowed leftover component")
	}
	if v, ok := tr2.Get([]byte("live")); !ok || string(v) != "v" {
		t.Fatalf("Get(live) = %q, %v", v, ok)
	}
	if tr2.Components() != 1 {
		t.Errorf("components after shadow cleanup = %d, want 1", tr2.Components())
	}
	if _, err := os.Stat(staleInput.path); !os.IsNotExist(err) {
		t.Errorf("shadowed component file still on disk: %v", err)
	}
}

func TestMergePlanLifecycle(t *testing.T) {
	tr, err := Open(t.TempDir(), Options{MemBudget: 1 << 20, Background: true, Policy: TieredPolicy{Trigger: 2}})
	if err != nil {
		t.Fatal(err)
	}
	tr.Insert([]byte("a"), []byte("1"))
	tr.Flush()
	tr.Insert([]byte("b"), []byte("2"))
	tr.Flush()
	plan, err := tr.PlanMerge()
	if err != nil || plan == nil {
		t.Fatalf("PlanMerge = %v, %v", plan, err)
	}
	// Only one plan at a time.
	if p2, err := tr.PlanMerge(); err != nil || p2 != nil {
		t.Fatalf("second PlanMerge = %v, %v; want nil (merge outstanding)", p2, err)
	}
	// A flush between plan and install must survive the splice.
	tr.Insert([]byte("c"), []byte("3"))
	tr.Flush()
	if err := plan.Execute(); err != nil {
		t.Fatal(err)
	}
	if err := tr.InstallMerge(plan); err != nil {
		t.Fatal(err)
	}
	if tr.Components() != 2 {
		t.Fatalf("components = %d, want 2 (merged + concurrent flush)", tr.Components())
	}
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		if v, ok := tr.Get([]byte(kv[0])); !ok || string(v) != kv[1] {
			t.Errorf("Get(%s) = %q, %v", kv[0], v, ok)
		}
	}
	if tr.Merges() != 1 {
		t.Errorf("merges = %d, want 1", tr.Merges())
	}
	// Plan/abort leaves the tree mergeable again.
	plan2, err := tr.PlanMerge()
	if err != nil || plan2 == nil {
		t.Fatalf("PlanMerge after install = %v, %v", plan2, err)
	}
	tr.AbortMerge(plan2)
	if p, err := tr.PlanMerge(); err != nil || p == nil {
		t.Fatalf("PlanMerge after abort = %v, %v", p, err)
	}
}

func TestTieredPolicyPicks(t *testing.T) {
	p := TieredPolicy{Trigger: 3, Ratio: 3}
	cases := []struct {
		sizes []int
		want  []int
	}{
		{sizes: []int{10, 10}, want: nil},
		{sizes: []int{10, 12, 9}, want: []int{0, 1, 2}},
		// The big old component is out of ratio; the small run merges.
		{sizes: []int{10, 12, 9, 1000}, want: []int{0, 1, 2}},
		// A newer out-of-tier component does not block an older run.
		{sizes: []int{1000, 10, 12, 9}, want: []int{1, 2, 3}},
		// Greedy extension takes the whole tier.
		{sizes: []int{10, 12, 9, 11, 1000}, want: []int{0, 1, 2, 3}},
		{sizes: []int{5, 500}, want: nil},
	}
	for _, tc := range cases {
		got := p.PickMerge(tc.sizes)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("PickMerge(%v) = %v, want %v", tc.sizes, got, tc.want)
		}
	}
}

func TestOpenRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "component-00000007.lsm.tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("temp file survived Open: %v", err)
	}
}

func TestBackgroundOptionDisablesInlineFlush(t *testing.T) {
	tr, err := Open(t.TempDir(), Options{MemBudget: 64, Background: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tr.Insert([]byte(fmt.Sprintf("key-%03d", i)), []byte("value"))
	}
	if tr.Flushes() != 0 || tr.Components() != 0 {
		t.Fatalf("background tree flushed inline: flushes=%d components=%d", tr.Flushes(), tr.Components())
	}
	if tr.MemBytes() <= 64 {
		t.Fatal("memtable did not grow past budget")
	}
}

// BenchmarkComponentReads times point reads, 16-key ranges and full scans
// over 8 flushed components of 4096 entries and over the one component a
// full merge makes of them, for two key shapes: 16-byte keys whose first 8
// bytes are a hash (little shared prefix, the shape of the benchmark
// harness's lsm rung) and keyword-index keys, a token then a 4-byte
// document key (long shared prefixes). Values are 100 bytes.
//
//	go test -run '^$' -bench ComponentReads -benchmem ./internal/lsm
func BenchmarkComponentReads(b *testing.B) {
	const components, perFlush = 8, 4096
	shapes := []struct {
		name string
		key  func(i int) []byte
	}{
		{"hashed", func(i int) []byte {
			k := make([]byte, 16)
			binary.BigEndian.PutUint64(k, uint64(i)*0x9E3779B97F4A7C15)
			binary.BigEndian.PutUint64(k[8:], uint64(i))
			return k
		}},
		{"keyword", func(i int) []byte {
			return binary.BigEndian.AppendUint32([]byte(fmt.Sprintf("token-%04d\x00", i%500)), uint32(i))
		}},
	}
	value := make([]byte, 100)
	for _, shape := range shapes {
		tr, err := Open(b.TempDir(), Options{Background: true, Policy: NoMergePolicy{}, MemBudget: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		keys := make([][]byte, components*perFlush)
		for i := range keys {
			keys[i] = shape.key(i)
		}
		for c := 0; c < components; c++ {
			for _, key := range keys[c*perFlush : (c+1)*perFlush] {
				tr.Insert(key, value)
			}
			if err := tr.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		sorted := slices.SortedFunc(slices.Values(keys), bytes.Compare)
		reads := func(suffix string) {
			b.Run(shape.name+"/get_"+suffix, func(b *testing.B) {
				for i := 0; b.Loop(); i++ {
					if _, ok := tr.Get(keys[i*7%len(keys)]); !ok {
						b.Fatal("key not found")
					}
				}
			})
			b.Run(shape.name+"/range16_"+suffix, func(b *testing.B) {
				for i := 0; b.Loop(); i++ {
					j := i * 7 % (len(sorted) - 16)
					n := 0
					for it := tr.NewIterator(sorted[j], sorted[j+15]); it.Next(); n++ {
					}
					if n != 16 {
						b.Fatalf("range of 16 keys yields %d", n)
					}
				}
			})
			b.Run(shape.name+"/scan_entry_"+suffix, func(b *testing.B) {
				for b.Loop() {
					tr.Scan(func(_, _ []byte) bool { return true })
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/entry")
			})
		}
		reads("c8")
		if err := tr.Merge(); err != nil {
			b.Fatal(err)
		}
		reads("c1")
	}
}
