package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"asterixdb/internal/btree"
)

// within reports whether b is a view into image, capacity included.
func within(b, image []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(image)))
	return p >= lo && p+uintptr(cap(b)) <= lo+uintptr(len(image))
}

// page returns blocks followed by a block index of restarts and a valid
// checksum, so only the walk of the blocks can notice what is wrong.
func page(blocks []byte, restarts []uint32) []byte {
	p := bytes.Clone(blocks)
	for _, r := range restarts {
		p = binary.LittleEndian.AppendUint32(p, r)
	}
	return withCRC(binary.LittleEndian.AppendUint32(p, uint32(len(restarts))))
}

// withCRC returns b followed by its checksum.
func withCRC(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(b), crc32.ChecksumIEEE(b))
}

// fenceOf decodes, as far as it can, the first key of a page's first
// block: the fence a writer would give the page.
func fenceOf(p []byte) []byte {
	at := 0
	for range 2 { // the block's keys length, then the key's shared length
		if _, n := binary.Uvarint(p[at:]); n > 0 {
			at += n
		}
	}
	n, ln := binary.Uvarint(p[at:])
	if ln <= 0 || n > uint64(len(p)-at-ln) {
		return nil
	}
	return p[at+ln : at+ln+int(n)]
}

// seal returns pages followed by a page index giving each its length and
// the fence fenceOf finds, and a valid footer claiming count entries, so
// only the pages can be wrong.
func seal(count uint64, pages ...[]byte) []byte {
	var file, index []byte
	for _, p := range pages {
		file = append(file, p...)
		fence := fenceOf(p)
		index = binary.AppendUvarint(index, uint64(len(fence)))
		index = append(index, fence...)
		index = binary.AppendUvarint(index, uint64(len(p)))
	}
	foot := binary.LittleEndian.AppendUint64(nil, 7) // stamp
	foot = binary.LittleEndian.AppendUint64(foot, 0) // coveredLow
	foot = binary.LittleEndian.AppendUint64(foot, count)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(len(file)))
	foot = binary.LittleEndian.AppendUint32(foot, uint32(len(pages)))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.Update(crc32.ChecksumIEEE(index), crc32.IEEETable, foot))
	return append(append(append(file, index...), foot...), formatMagic...)
}

// sealed returns one page of entries and their block index, in a file
// claiming count entries, so only the entry walk can notice what is wrong
// with entries.
func sealed(entries []byte, restarts []uint32, count uint64) []byte {
	return seal(count, page(entries, restarts))
}

// openBytes writes image as a component file in dir and opens it through
// cache, checking values with check.
func openBytes(t testing.TB, dir string, image []byte, check func([]byte) error, cache *Cache) (*diskComponent, error) {
	t.Helper()
	path := filepath.Join(dir, "component-00000001.lsm")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	return openComponent(path, check, cache)
}

// blocks returns a component file's blocks, its pages' run end to end, and
// their start offsets in that run.
func blocks(t testing.TB, image []byte) ([]byte, []uint32) {
	t.Helper()
	c, err := openBytes(t, t.TempDir(), image, nil, NewCache(CacheBytes))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	var restarts []uint32
	for pg := range c.pages {
		v := c.page(pg)
		for b := 0; b < len(v.restarts)/4; b++ {
			restarts = append(restarts, uint32(len(all)+v.restart(b)))
		}
		all = append(all, v.blocks...)
	}
	return all, restarts
}

// v04Image is a component in the LSMKFV04 layout, every key whole
// (uvarint klen ‖ key ‖ flag ‖ uvarint vlen ‖ value) and no block index,
// under a checksum that holds.
func v04Image() []byte {
	image := []byte{3, 'k', 'e', 'y', 0, 1, 'v'}
	image = binary.LittleEndian.AppendUint64(image, 7)
	image = binary.LittleEndian.AppendUint64(image, 0)
	image = binary.LittleEndian.AppendUint64(image, 1)
	image = binary.LittleEndian.AppendUint32(image, crc32.ChecksumIEEE(image))
	return append(image, "LSMKFV04"...)
}

// oldLayoutImage is one entry in the layout before the checksummed footer:
// uvarint stamp, coveredLow and count, then flag ‖ key ‖ value, then
// "LSMVALID".
func oldLayoutImage() []byte {
	return append([]byte{5, 0, 1, 0, 1, 'a', 1, 'v'}, "LSMVALID"...)
}

// flushOne flushes entries key(0..n) with values v(i) into a fresh tree and
// returns the tree and its one component file.
func flushOne(t testing.TB, n int) (*Tree, string) {
	t.Helper()
	tr := openTemp(t, Options{MemBudget: 1 << 30, Background: true})
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return tr, tr.disk[0].path
}

// TestLoadComponentRefusesDamage: a file is accepted only if its footer,
// page index, page checksums and every entry length agree with its bytes,
// and one ending in an older layout's magic is refused naming that layout.
// Each row damages a component written by a flush (one 128 KiB value beside
// small ones, so two pages) and Open must fail naming the file; the
// untouched file round-trips whole.
func TestLoadComponentRefusesDamage(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(dir, Options{Background: true})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 128<<10)
	for i := 0; i < 20; i++ {
		tr.Insert(key(i), v(i))
	}
	tr.Insert([]byte("zz-big"), big)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	path := tr.disk[0].path
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := tr2.Get([]byte("zz-big")); !ok || !bytes.Equal(got, big) {
		t.Fatalf("reloaded value: ok=%v len=%d, want len=%d", ok, len(got), len(big))
	}

	entries, restarts := blocks(t, good)
	foot := len(good) - footerLen
	flip := func(at int) []byte {
		b := bytes.Clone(good)
		b[at] ^= 0x20
		return b
	}
	moved := append([]uint32{}, restarts...)
	moved[1]++
	// The second page's fence, the last copy of its first key in the file,
	// names a key it does not start with.
	fenced := bytes.Clone(good)
	fenced[bytes.LastIndex(fenced, key(16))+len(key(16))-1]++
	if err := Reseal(fenced); err != nil {
		t.Fatal(err)
	}
	if tr.disk[0].pages[1].off == 0 {
		t.Fatal("the flush wrote one page; the rows below want the big value on a page of its own")
	}
	rows := []struct {
		name  string
		image []byte
		want  string
	}{
		{"value length past the image", sealed(append([]byte{8, 0, 3, 'k', 'e', 'y', 0, 0xe8, 0x07}, bytes.Repeat([]byte("y"), 10)...), []uint32{0}, 1), "overruns"},
		{"value cut under a rebuilt footer", sealed(entries[:len(entries)-64<<10], restarts, 21), "overruns"},
		{"truncated by one byte", good[:len(good)-1], "footer"},
		{"empty", nil, "footer"},
		{"bit flip in a value", flip(len(entries) / 2), "checksum"},
		{"bit flip in the stamp", flip(foot), "checksum"},
		{"bit flip in the magic", flip(len(good) - 1), "footer"},
		{"older layout footer", oldLayoutImage(), "older component layout (LSMVALID); drop and recreate"},
		{"keys written by width", append(bytes.Clone(good[:len(good)-8]), "LSMKFV02"...), "older component layout (LSMKFV02); drop and recreate"},
		{"composites keyed by their encoding", append(bytes.Clone(good[:len(good)-8]), "LSMKFV03"...), "older component layout (LSMKFV03); drop and recreate"},
		{"every key written whole", v04Image(), "older component layout (LSMKFV04); drop and recreate"},
		{"blocks ahead of their values, unpaged", append(bytes.Clone(good[:len(good)-8]), "LSMKFV05"...), "older component layout (LSMKFV05); drop and recreate"},
		{"bad page CRC", flip(int(tr.disk[0].pages[1].off) - 1), "page 0 checksum mismatch"},
		{"bad page index", fenced, "page 1 starts at a key other than its page index entry's"},
		{"page index past its pages", seal(0, withCRC(nil))[4:], "overruns"},
		{"count past the bytes", sealed(entries, restarts, uint64(len(entries))), "entries in"},
		{"no block index", seal(0, withCRC(nil)), "no block index"},
		{"block index past the image", seal(0, withCRC(binary.LittleEndian.AppendUint32(nil, 1<<30))), "overruns the page"},
		{"fewer blocks than the entries fill", sealed(entries, restarts[:1], 21), "1 blocks for 21 entries"},
		{"block start moved", sealed(entries, moved, 21), "block 1 starts at byte"},
		{"flag neither data nor antimatter", sealed([]byte{5, 0, 1, 'k', 2, 0}, []uint32{0}, 1), "flag"},
		{"block start shares a prefix", sealed([]byte{5, 1, 1, 'k', 0, 0}, []uint32{0}, 1), "bad prefix length"},
		{"shared past the key before", sealed([]byte{10, 0, 1, 'a', 0, 0, 2, 1, 'b', 0, 0}, []uint32{0}, 2), "bad prefix length"},
		{"keys descending", sealed([]byte{10, 0, 1, 'b', 0, 0, 0, 1, 'a', 0, 0}, []uint32{0}, 2), "not above"},
		{"key repeated", sealed([]byte{9, 0, 1, 'a', 0, 0, 1, 0, 0, 0}, []uint32{0}, 2), "not above"},
		{"shared prefix shorter than the keys share", sealed([]byte{12, 0, 2, 'a', 'b', 0, 0, 1, 2, 'b', 'c', 0, 0}, []uint32{0}, 2), "not above"},
		{"key past its block's keys", sealed([]byte{3, 0, 1, 'k', 0, 0}, []uint32{0}, 1), "overruns its block"},
		{"keys short of their length", sealed([]byte{6, 0, 1, 'k', 0, 0, 0}, []uint32{0}, 1), "keys end at byte"},
		{"keys past the image", sealed([]byte{40, 0, 1, 'k', 0, 0}, []uint32{0}, 1), "keys overrun"},
		{"bytes after the last entry", sealed(append(bytes.Clone(entries), 0), restarts, 21), "after entry"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if err := os.WriteFile(path, row.image, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir, Options{})
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("Open = %v, want an error naming %s and saying %q", err, path, row.want)
			}
		})
	}
}

// TestOpenChecksLoadedValues: Open runs Options.CheckValue on every live
// value of every component it loads, and a refused value makes the file an
// unreadable component, named and left on disk. Antimatter is not checked,
// and neither is a component the tree writes itself.
func TestOpenChecksLoadedValues(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Background: true, CheckValue: refuseFF}
	tr, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.Insert([]byte("a"), []byte("fine"))
	tr.Delete([]byte("b"))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, opts); err != nil {
		t.Fatalf("reopen with only live values the check accepts: %v", err)
	}
	tr.Insert([]byte("c"), []byte{0xFF})
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush of a value the check refuses: %v", err)
	}
	path := tr.disk[0].path
	_, err = Open(dir, opts)
	var ce *ComponentError
	if !errors.As(err, &ce) || ce.Path != path || !errors.Is(err, errRefused) {
		t.Fatalf("Open = %v, want a component error naming %s that wraps the check's", err, path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("refused component was removed: %v", err)
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatalf("reopen without a check: %v", err)
	}
}

// TestLoadComponentAllocsConstant: opening reads the footer and page index,
// then checks the pages one at a time in one buffer, so its allocations do
// not grow with the entry count.
func TestLoadComponentAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		_, path := flushOne(t, n)
		cache := NewCache(CacheBytes)
		return testing.AllocsPerRun(5, func() {
			if _, err := openComponent(path, func([]byte) error { return nil }, cache); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); small != large {
		t.Fatalf("opening allocates %v objects at 100 entries and %v at 10000", small, large)
	}
}

// TestReadsAliasImage: Get and the iterator hand out values as capped views
// into the page the cache holds, after a flush and after a reopen, never
// copies. Keys are rebuilt from their blocks, capped so an append cannot
// write into the buffer the next key is rebuilt in.
func TestReadsAliasImage(t *testing.T) {
	tr, _ := flushOne(t, 50)
	reopened, err := Open(tr.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{tr, reopened} {
		c := tr.disk[0]
		value, ok := tr.Get(key(7))
		cached := c.slots[0].Load()
		if len(c.pages) != 1 || cached == nil {
			t.Fatalf("%d pages, page 0 cached %v; want one, cached by the Get", len(c.pages), cached != nil)
		}
		page := cached.data
		if !ok || !within(value, page) || cap(value) != len(value) {
			t.Fatalf("Get value %q (cap %d) is not a capped view into the cached page", value, cap(value))
		}
		n := 0
		for it := tr.NewIterator(nil, nil); it.Next(); n++ {
			if !bytes.Equal(it.Key(), key(n)) || cap(it.Key()) != len(it.Key()) {
				t.Fatalf("iterator key %q (cap %d), want %q capped", it.Key(), cap(it.Key()), key(n))
			}
			if !within(it.Value(), page) || cap(it.Value()) != len(it.Value()) {
				t.Fatalf("iterator value of %q is not a capped view into the cached page", it.Key())
			}
		}
		if n != 50 {
			t.Fatalf("iterated %d entries, want 50", n)
		}
	}
}

// TestRemovedComponentsStayReadable: a component a merge removed, and a
// tree whose directory was removed as an index drop removes it, keep
// reading through a cache of a few pages, so pages are read from the
// unlinked files after the removal.
func TestRemovedComponentsStayReadable(t *testing.T) {
	tr := openTemp(t, Options{Background: true, Policy: NoMergePolicy{}, MemBudget: 1 << 30, Cache: NewCache(1 << 10)})
	tr.pageBytes = 256
	for round := 0; round < 3; round++ {
		for i := round; i < 300; i += 3 {
			tr.Insert(key(i), v(i))
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	inputs := slices.Clone(tr.disk)
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	for _, c := range inputs[1:] {
		if _, err := os.Stat(c.path); !os.IsNotExist(err) {
			t.Fatalf("merged-away component %s still on disk: %v", c.path, err)
		}
	}
	for i, c := range inputs {
		var got []string
		var d diskCursor
		for d.seek(c, nil, nil); ; {
			key, value, _, ok := d.next()
			if !ok {
				break
			}
			if !bytes.Equal(value, v(parseKey(t, key))) {
				t.Fatalf("input %d: key %q has value %q", i, key, value)
			}
			got = append(got, string(key))
		}
		if len(got) != 100 || got[0] != string(key(2-i)) {
			t.Fatalf("input %d read %d keys from %q after its merge, want 100 from %q", i, len(got), got[:min(1, len(got))], key(2-i))
		}
	}
	it := tr.NewIterator(nil, nil)
	for i := 0; i < 10 && it.Next(); i++ {
	}
	if err := os.RemoveAll(tr.Dir()); err != nil {
		t.Fatal(err)
	}
	n := 10
	for ; it.Next(); n++ {
		if !bytes.Equal(it.Key(), key(n)) || !bytes.Equal(it.Value(), v(n)) {
			t.Fatalf("after the directory went: entry %d is %q = %q", n, it.Key(), it.Value())
		}
	}
	if n != 300 {
		t.Fatalf("read %d entries of 300 across the directory's removal", n)
	}
	if hits := tr.opts.Cache.Stats(); hits.Evictions == 0 || hits.ResidentBytes > 1<<10 {
		t.Fatalf("cache %+v: want evictions and at most 1 KiB resident", hits)
	}
}

// parseKey returns i for the key key(i).
func parseKey(t testing.TB, k []byte) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(string(k), "key-%d", &i); err != nil {
		t.Fatal(err)
	}
	return i
}

// TestMergeKeepsAntimatterUnlessOldest: a merge that leaves the oldest
// component out must keep a tombstone (the entry it cancels is still below);
// a merge that includes the oldest component drops it.
func TestMergeKeepsAntimatterUnlessOldest(t *testing.T) {
	tr := openTemp(t, Options{Background: true, Policy: NoMergePolicy{}})
	tr.Insert([]byte("a"), []byte("1"))
	tr.Insert([]byte("b"), []byte("1"))
	tr.Flush()
	tr.Delete([]byte("a"))
	tr.Flush()
	tr.Insert([]byte("c"), []byte("1"))
	tr.Flush()
	if err := tr.mergeComponents([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, anti, ok := tr.disk[0].get([]byte("a")); tr.Components() != 2 || !ok || !anti {
		t.Fatalf("partial merge: components=%d, tombstone for a kept=%v", tr.Components(), ok && anti)
	}
	if _, ok := tr.Get([]byte("a")); ok {
		t.Fatal("deleted key visible after a partial merge")
	}
	if err := tr.Merge(); err != nil {
		t.Fatal(err)
	}
	c := tr.disk[0]
	if _, _, ok := c.get([]byte("a")); tr.Components() != 1 || ok || c.count != 2 {
		t.Fatalf("full merge: components=%d, a present=%v, entries=%d", tr.Components(), ok, c.count)
	}
}

// refuseFF is the value check FuzzComponentLoad loads with: it refuses a
// value whose first byte is 0xFF.
func refuseFF(value []byte) error {
	if len(value) > 0 && value[0] == 0xFF {
		return errRefused
	}
	return nil
}

var errRefused = errors.New("value refused")

// entry is one decoded component entry.
type entry struct {
	key, value []byte
	antimatter bool
	pg, off    int // the page the entry is on, and where its key starts in the page's blocks
}

// walkEntries decodes every entry of c in order through its cache, copying
// the keys.
func walkEntries(c *diskComponent) []entry {
	var out []entry
	var d diskCursor
	d.seek(c, nil, nil)
	for {
		if d.at.key >= len(d.v.blocks) {
			d.load(d.pg + 1)
		}
		pg, off := d.pg, d.at.key
		key, value, anti, ok := d.next()
		if !ok {
			return out
		}
		out = append(out, entry{bytes.Clone(key), value, anti, pg, off})
	}
}

// checkWithinPages fails t unless every value a cursor over c returns is a
// view into the blocks of the page it read the value from, capacity
// included.
func checkWithinPages(t *testing.T, c *diskComponent) {
	t.Helper()
	var d diskCursor
	d.seek(c, nil, nil)
	for {
		_, value, _, ok := d.next()
		if !ok {
			return
		}
		if !within(value, d.v.blocks) {
			t.Fatalf("value %q lies outside page %d's blocks", value, d.pg)
		}
	}
}

// searchAt is where a search of c for key lands: the page its fence picks
// and the entry the page's search returns there, moved to the next page's
// first entry when it is past the page's last; (len(c.pages), 0) is past
// the component's last entry.
func searchAt(c *diskComponent, key []byte) (pg, off int, equal bool) {
	if pg = max(c.locate(key), 0); pg < len(c.pages) {
		v := c.page(pg)
		p, eq := v.search(key)
		if p.key < len(v.blocks) {
			return pg, p.key, eq
		}
		if pg++; pg < len(c.pages) {
			return pg, c.page(pg).block(0).key, false
		}
	}
	return len(c.pages), 0, false
}

// checkAgainstScan fails unless search, get and a cursor seek of c agree,
// for every key of want and for probes around each, with a search of want:
// c's entries as a walk from the start decodes them.
func checkAgainstScan(t *testing.T, c *diskComponent, want []entry) {
	t.Helper()
	if c.count != len(want) {
		t.Fatalf("component counts %d entries, walk finds %d", c.count, len(want))
	}
	probes := [][]byte{nil, {}, {0}, {0xFF, 0xFF}}
	for _, e := range want {
		probes = append(probes, e.key, append(bytes.Clone(e.key), 0))
		if n := len(e.key); n > 0 {
			probes = append(probes, e.key[:n-1], append(bytes.Clone(e.key[:n-1]), e.key[n-1]+1))
		}
	}
	for _, probe := range probes {
		i := sort.Search(len(want), func(i int) bool { return bytes.Compare(want[i].key, probe) >= 0 })
		found := i < len(want) && bytes.Equal(want[i].key, probe)
		wantPg, wantOff := len(c.pages), 0
		if i < len(want) {
			wantPg, wantOff = want[i].pg, want[i].off
		}
		if pg, off, equal := searchAt(c, probe); pg != wantPg || off != wantOff || equal != found {
			t.Fatalf("search(%q) = page %d byte %d, %v; want entry %d on page %d byte %d, %v", probe, pg, off, equal, i, wantPg, wantOff, found)
		}
		value, anti, ok := c.get(probe)
		if ok != found || found && (!bytes.Equal(value, want[i].value) || anti != want[i].antimatter) {
			t.Fatalf("get(%q) = %q, %v, %v; want entry %d (found %v)", probe, value, anti, ok, i, found)
		}
		var d diskCursor
		d.seek(c, probe, nil)
		// Past the first block boundary is enough: from there on a seeked
		// cursor decodes as one from the start does.
		for j := i; j < min(len(want), i+2*restartInterval); j++ {
			key, value, anti, ok := d.next()
			if !ok || !bytes.Equal(key, want[j].key) || !bytes.Equal(value, want[j].value) || anti != want[j].antimatter {
				t.Fatalf("cursor seeked to %q: entry %d = %q %q %v %v, want %q %q %v", probe, j, key, value, anti, ok, want[j].key, want[j].value, want[j].antimatter)
			}
		}
	}
}

// fuzzMemtable builds a memtable from fuzz bytes. Each entry is a control
// byte, some key bytes and a value length byte: the key is the previous key
// less the last (control >> 3 & 7) bytes, then 24 bytes of padding if
// control has bit 6 and the key is under 256 bytes, then (control >> 1 & 3) bytes of data, so keys come in
// runs that share long prefixes, and a key may be a prefix of the next one.
// Bit 0 makes the entry antimatter.
func fuzzMemtable(data []byte) *btree.Tree {
	mem := btree.New()
	var prev []byte
	for p := 0; p < len(data); {
		ctl := data[p]
		p++
		add := min(int(ctl>>1&3), len(data)-p)
		key := bytes.Clone(prev[:max(0, len(prev)-int(ctl>>3&7))])
		if ctl&64 != 0 && len(key) < 256 {
			key = append(key, bytes.Repeat([]byte("p"), 24)...)
		}
		key = append(key, data[p:p+add]...)
		p += add
		var value []byte
		if p < len(data) {
			vlen := min(int(data[p]&15), len(data)-p-1)
			value = data[p+1 : p+1+vlen]
			p += 1 + vlen
		}
		flag := liveFlag
		if ctl&1 != 0 {
			flag = antimatterFlag
		}
		mem.Put(key, flag, value)
		prev = key
	}
	return mem
}

// fuzzPageBytes and fuzzCacheBytes size the pages the fuzz tests write and
// the cache they read through: pages of a block or two, a cache of a few
// pages, so scans evict pages they read earlier.
const fuzzPageBytes, fuzzCacheBytes = 64, 256

// FuzzComponentLoad: openComponent never panics, a file it accepts decodes
// entirely within its pages and answers search, get and seeks as a linear
// scan of its entries does, and any sorted entries a writer pages out —
// runs of keys sharing long prefixes, keys that prefix the next — load back
// unchanged. Both load with a value check too: a file whose checksums hold
// is still refused, with the check's error, exactly when one of its live
// values fails the check — antimatter carries no value to check.
func FuzzComponentLoad(f *testing.F) {
	_, path := flushOne(f, 5)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(oldLayoutImage())
	f.Add(v04Image())
	for _, cut := range []int{1, footerLen, len(good) / 2} {
		f.Add(good[:len(good)-cut])
	}
	for _, at := range []int{0, len(good) / 2, len(good) - footerLen, len(good) - 1} {
		flipped := bytes.Clone(good)
		flipped[at] ^= 0x01
		f.Add(flipped)
	}
	f.Add(bytes.Repeat([]byte{0x02, 'a', 3, 'x', 'y', 'z'}, 40))
	f.Add(bytes.Repeat([]byte{0x44, 'q', 1, 'v', 0x1b, 'r', 'r', 0}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		cache := NewCache(fuzzCacheBytes)
		// checked reopens an accepted file with the value check and checks
		// that it refuses exactly the files with a refused live value.
		checked := func(path string, entries []entry) {
			refused := false
			for _, e := range entries {
				refused = refused || (!e.antimatter && refuseFF(e.value) != nil)
			}
			if _, err := openComponent(path, refuseFF, cache); (err != nil) != refused || (refused && !errors.Is(err, errRefused)) {
				t.Fatalf("value check = %v on a file with a refused live value: %v", err, refused)
			}
		}
		if c, err := openBytes(t, dir, data, nil, cache); err == nil {
			entries := walkEntries(c)
			checkWithinPages(t, c)
			checkAgainstScan(t, c, entries)
			checked(c.path, entries)
		}
		mem := fuzzMemtable(data)
		path := filepath.Join(dir, "component-00000002.lsm")
		if _, err := writeComponentFile(path, 2, 1, 9, &memCursor{mem.Seek(nil)}, false, fuzzPageBytes, nil, cache); err != nil {
			t.Fatal(err)
		}
		c, err := openComponent(path, nil, cache)
		if err != nil {
			t.Fatal(err)
		}
		entries := walkEntries(c)
		checkWithinPages(t, c)
		want := &memCursor{mem.Seek(nil)}
		for i, e := range entries {
			wk, wv, wanti, _ := want.next()
			if !bytes.Equal(e.key, wk) || !bytes.Equal(e.value, wv) || e.antimatter != wanti {
				t.Fatalf("entry %d = %q %q %v, want %q %q %v", i, e.key, e.value, e.antimatter, wk, wv, wanti)
			}
		}
		if len(entries) != mem.Len() || c.stamp != 9 || c.coveredLow != 1 {
			t.Fatalf("loaded %d entries stamp %d covered %d, want %d, 9, 1", len(entries), c.stamp, c.coveredLow, mem.Len())
		}
		checkAgainstScan(t, c, entries)
		checked(path, entries)
	})
}

// encodeEntries writes entries, given in key order, as one component of
// small pages in a fresh directory, read through a cache of a few pages.
func encodeEntries(t testing.TB, entries []entry) *diskComponent {
	t.Helper()
	mem := btree.New()
	for _, e := range entries {
		flag := liveFlag
		if e.antimatter {
			flag = antimatterFlag
		}
		mem.Put(e.key, flag, e.value)
	}
	path := filepath.Join(t.TempDir(), "component-00000001.lsm")
	c, err := writeComponentFile(path, 1, 1, 9, &memCursor{mem.Seek(nil)}, false, fuzzPageBytes, nil, NewCache(fuzzCacheBytes))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// blockCount returns the blocks of every page of c.
func blockCount(c *diskComponent) int {
	n := 0
	for pg := range c.pages {
		n += len(c.page(pg).restarts) / 4
	}
	return n
}

// TestComponentBlocks pins the block layout at its edges, on pages of a
// block or two: components of 0, 1, 15, 16, 17 and 33 entries (the block count is the entries over 16,
// rounded up), antimatter opening a block, an empty key, and 65 535-byte
// keys that share all but their last byte. Each decodes back to its entries
// and answers search, get and seeks as a scan does.
func TestComponentBlocks(t *testing.T) {
	numbered := func(n int, anti func(i int) bool) []entry {
		var out []entry
		for i := 0; i < n; i++ {
			out = append(out, entry{key: key(i), value: v(i), antimatter: anti(i)})
		}
		return out
	}
	none := func(int) bool { return false }
	long := bytes.Repeat([]byte("z"), 65534)
	rows := []struct {
		name    string
		entries []entry
	}{
		{"empty", nil},
		{"one entry", numbered(1, none)},
		{"one short block", numbered(15, none)},
		{"one full block", numbered(16, none)},
		{"one entry past a block", numbered(17, none)},
		{"33 entries", numbered(33, none)},
		{"antimatter at block starts", numbered(33, func(i int) bool { return i%restartInterval == 0 })},
		{"empty key", []entry{{key: []byte{}, value: []byte("e")}, {key: []byte("a"), value: []byte("a")}, {key: []byte("ab")}}},
		{"65 535-byte keys", []entry{
			{key: []byte("a"), value: []byte("short")},
			{key: append(bytes.Clone(long), 'a'), value: []byte("long a")},
			{key: append(bytes.Clone(long), 'b'), value: []byte("long b"), antimatter: true},
			{key: append(bytes.Clone(long), 'b', 0), value: []byte("longer")},
			{key: []byte("{")},
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := encodeEntries(t, row.entries)
			got := walkEntries(c)
			if blocks := blockCount(c); c.count != len(row.entries) || blocks != (len(row.entries)+restartInterval-1)/restartInterval {
				t.Fatalf("%d entries in %d blocks, want %d", c.count, blocks, len(row.entries))
			}
			for i, e := range got {
				w := row.entries[i]
				if !bytes.Equal(e.key, w.key) || !bytes.Equal(e.value, w.value) || e.antimatter != w.antimatter {
					t.Fatalf("entry %d = %.20q %q %v, want %.20q %q %v", i, e.key, e.value, e.antimatter, w.key, w.value, w.antimatter)
				}
			}
			checkAgainstScan(t, c, got)
		})
	}
}

// FuzzComponentSeek: a sorted key set, split alternately over two disk
// components of one tree, each of small pages read through a cache of a
// few, answers Get for every key and probe, and an
// Iterator over [lo, hi], [lo, ∞) and (-∞, hi], exactly as sort.Search over
// the keys says. Keys are the fuzz bytes split at each 0, each piece of odd
// length also followed by a 0, so some keys prefix others.
func FuzzComponentSeek(f *testing.F) {
	f.Add([]byte("apple\x00applesauce\x00apply\x00b\x00ba\x00"), []byte("app"), []byte("apply"))
	f.Add(bytes.Repeat([]byte("prefix-shared-by-every-key-\x01\x00"), 40), []byte("prefix"), []byte("prefix-shared-by-every-key-\x01"))
	f.Add([]byte("\x00a\x00aa\x00aaa\x00aaaa\x00aaaaa\x00aaaaaa\x00"), []byte{}, []byte("aaa\x00"))
	f.Fuzz(func(t *testing.T, data, lo, hi []byte) {
		set := map[string]bool{}
		for _, k := range bytes.Split(data, []byte{0}) {
			set[string(k)] = true
			if len(k)%2 == 1 {
				set[string(k)+"\x00"] = true
			}
		}
		keys := slices.Sorted(maps.Keys(set))
		var halves [2][]entry
		for i, k := range keys {
			halves[i%2] = append(halves[i%2], entry{key: []byte(k), value: []byte("v" + k)})
		}
		tr := &Tree{mem: btree.New()}
		for _, half := range halves {
			tr.disk = append(tr.disk, encodeEntries(t, half))
		}
		probes := [][]byte{lo, hi}
		for _, k := range keys {
			probes = append(probes, []byte(k), []byte(k+"\x00"), []byte(k+"\xff"))
		}
		for _, p := range probes {
			i := sort.SearchStrings(keys, string(p))
			found := i < len(keys) && keys[i] == string(p)
			if value, ok := tr.Get(p); ok != found || found && string(value) != "v"+keys[i] {
				t.Fatalf("Get(%q) = %q, %v; want found %v", p, value, ok, found)
			}
		}
		check := func(lo, hi []byte) {
			from, to := 0, len(keys)
			if lo != nil {
				from = sort.SearchStrings(keys, string(lo))
			}
			if hi != nil {
				to = sort.Search(len(keys), func(i int) bool { return keys[i] > string(hi) })
			}
			var got []string
			for it := tr.NewIterator(lo, hi); it.Next(); {
				if string(it.Value()) != "v"+string(it.Key()) {
					t.Fatalf("[%q, %q]: key %q has value %q", lo, hi, it.Key(), it.Value())
				}
				got = append(got, string(it.Key()))
			}
			if want := keys[from:max(from, to)]; !slices.Equal(got, want) {
				t.Fatalf("[%q, %q] yields %q, want %q", lo, hi, got, want)
			}
		}
		check(lo, hi)
		check(lo, nil)
		check(nil, hi)
	})
}
