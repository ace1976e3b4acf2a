package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
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

// sealed returns body followed by a valid footer claiming count entries, so
// only the entry walk can notice what is wrong with body.
func sealed(body []byte, count uint64) []byte {
	image := append([]byte(nil), body...)
	image = binary.LittleEndian.AppendUint64(image, 7) // stamp
	image = binary.LittleEndian.AppendUint64(image, 0) // coveredLow
	image = binary.LittleEndian.AppendUint64(image, count)
	image = binary.LittleEndian.AppendUint32(image, crc32.ChecksumIEEE(image))
	return append(image, formatMagic...)
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

// TestLoadComponentRefusesDamage: an image is accepted only if its footer,
// checksum and every entry length agree with its bytes, and one ending in an
// older layout's magic is refused naming that layout. Each row damages a
// component written by a flush (one 128 KiB value beside small ones) and
// Open must fail naming the file; the untouched image round-trips whole.
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

	body := good[:len(good)-footerLen]
	flip := func(at int) []byte {
		b := bytes.Clone(good)
		b[at] ^= 0x20
		return b
	}
	rows := []struct {
		name  string
		image []byte
		want  string
	}{
		{"value length past the image", sealed(append([]byte{3, 'k', 'e', 'y', 0, 0xe8, 0x07}, bytes.Repeat([]byte("y"), 10)...), 1), "overruns"},
		{"value cut under a rebuilt footer", sealed(body[:len(body)-64<<10], 21), "overruns"},
		{"truncated by one byte", good[:len(good)-1], "footer"},
		{"empty", nil, "footer"},
		{"bit flip in a value", flip(len(body) / 2), "checksum"},
		{"bit flip in the stamp", flip(len(body)), "checksum"},
		{"bit flip in the magic", flip(len(good) - 1), "footer"},
		{"older layout footer", oldLayoutImage(), "older component layout (LSMVALID); drop and recreate"},
		{"keys written by width", append(bytes.Clone(good[:len(good)-8]), "LSMKFV02"...), "older component layout (LSMKFV02); drop and recreate"},
		{"composites keyed by their encoding", append(bytes.Clone(good[:len(good)-8]), "LSMKFV03"...), "older component layout (LSMKFV03); drop and recreate"},
		{"count past the bytes", sealed(body, uint64(len(body))), "entries in"},
		{"flag neither data nor antimatter", sealed([]byte{1, 'k', 2, 0}, 1), "flag"},
		{"bytes after the last entry", sealed(append(bytes.Clone(body), 0), 21), "after entry"},
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

// TestLoadComponentAllocsConstant: loading reads the file, indexes it in
// place and checks its values, so its allocations do not grow with the
// entry count.
func TestLoadComponentAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		_, path := flushOne(t, n)
		return testing.AllocsPerRun(5, func() {
			if _, err := loadComponent(path, func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); small != large {
		t.Fatalf("loading allocates %v objects at 100 entries and %v at 10000", small, large)
	}
}

// TestReadsAliasImage: Get and the iterator hand out capped views into the
// component image, after a flush and after a reopen, never copies.
func TestReadsAliasImage(t *testing.T) {
	tr, _ := flushOne(t, 50)
	reopened, err := Open(tr.dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{tr, reopened} {
		image := tr.disk[0].image
		value, ok := tr.Get(key(7))
		if !ok || !within(value, image) || cap(value) != len(value) {
			t.Fatalf("Get value %q (cap %d) is not a capped view into the image", value, cap(value))
		}
		n := 0
		for it := tr.NewIterator(nil, nil); it.Next(); n++ {
			if !within(it.Key(), image) || !within(it.Value(), image) || cap(it.Value()) != len(it.Value()) {
				t.Fatalf("iterator entry %q is not a capped view into the image", it.Key())
			}
		}
		if n != 50 {
			t.Fatalf("iterated %d entries, want 50", n)
		}
	}
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
	if _, _, ok := c.get([]byte("a")); tr.Components() != 1 || ok || len(c.keys) != 2 {
		t.Fatalf("full merge: components=%d, a present=%v, entries=%d", tr.Components(), ok, len(c.keys))
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

// FuzzComponentLoad: openImage never panics, an image it accepts decodes
// entirely within itself, and any sorted entries written by encodeImage load
// back unchanged. Both load with a value check: an image whose checksum
// holds is still refused, with the check's error, exactly when one of its
// live values fails the check — antimatter carries no value to check.
func FuzzComponentLoad(f *testing.F) {
	_, path := flushOne(f, 5)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(oldLayoutImage())
	for _, cut := range []int{1, footerLen, len(good) / 2} {
		f.Add(good[:len(good)-cut])
	}
	for _, at := range []int{0, len(good) / 2, len(good) - footerLen, len(good) - 1} {
		flipped := bytes.Clone(good)
		flipped[at] ^= 0x01
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// checked runs the value check on an image openImage accepted and
		// checks that it refuses exactly the images with a refused live value.
		checked := func(c *diskComponent) {
			refused := false
			for i := 0; i < len(c.keys); i++ {
				_, value, anti := c.entry(i)
				refused = refused || (!anti && refuseFF(value) != nil)
			}
			if err := c.checkValues(refuseFF); (err != nil) != refused || (refused && !errors.Is(err, errRefused)) {
				t.Fatalf("value check = %v on an image with a refused live value: %v", err, refused)
			}
		}
		if c, err := openImage(1, "fuzz", data); err == nil {
			for i := 0; i < len(c.keys); i++ {
				key, value, _ := c.entry(i)
				if !within(key, data) || !within(value, data) {
					t.Fatalf("entry %d decodes outside the image", i)
				}
			}
			checked(c)
		}
		// Entries from data: a control byte (key length, antimatter bit), the
		// key, a value length byte, the value.
		mem := btree.New()
		for p := 0; p+2 <= len(data); {
			klen, anti := int(data[p]&7), data[p]&8 != 0
			p++
			if p+klen+1 > len(data) {
				break
			}
			key := data[p : p+klen]
			p += klen
			vlen := min(int(data[p]&15), len(data)-p-1)
			flag := liveFlag
			if anti {
				flag = antimatterFlag
			}
			mem.Put(key, flag, data[p+1:p+1+vlen])
			p += 1 + vlen
		}
		c, err := openImage(1, "fuzz", encodeImage(1, 9, &memCursor{mem.Seek(nil)}, false, 0))
		if err != nil {
			t.Fatal(err)
		}
		want := &memCursor{mem.Seek(nil)}
		for i := 0; i < len(c.keys); i++ {
			k, val, anti := c.entry(i)
			wk, wv, wanti, _ := want.next()
			if !bytes.Equal(k, wk) || !bytes.Equal(val, wv) || anti != wanti {
				t.Fatalf("entry %d = %q %q %v, want %q %q %v", i, k, val, anti, wk, wv, wanti)
			}
		}
		if len(c.keys) != mem.Len() || c.stamp != 9 || c.coveredLow != 1 {
			t.Fatalf("loaded %d entries stamp %d covered %d, want %d, 9, 1", len(c.keys), c.stamp, c.coveredLow, mem.Len())
		}
		checked(c)
	})
}
