package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"asterixdb/internal/fsutil"
)

// formatMagic ends every component file and names its layout (see the
// package comment). LSMKFV06 writes pages of whole blocks, each with its own
// checksum, behind a page index; LSMKFV05 wrote the same blocks behind one
// block index and one checksum over the whole file, which a reader had to
// hold whole; LSMKFV04 wrote every key whole beside its value. An 02 image
// holds numbers keyed by width and an 03 image durations, intervals,
// spatial values, records and lists keyed by their self-describing bytes,
// keys no probe would find. Files ending in an older magic are refused by
// name rather than converted.
var (
	formatMagic     = []byte("LSMKFV06")
	oldFormatMagics = [][]byte{[]byte("LSMKFV05"), []byte("LSMKFV04"), []byte("LSMKFV03"), []byte("LSMKFV02"), []byte("LSMVALID")}
)

const (
	// footerLen is the fixed footer size: stamp, coveredLow, entry count,
	// page index offset, page count, CRC, magic.
	footerLen = 8 + 8 + 8 + 8 + 4 + 4 + 8
	// pageTrailerLen is the block count and CRC that end every page.
	pageTrailerLen = 4 + 4
	// restartInterval is the entries per block. A search walks at most
	// restartInterval-1 keys past the block start it binary-searched to.
	restartInterval = 16
	// pageBytes is the size a writer fills a page up to: a page holds whole
	// blocks, so one block larger than this is a page by itself.
	pageBytes = 16 << 10
)

// diskComponent is an immutable, sorted run of entries, one per key, in its
// file. It keeps resident only its footer's fields, its page index, its open
// file and, once a Get has reached it, a bloom filter over its keys that is
// never written to the file; pages are read through the cache. The file is
// closed when the component is unreachable, so a component a merge or an
// index drop removed stays readable to whoever still holds it.
type diskComponent struct {
	id int
	// coveredLow is the lowest component id this component supersedes: its
	// own id for a flushed component, the oldest input's id for a merged
	// one. Recovery deletes any component whose id falls inside another's
	// [coveredLow, id] range — the residue of a crash after a merge rename
	// but before input cleanup.
	coveredLow int
	// stamp is the LSN watermark: all operations with LSN < stamp are
	// reflected in this component or an older one.
	stamp uint64
	path  string
	size  int64 // the file's bytes
	count int
	pages []pageRef
	file  *os.File
	cache *Cache
	// slots hold the component's pages the cache holds, one per page.
	slots  []atomic.Pointer[cachedPage]
	filter filter // every key, antimatter included; nil until the first Get
}

// pageRef is a page index entry: where the page lies in the file and its
// first key, its fence.
type pageRef struct {
	off   int64
	len   int
	first []byte
}

// ReadError is the panic of a read that finds a page it cannot use: a page
// that Open checked, or that this process wrote, no longer reads back
// whole. Reads through Get and iterators return no error, so a failing disk
// stops the process rather than answer from what it returned. A caller that
// recovers panics, as net/http does for its handlers, must stop the process
// on this one.
type ReadError struct {
	Path string
	Err  error
}

func (e *ReadError) Error() string { return fmt.Sprintf("lsm: read %s: %v", e.Path, e.Err) }

func (e *ReadError) Unwrap() error { return e.Err }

// ----------------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------------

// pageWriter streams entries, given in key order, into a component file a
// page at a time: it holds the block and the page it is building and the
// page index, never the file.
type pageWriter struct {
	out   io.Writer
	limit int // pageBytes, or less in tests
	off   int64
	// page is the blocks of the page being built and restarts their start
	// offsets; keys and values are the block being built, n entries.
	page, restarts []byte
	keys, values   []byte
	n              int
	prev           []byte // the last key added
	count          uint64
	index          []byte
	pages          int
	err            error
}

// add appends one entry.
func (w *pageWriter) add(key, value []byte, antimatter bool) {
	if w.n == restartInterval {
		w.endBlock()
	}
	shared := 0
	if w.n > 0 {
		shared = commonPrefix(w.prev, key)
	}
	flag := byte(0)
	if antimatter {
		flag = 1
	}
	w.keys = binary.AppendUvarint(w.keys, uint64(shared))
	w.keys = binary.AppendUvarint(w.keys, uint64(len(key)-shared))
	w.keys = append(append(w.keys, key[shared:]...), flag)
	w.keys = binary.AppendUvarint(w.keys, uint64(len(value)))
	// The value is copied now: a merge input's value views a page buffer
	// its cursor reuses two pages on.
	w.values = append(w.values, value...)
	w.prev = append(w.prev[:shared], key[shared:]...)
	w.n++
	w.count++
}

// endBlock moves the block being built into the page, after ending the page
// if the block would take it past the limit.
func (w *pageWriter) endBlock() {
	size := uvarintLen(len(w.keys)) + len(w.keys) + len(w.values)
	if len(w.page) > 0 && len(w.page)+size+len(w.restarts)+4+pageTrailerLen > w.limit {
		w.endPage()
	}
	if len(w.page) == 0 {
		// The block opens a page: its first key, stored whole, is the
		// page's fence in the index.
		_, at := uvarint(w.keys, 0)
		n, at := uvarint(w.keys, at)
		w.index = binary.AppendUvarint(w.index, n)
		w.index = append(w.index, w.keys[at:at+int(n)]...)
	}
	w.restarts = binary.LittleEndian.AppendUint32(w.restarts, uint32(len(w.page)))
	w.page = binary.AppendUvarint(w.page, uint64(len(w.keys)))
	w.page = append(append(w.page, w.keys...), w.values...)
	w.keys, w.values, w.n = w.keys[:0], w.values[:0], 0
}

// endPage seals the page being built and writes it.
func (w *pageWriter) endPage() {
	if len(w.page) == 0 {
		return
	}
	page := append(w.page, w.restarts...)
	page = binary.LittleEndian.AppendUint32(page, uint32(len(w.restarts)/4))
	page = binary.LittleEndian.AppendUint32(page, crc32.ChecksumIEEE(page))
	w.index = binary.AppendUvarint(w.index, uint64(len(page)))
	if w.err == nil {
		_, w.err = w.out.Write(page)
	}
	w.off += int64(len(page))
	w.pages++
	w.page, w.restarts = page[:0], w.restarts[:0]
}

// finish writes the last block and page, the page index and the footer.
func (w *pageWriter) finish(coveredLow int, stamp uint64) {
	if w.n > 0 {
		w.endBlock()
	}
	w.endPage()
	foot := make([]byte, 0, footerLen)
	foot = binary.LittleEndian.AppendUint64(foot, stamp)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(coveredLow))
	foot = binary.LittleEndian.AppendUint64(foot, w.count)
	foot = binary.LittleEndian.AppendUint64(foot, uint64(w.off))
	foot = binary.LittleEndian.AppendUint32(foot, uint32(w.pages))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.Update(crc32.ChecksumIEEE(w.index), crc32.IEEETable, foot))
	foot = append(foot, formatMagic...)
	for _, b := range [][]byte{w.index, foot} {
		if w.err == nil {
			_, w.err = w.out.Write(b)
		}
	}
}

// writeAll writes the entries src yields, leaving antimatter out when
// dropAntimatter is set, then the page index and the footer.
func (w *pageWriter) writeAll(src cursor, dropAntimatter bool, coveredLow int, stamp uint64) {
	for {
		key, value, antimatter, ok := src.next()
		if !ok {
			break
		}
		if !(antimatter && dropAntimatter) {
			w.add(key, value, antimatter)
		}
	}
	w.finish(coveredLow, stamp)
}

// writeComponentFile writes the entries src yields, leaving antimatter out
// when dropAntimatter is set, as component id at path via a temp file,
// fsync and rename, filling pages up to limit bytes. Once src is drained,
// srcErr (when set) says whether it ended early; the file is then not
// written. It returns the component reading the file through cache.
func writeComponentFile(path string, id, coveredLow int, stamp uint64, src cursor, dropAntimatter bool, limit int, srcErr func() error, cache *Cache) (*diskComponent, error) {
	out, err := fsutil.CreateAtomic(path, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: write component: %w", err)
	}
	w := &pageWriter{out: out, limit: limit}
	w.writeAll(src, dropAntimatter, coveredLow, stamp)
	if srcErr != nil {
		if err := srcErr(); err != nil {
			out.Abort()
			return nil, err
		}
	}
	if w.err != nil {
		out.Abort()
		return nil, fmt.Errorf("lsm: write component: %w", w.err)
	}
	if err := out.Commit(); err != nil {
		return nil, fmt.Errorf("lsm: write component: %w", err)
	}
	c := &diskComponent{
		id: id, coveredLow: coveredLow, stamp: stamp, path: path,
		size: w.off + int64(len(w.index)) + footerLen, count: int(w.count),
	}
	// The index is the writer's own, so it parses.
	if c.pages, err = parseIndex(bytes.Clone(w.index), w.pages, w.off); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: write component: %w", err)
	}
	c.attach(f, cache)
	return c, nil
}

// uvarintLen returns the bytes binary.AppendUvarint writes for n.
func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// attach gives a component its open file and cache. The file is closed,
// and its cached pages dropped, once the component is unreachable.
func (c *diskComponent) attach(f *os.File, cache *Cache) {
	c.file, c.cache, c.slots = f, cache, make([]atomic.Pointer[cachedPage], len(c.pages))
	type release struct {
		f     *os.File
		cache *Cache
		slots []atomic.Pointer[cachedPage]
	}
	runtime.AddCleanup(c, func(r release) {
		r.f.Close()
		r.cache.drop(r.slots)
	}, release{f, cache, c.slots})
}

// ----------------------------------------------------------------------------
// Opening
// ----------------------------------------------------------------------------

// openComponent opens a component file, checks its footer and page index,
// and walks it once, a page at a time (see walk), running check on each of
// its non-antimatter values when check is set.
func openComponent(path string, check func([]byte) error, cache *Cache) (*diskComponent, error) {
	id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "component-"), ".lsm"))
	if err != nil {
		return nil, fmt.Errorf("lsm: component file name without an id: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c, err := frame(id, path, f)
	if err == nil {
		err = c.walk(check)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	c.attach(f, cache)
	return c, nil
}

// frame reads a component file's footer and page index and checks their
// magic, checksum and bounds, and that the pages the index lists tile the
// file up to the index. It reads no page.
func frame(id int, path string, f *os.File) (*diskComponent, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	tail := make([]byte, min(size, footerLen))
	if _, err := f.ReadAt(tail, size-int64(len(tail))); err != nil {
		return nil, err
	}
	for _, old := range oldFormatMagics {
		if bytes.HasSuffix(tail, old) {
			return nil, fmt.Errorf("lsm: written by an older component layout (%s); drop and recreate the dataset or index", old)
		}
	}
	if len(tail) < footerLen || !bytes.HasSuffix(tail, formatMagic) {
		return nil, fmt.Errorf("lsm: no component footer")
	}
	stamp := binary.LittleEndian.Uint64(tail)
	coveredLow := binary.LittleEndian.Uint64(tail[8:])
	count := binary.LittleEndian.Uint64(tail[16:])
	indexOff := binary.LittleEndian.Uint64(tail[24:])
	pages := binary.LittleEndian.Uint32(tail[32:])
	if indexOff > uint64(size-footerLen) {
		return nil, fmt.Errorf("lsm: page index at byte %d overruns the file", indexOff)
	}
	index := make([]byte, size-footerLen-int64(indexOff))
	if _, err := f.ReadAt(index, int64(indexOff)); err != nil {
		return nil, err
	}
	sum := crc32.Update(crc32.ChecksumIEEE(index), crc32.IEEETable, tail[:footerLen-12])
	if want := binary.LittleEndian.Uint32(tail[36:]); sum != want {
		return nil, fmt.Errorf("lsm: checksum mismatch (stored %08x, computed %08x)", want, sum)
	}
	if id < 0 || coveredLow > uint64(id) {
		return nil, fmt.Errorf("lsm: covered id %d outside component id %d", coveredLow, id)
	}
	// Every entry takes at least four bytes (three lengths and a flag).
	if count > indexOff/4 {
		return nil, fmt.Errorf("lsm: %d entries in %d bytes", count, indexOff)
	}
	c := &diskComponent{id: id, coveredLow: int(coveredLow), stamp: stamp, path: path, size: size, count: int(count), file: f}
	if c.pages, err = parseIndex(index, int(pages), int64(indexOff)); err != nil {
		return nil, err
	}
	return c, nil
}

// parseIndex decodes a page index of pages entries — uvarint fence length,
// fence, uvarint page length — whose pages end at byte end. The fences view
// index.
func parseIndex(index []byte, pages int, end int64) ([]pageRef, error) {
	// An entry takes at least two bytes: an empty fence's length and the
	// page's length.
	if pages > len(index)/2 {
		return nil, fmt.Errorf("lsm: page index of %d pages in %d bytes", pages, len(index))
	}
	refs := make([]pageRef, pages)
	var off int64
	at := 0
	for i := range refs {
		n, fn := binary.Uvarint(index[at:])
		if fn <= 0 || n > uint64(len(index)-at-fn) {
			return nil, fmt.Errorf("lsm: page index entry %d overruns the index", i)
		}
		fence := index[at+fn : at+fn+int(n) : at+fn+int(n)]
		at += fn + int(n)
		plen, ln := binary.Uvarint(index[at:])
		if ln <= 0 || plen > uint64(end-off) {
			return nil, fmt.Errorf("lsm: page %d overruns the pages before the index", i)
		}
		at += ln
		refs[i] = pageRef{off: off, len: int(plen), first: fence}
		off += int64(plen)
	}
	if at != len(index) || off != end {
		return nil, fmt.Errorf("lsm: page index covers %d of %d page bytes and %d of its %d bytes", off, end, at, len(index))
	}
	return refs, nil
}

// walk reads every page in order, one in memory at a time, and checks it:
// its checksum and block index, its first key against its page index entry,
// and its blocks. A block starts where the page's block index says, its
// keys fill exactly the bytes its header gives them, and its values exactly
// the bytes their lengths add up to, before the next block. Each flag is 0
// or 1, and each key is above the one before it and shares with it exactly
// the prefix its entry claims, so search may conclude from shared lengths
// alone. Every block but the component's last holds restartInterval
// entries. With check set, each live value must pass it.
func (c *diskComponent) walk(check func([]byte) error) error {
	longest := 0
	for _, r := range c.pages {
		longest = max(longest, r.len)
	}
	buf := make([]byte, longest)
	want := (c.count + restartInterval - 1) / restartInterval
	var prev []byte
	i, blocks := 0, 0
	for pg := range c.pages {
		page, err := c.readPage(pg, buf)
		if err != nil {
			return err
		}
		v := viewPage(page)
		body, nb := v.blocks, len(v.restarts)/4
		if nb == 0 || blocks+nb > want || pg == len(c.pages)-1 && blocks+nb != want {
			return fmt.Errorf("lsm: %d blocks for %d entries, want %d", blocks+nb, c.count, want)
		}
		pos := 0
		for b := 0; b < nb; b, blocks = b+1, blocks+1 {
			if v.restart(b) != pos {
				return fmt.Errorf("lsm: block %d starts at byte %d, not at its indexed %d", blocks, pos, v.restart(b))
			}
			klen, n := binary.Uvarint(body[pos:])
			if n <= 0 || klen > uint64(len(body)-pos-n) {
				return fmt.Errorf("lsm: block %d keys overrun the page at byte %d", blocks, pos)
			}
			p, keysEnd := pos+n, pos+n+int(klen)
			keys := body[:keysEnd]
			value := keysEnd
			for end := min(i+restartInterval, c.count); i < end; i++ {
				shared, sn := binary.Uvarint(keys[p:])
				if sn <= 0 || shared > uint64(len(prev)) || i%restartInterval == 0 && shared != 0 {
					return fmt.Errorf("lsm: entry %d shares a bad prefix length at byte %d", i, p)
				}
				slen, ln := binary.Uvarint(keys[p+sn:])
				at := p + sn + ln
				// The suffix must leave room for the flag.
				if ln <= 0 || slen >= uint64(len(keys)-at) {
					return fmt.Errorf("lsm: entry %d key overruns its block at byte %d", i, p)
				}
				suffix, flag := keys[at:at+int(slen)], at+int(slen)
				if keys[flag] > 1 {
					return fmt.Errorf("lsm: entry %d has flag %d", i, keys[flag])
				}
				vlen, vn := binary.Uvarint(keys[flag+1:])
				if vn <= 0 || vlen > uint64(len(body)-value) {
					return fmt.Errorf("lsm: entry %d value overruns the page at byte %d", i, flag+1)
				}
				if i > 0 {
					var ascends bool
					switch {
					case i%restartInterval == 0:
						ascends = bytes.Compare(suffix, prev) > 0
					case int(shared) < len(prev):
						ascends = len(suffix) > 0 && suffix[0] > prev[shared]
					default:
						ascends = len(suffix) > 0
					}
					if !ascends {
						return fmt.Errorf("lsm: entry %d key is not above the key before it", i)
					}
				}
				if b == 0 && p == pos+n && !bytes.Equal(suffix, c.pages[pg].first) {
					return fmt.Errorf("lsm: page %d starts at a key other than its page index entry's", pg)
				}
				if check != nil && keys[flag] == 0 {
					if err := check(body[value : value+int(vlen)]); err != nil {
						return fmt.Errorf("lsm: entry %d value: %w", i, err)
					}
				}
				prev = append(prev[:shared], suffix...)
				p, value = flag+1+vn, value+int(vlen)
			}
			if p != keysEnd {
				return fmt.Errorf("lsm: block %d keys end at byte %d, not at %d", blocks, p, keysEnd)
			}
			pos = value
		}
		if pos != len(body) {
			return fmt.Errorf("lsm: %d bytes after entry %d", len(body)-pos, i)
		}
	}
	if blocks != want {
		return fmt.Errorf("lsm: %d blocks for %d entries, want %d", blocks, c.count, want)
	}
	return nil
}

// Reseal recomputes every checksum of a component file's bytes in place —
// each page's and the footer's — over the bytes as they are now.
// Fault-injection harnesses use it to plant damage the checksums cannot see.
func Reseal(image []byte) error {
	n := len(image)
	if n < footerLen || !bytes.HasSuffix(image, formatMagic) {
		return fmt.Errorf("lsm: no component footer")
	}
	foot := image[n-footerLen:]
	indexOff := binary.LittleEndian.Uint64(foot[24:])
	if indexOff > uint64(n-footerLen) {
		return fmt.Errorf("lsm: page index at byte %d overruns the file", indexOff)
	}
	index := image[indexOff : n-footerLen]
	refs, err := parseIndex(index, int(binary.LittleEndian.Uint32(foot[32:])), int64(indexOff))
	if err != nil {
		return err
	}
	for _, r := range refs {
		if page := image[r.off : r.off+int64(r.len)]; len(page) >= 4 {
			binary.LittleEndian.PutUint32(page[len(page)-4:], crc32.ChecksumIEEE(page[:len(page)-4]))
		}
	}
	binary.LittleEndian.PutUint32(foot[36:], crc32.Update(crc32.ChecksumIEEE(index), crc32.IEEETable, foot[:36]))
	return nil
}

// ----------------------------------------------------------------------------
// Reading
// ----------------------------------------------------------------------------

// readPage reads page pg into buf, grown if short, and checks its checksum
// and block index.
func (c *diskComponent) readPage(pg int, buf []byte) ([]byte, error) {
	r := c.pages[pg]
	if cap(buf) < r.len {
		buf = make([]byte, r.len)
	}
	buf = buf[:r.len]
	if _, err := c.file.ReadAt(buf, r.off); err != nil {
		return nil, fmt.Errorf("lsm: page %d: %w", pg, err)
	}
	if len(buf) < pageTrailerLen {
		return nil, fmt.Errorf("lsm: page %d has no block index", pg)
	}
	sum, want := crc32.ChecksumIEEE(buf[:len(buf)-4]), binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if sum != want {
		return nil, fmt.Errorf("lsm: page %d checksum mismatch (stored %08x, computed %08x)", pg, want, sum)
	}
	if blocks := binary.LittleEndian.Uint32(buf[len(buf)-8:]); uint64(blocks)*4 > uint64(len(buf)-pageTrailerLen) {
		return nil, fmt.Errorf("lsm: page %d block index of %d blocks overruns the page", pg, blocks)
	}
	return buf, nil
}

// page returns page pg through the cache. A page that no longer reads back
// whole panics with a *ReadError.
func (c *diskComponent) page(pg int) pageView {
	if p := c.slots[pg].Load(); p != nil {
		return viewPage(c.cache.hit(p))
	}
	b, err := c.readPage(pg, nil)
	if err != nil {
		panic(&ReadError{Path: c.path, Err: err})
	}
	return viewPage(c.cache.put(&c.slots[pg], b))
}

// pageStream reads a component's pages past the cache into two buffers in
// turn, so the entry a cursor returned from one page stays whole while the
// next page is read. A merge's inputs and a filter build read through one;
// the first error ends the stream.
type pageStream struct {
	bufs [2][]byte
	turn int
	err  error
}

func (s *pageStream) read(c *diskComponent, pg int) ([]byte, bool) {
	s.turn ^= 1
	b, err := c.readPage(pg, s.bufs[s.turn])
	if err != nil {
		s.err = fmt.Errorf("%s: %w", c.path, err)
		return nil, false
	}
	s.bufs[s.turn] = b
	return b, true
}

// locate returns the page that holds key if any does: the last page whose
// first key is at most key, or -1 when key sorts before the first page.
func (c *diskComponent) locate(key []byte) int {
	return sort.Search(len(c.pages), func(i int) bool { return bytes.Compare(c.pages[i].first, key) > 0 }) - 1
}

func (c *diskComponent) get(key []byte) (value []byte, antimatter, ok bool) {
	pg := c.locate(key)
	if pg < 0 {
		return nil, false, false
	}
	v := c.page(pg)
	p, equal := v.search(key)
	if !equal {
		return nil, false, false
	}
	_, _, antimatter, value, _ = v.step(p)
	return value, antimatter, true
}

// buildFilter returns a filter over every key of the component, streaming
// its pages past the cache.
func (c *diskComponent) buildFilter() filter {
	f := newFilter(uint64(c.count))
	d := diskCursor{stream: &pageStream{}}
	d.seek(c, nil, nil)
	for {
		key, _, _, ok := d.next()
		if !ok {
			break
		}
		f.add(keyHash(key))
	}
	if err := d.stream.err; err != nil {
		panic(&ReadError{Path: c.path, Err: err})
	}
	return f
}

// pageView is a checked page: its blocks, and their start offsets.
type pageView struct{ blocks, restarts []byte }

// viewPage splits a page readPage checked.
func viewPage(page []byte) pageView {
	n := len(page) - pageTrailerLen
	end := n - 4*int(binary.LittleEndian.Uint32(page[n:]))
	return pageView{blocks: page[:end:end], restarts: page[end:n:n]}
}

// restart returns the offset of block b.
func (v pageView) restart(b int) int {
	return int(binary.LittleEndian.Uint32(v.restarts[4*b:]))
}

// uvarint decodes the varint at b[off:], which walk or a writer has
// checked, and returns it with the offset after it.
func uvarint(b []byte, off int) (uint64, int) {
	if x := b[off]; x < 0x80 {
		return uint64(x), off + 1
	}
	v, n := binary.Uvarint(b[off:])
	return v, off + n
}

// pos is an entry's place in a page: where its key and its value start, and
// where the keys of its block end and the block's values begin. A pos whose
// key is at the end of the page's blocks is past its last entry.
type pos struct{ key, value, keysEnd int }

// block returns the pos of the first entry of the block at off, or the end
// pos at the end of the page's blocks.
func (v pageView) block(off int) pos {
	if off >= len(v.blocks) {
		return pos{key: len(v.blocks)}
	}
	klen, key := uint64(v.blocks[off]), off+1
	if klen >= 0x80 {
		klen, key = uvarint(v.blocks, off)
	}
	return pos{key: key, value: key + int(klen), keysEnd: key + int(klen)}
}

// keyAt decodes the key of the entry at p: how much of the previous key it
// shares, the rest of it, its flag's offset, its value's length, and where
// the next key of the block starts.
func (v pageView) keyAt(p pos) (shared int, suffix []byte, flag, vlen, next int) {
	b, off := v.blocks, p.key
	s := uint64(b[off])
	if s < 0x80 {
		off++
	} else {
		s, off = uvarint(b, off)
	}
	n := uint64(b[off])
	if n < 0x80 {
		off++
	} else {
		n, off = uvarint(b, off)
	}
	flag = off + int(n)
	l := uint64(b[flag+1])
	if next = flag + 2; l >= 0x80 {
		l, next = uvarint(b, flag+1)
	}
	return int(s), b[off:flag:flag], flag, int(l), next
}

// step decodes the entry at p and returns it with the pos of the entry
// after it in the page.
func (v pageView) step(p pos) (shared int, suffix []byte, antimatter bool, value []byte, after pos) {
	shared, suffix, flag, vlen, next := v.keyAt(p)
	end := p.value + vlen
	if after = (pos{next, end, p.keysEnd}); next == p.keysEnd {
		// The block's last value ends where the next block starts.
		after = v.block(end)
	}
	return shared, suffix, v.blocks[flag] == 1, v.blocks[p.value:end:end], after
}

// search returns the pos of the first entry of the page whose key is >= key
// (the end pos if there is none) and whether that key equals key. It
// binary-searches the blocks' first keys and walks the keys of one block,
// comparing only the bytes after the prefix the key so far matched: an
// entry that shares less than that with its predecessor is greater than
// key, one that shares more is still less. The entry it returns therefore
// shares with its predecessor only a prefix of key.
func (v pageView) search(key []byte) (p pos, equal bool) {
	blocks := len(v.restarts) / 4
	b := sort.Search(blocks, func(b int) bool {
		_, first, _, _, _ := v.keyAt(v.block(v.restart(b)))
		return bytes.Compare(first, key) > 0
	}) - 1
	if b < 0 {
		return v.block(0), false
	}
	// matched is how much of key the key before p matches; that key is
	// below key, and a block's first key shares nothing with a predecessor.
	matched := 0
	for p = v.block(v.restart(b)); p.key < p.keysEnd; {
		shared, suffix, _, vlen, next := v.keyAt(p)
		if shared < matched {
			return p, false
		}
		if shared == matched {
			rest := key[matched:]
			l := commonPrefix(suffix, rest)
			switch {
			case l == len(suffix) && l == len(rest):
				return p, true
			case l == len(rest) || l < len(suffix) && suffix[l] > rest[l]:
				return p, false
			}
			matched += l
		}
		p.key, p.value = next, p.value+vlen
	}
	// Every key of block b is below key: the next block's first one is not.
	return v.block(p.value), false
}
