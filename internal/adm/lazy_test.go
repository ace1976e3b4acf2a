package adm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Fixtures shared by the lazy-record tests: an open schema type with an
// optional field, exercised with a null, a missing optional and open fields,
// so every presence-byte branch of the field walk is covered.

func lazyTestType() *RecordType {
	return &RecordType{
		Name: "LazyT",
		Open: true,
		Fields: []FieldType{
			{Name: "id", Type: Prim(TagInt32)},
			{Name: "name", Type: Prim(TagString)},
			{Name: "score", Type: Prim(TagDouble), Optional: true},
			{Name: "note", Type: Prim(TagString), Optional: true},
		},
	}
}

func lazyTestRecord() *Record {
	return NewRecord(
		Field{Name: "id", Value: Int32(7)},
		Field{Name: "name", Value: String("bob")},
		Field{Name: "score", Value: Null{}},
		// note: omitted (optional -> missing)
		Field{Name: "tags", Value: &OrderedList{Items: []Value{String("a"), String("b")}}},
		Field{Name: "loc", Value: Point{X: 1.5, Y: -2.25}},
	)
}

// decodeBoth round-trips the record through one encoding and returns the
// lazy and eager decodes of the same bytes.
func decodeBoth(t *testing.T, enc Encoding) (*LazyRecord, *Record) {
	t.Helper()
	ser := NewSerializer(lazyTestType(), enc)
	raw, err := ser.Encode(nil, lazyTestRecord())
	if err != nil {
		t.Fatal(err)
	}
	arena := AcquireArena()
	t.Cleanup(arena.Release)
	lv, n, err := ser.DecodeLazy(raw, arena)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Fatalf("lazy decode consumed %d of %d bytes", n, len(raw))
	}
	lr, ok := lv.(*LazyRecord)
	if !ok {
		t.Fatalf("DecodeLazy returned %T, want *LazyRecord", lv)
	}
	ev, _, err := ser.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return lr, ev.(*Record)
}

// TestLazyDecodeParity asserts the lazy record is semantically identical to
// the eager decode of the same bytes under both encodings: same field
// resolution (present, null, missing, open), same total-order comparison,
// same hash key, same JSON, same re-encoded bytes.
func TestLazyDecodeParity(t *testing.T) {
	for _, enc := range []Encoding{SchemaEncoding, SelfDescribingEncoding} {
		t.Run(fmt.Sprintf("encoding-%d", enc), func(t *testing.T) {
			lr, er := decodeBoth(t, enc)
			for _, name := range []string{"id", "name", "score", "note", "tags", "loc", "absent"} {
				lv, ev := lr.Get(name), er.Get(name)
				if c, err := Compare(lv, ev); err != nil || c != 0 {
					t.Errorf("field %q: lazy %v, eager %v (cmp %d, %v)", name, lv, ev, c, err)
				}
			}
			if c, err := Compare(lr, er); err != nil || c != 0 {
				t.Errorf("whole-record compare: %d, %v", c, err)
			}
			if lj, ej := AppendJSON(nil, lr), AppendJSON(nil, er); !bytes.Equal(lj, ej) {
				t.Errorf("JSON differs:\nlazy  %s\neager %s", lj, ej)
			}
			lb, err := EncodeValue(nil, lr)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := EncodeValue(nil, er)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lb, eb) {
				t.Error("re-encoded bytes differ between lazy and eager")
			}
		})
	}
}

// TestLazyMaterializeMatchesEager asserts materialization yields a record
// with the same fields in the same order as the eager decoder.
func TestLazyMaterializeMatchesEager(t *testing.T) {
	for _, enc := range []Encoding{SchemaEncoding, SelfDescribingEncoding} {
		lr, er := decodeBoth(t, enc)
		full := lr.Materialize()
		if len(full.Fields) != len(er.Fields) {
			t.Fatalf("materialized %d fields, eager %d", len(full.Fields), len(er.Fields))
		}
		for i := range full.Fields {
			if full.Fields[i].Name != er.Fields[i].Name {
				t.Fatalf("field %d: materialized %q, eager %q (order must match)",
					i, full.Fields[i].Name, er.Fields[i].Name)
			}
		}
		// Materialize is idempotent: the second call returns the cached record.
		if lr.Materialize() != full {
			t.Error("second Materialize returned a different record")
		}
	}
}

// TestLazyRecordConcurrentAccess hammers one lazy record from many
// goroutines mixing field access and materialization; run under -race this
// is the data-race regression test for the materialized-record cache.
func TestLazyRecordConcurrentAccess(t *testing.T) {
	lr, er := decodeBoth(t, SchemaEncoding)
	fields := []string{"id", "name", "score", "tags", "loc"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fields[(g+i)%len(fields)]
				if c, err := Compare(lr.Get(name), er.Get(name)); err != nil || c != 0 {
					t.Errorf("concurrent Get(%q) diverged", name)
					return
				}
				if i == 100 && g%2 == 0 {
					lr.Materialize()
				}
			}
		}()
	}
	wg.Wait()
}

// TestLazyDecodeAllocatesOnlyHeaders: in either layout a lazy decode
// allocates nothing per record beyond its header, which the arena hands out
// in blocks, so the per-record average rounds to zero.
func TestLazyDecodeAllocatesOnlyHeaders(t *testing.T) {
	for _, enc := range []Encoding{SchemaEncoding, SelfDescribingEncoding} {
		ser := NewSerializer(lazyTestType(), enc)
		raw, err := ser.Encode(nil, lazyTestRecord())
		if err != nil {
			t.Fatal(err)
		}
		arena := AcquireArena()
		if n := testing.AllocsPerRun(1000, func() {
			if _, _, err := ser.DecodeLazy(raw, arena); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("encoding-%d: %.2f allocations per record", enc, n)
		}
		arena.Release()
	}
}

// TestArenaLifecycle covers the header-block allocator discipline: newRecord
// hands out distinct zeroed headers, slots are never reused across pooling,
// and double-release panics loudly rather than handing one arena to two
// concurrent scans.
func TestArenaLifecycle(t *testing.T) {
	a := AcquireArena()
	seen := make(map[*LazyRecord]bool)
	for i := 0; i < 3*lazyRecBlock; i++ {
		r := a.newRecord()
		if r.buf != nil || r.full.Load() != nil || r.typ != nil {
			t.Fatalf("newRecord %d returned a dirty header", i)
		}
		if seen[r] {
			t.Fatalf("newRecord %d reused a handed-out slot", i)
		}
		seen[r] = true
		r.buf = []byte{0} // simulate the slot being consumed by a decode
	}
	a.Release()

	// A recycled arena must keep drawing fresh slots, never one already
	// handed out. (The pool may or may not return the same arena; reused
	// slots would be caught either way.)
	b := AcquireArena()
	for i := 0; i < 2*lazyRecBlock; i++ {
		if r := b.newRecord(); seen[r] {
			t.Fatalf("recycled arena reused slot %d", i)
		}
	}
	b.Release()

	over := AcquireArena()
	over.Release()
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	over.Release()
}

// TestLazyDecodeRejectsCorruptBytes asserts the construction walk keeps
// error discipline in both stored layouts: truncated or garbage record bytes
// fail at decode, not at first field access, and the eager decoder and the
// entry check refuse the same bytes.
func TestLazyDecodeRejectsCorruptBytes(t *testing.T) {
	rec := lazyTestRecord()
	rec.Fields = append(rec.Fields, Field{Name: "bag", Value: &UnorderedList{Items: []Value{String("x"), Int8(1)}}})
	for _, enc := range []Encoding{SchemaEncoding, SelfDescribingEncoding} {
		ser := NewSerializer(lazyTestType(), enc)
		raw, err := ser.Encode(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		// at returns a copy of raw with the encoding of v found and the byte
		// off bytes into it set to b.
		at := func(v Value, off int, b byte) []byte {
			t.Helper()
			pat, err := EncodeValue(nil, v)
			if err != nil {
				t.Fatal(err)
			}
			i := bytes.Index(raw, pat)
			if i < 0 || bytes.Index(raw[i+1:], pat) >= 0 {
				t.Fatalf("encoding-%d: %v is not stored exactly once", enc, v)
			}
			bad := bytes.Clone(raw)
			bad[i+off] = b
			return bad
		}
		cases := map[string][]byte{
			// The bag's count is one byte; its first item's tag follows.
			"an unknown tag inside a bag": at(rec.Get("bag"), 2, 0xEE),
			// "bob" is stored as its tag, a one-byte length and three bytes.
			"an over-long string length": at(String("bob"), 1, 100),
		}
		if enc == SchemaEncoding {
			// The first declared field's presence byte follows the layout tag.
			bad := bytes.Clone(raw)
			bad[1] = 7
			cases["a bad presence byte"] = bad
		}
		// Counts whose byte size overflows an int: a field-name length of
		// 2^63 and a polygon of 2^60 points (16 bytes each).
		huge := func(n uint64) []byte { return binary.AppendUvarint(nil, n) }
		cases["a name length past the int range"] = append(append([]byte{byte(TagRecord), 1}, huge(1<<63)...), "name"...)
		cases["a polygon count whose size overflows"] = append([]byte{byte(TagRecord), 1, 1, 'p', byte(TagPolygon)}, huge(1<<60)...)
		for cut := 1; cut < len(raw); cut += 7 {
			cases[fmt.Sprintf("truncated to %d of %d bytes", cut, len(raw))] = raw[:cut]
		}
		arena := AcquireArena()
		for name, bad := range cases {
			if _, _, err := ser.DecodeLazy(bad, arena); err == nil {
				t.Errorf("encoding-%d: %s: lazy decode succeeded", enc, name)
			}
			if _, _, err := ser.Decode(bad); err == nil {
				t.Errorf("encoding-%d: %s: eager decode succeeded", enc, name)
			}
			if err := ser.CheckStored(bad); err == nil {
				t.Errorf("encoding-%d: %s: entry check accepted it", enc, name)
			}
		}
		arena.Release()
	}
}

// TestCheckStoredAcceptsOneRecordOfItsLayout: the entry check accepts a
// record as the serializer encodes it and refuses anything a header-only
// view could misread: bytes after the record, a value that is not a record,
// and a record in the other layout.
func TestCheckStoredAcceptsOneRecordOfItsLayout(t *testing.T) {
	schema := NewSerializer(lazyTestType(), SchemaEncoding)
	generic := NewSerializer(lazyTestType(), SelfDescribingEncoding)
	encode := func(ser *Serializer, v Value) []byte {
		raw, err := ser.Encode(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, ser := range []*Serializer{schema, generic} {
		raw := encode(ser, lazyTestRecord())
		if err := ser.CheckStored(raw); err != nil {
			t.Fatalf("%s: entry check refused an encoded record: %v", ser.Encoding, err)
		}
		if got := AppendJSON(nil, ser.View(raw, nil)); !bytes.Equal(got, AppendJSON(nil, lazyTestRecord())) {
			t.Errorf("%s: view reads %s", ser.Encoding, got)
		}
		for name, bad := range map[string][]byte{
			"a trailing byte": append(bytes.Clone(raw), 0),
			"an integer":      encode(ser, Int32(5)),
			"nothing":         nil,
		} {
			if err := ser.CheckStored(bad); err == nil {
				t.Errorf("%s: entry check accepted %s", ser.Encoding, name)
			}
		}
	}
	if err := schema.CheckStored(encode(generic, lazyTestRecord())); err == nil {
		t.Error("a schema serializer's entry check accepted the self-describing layout")
	}
	if err := generic.CheckStored(encode(schema, lazyTestRecord())); err == nil {
		t.Error("a self-describing serializer's entry check accepted the schema layout")
	}
}

// TestLazyClosedTypeRefusesOpenFields: a record stored under a closed type
// has no open fields (Validate refuses them), so a lazy read of one does not
// look for them; bytes that carry some anyway fail to decode, lazily and
// eagerly.
func TestLazyClosedTypeRefusesOpenFields(t *testing.T) {
	open := NewSerializer(lazyTestType(), SchemaEncoding)
	raw, err := open.Encode(nil, lazyTestRecord())
	if err != nil {
		t.Fatal(err)
	}
	closed := lazyTestType()
	closed.Open = false
	ser := NewSerializer(closed, SchemaEncoding)
	if _, _, err := ser.DecodeLazy(raw, nil); err == nil {
		t.Error("lazy decode accepted open fields under a closed type")
	}
	if _, _, err := ser.Decode(raw); err == nil {
		t.Error("eager decode accepted open fields under a closed type")
	}
	rec := lazyTestRecord()
	rec.Fields = rec.Fields[:3] // the declared ones
	if raw, err = ser.Encode(nil, rec); err != nil {
		t.Fatal(err)
	}
	lv, _, err := ser.DecodeLazy(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := lv.(*LazyRecord).Get("tags"); got.Tag() != TagMissing {
		t.Errorf("undeclared field of a closed type = %v, want MISSING", got)
	}
}

// lazyFuzzType is FuzzLazyRecord's declared open type: required and
// optional fields of fixed and variable width.
func lazyFuzzType(open bool) *RecordType {
	return &RecordType{Name: "F", Open: open, Fields: []FieldType{
		{Name: "a", Type: Prim(TagInt32)},
		{Name: "b", Type: Prim(TagString), Optional: true},
		{Name: "c", Type: &OrderedListType{Item: &AnyType{}}, Optional: true},
		{Name: "d", Type: Prim(TagDouble), Optional: true},
	}}
}

// FuzzLazyRecord checks the lazy view against the eager decode of the same
// bytes. A record drawn under a declared open type (declared fields drawn
// missing, null or any value, then open fields) is encoded in both layouts;
// on its lazy view Get of every declared, open and absent name, FieldBytes,
// AppendJSON, EncodeValue and Materialize must agree with the eager record.
// The same bytes with one byte changed, cut short or followed by one more,
// and the fuzz bytes themselves behind each layout's tag, go to DecodeLazy
// too: it either fails or gives a record that passes the same checks,
// without a panic. Every byte string the entry check (CheckStored) accepts
// is one whole record in the serializer's layout that DecodeLazy accepts,
// and its header-only View passes the same checks. Run with
//
//	go test -run='^$' -fuzz=FuzzLazyRecord -fuzztime=15s ./internal/adm
func FuzzLazyRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 200; i++ {
		seed := make([]byte, 4+rng.Intn(100))
		rng.Read(seed)
		f.Add(seed)
	}
	types := []*RecordType{lazyFuzzType(true), lazyFuzzType(false)}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &valueDraw{b: data}
		rec := &Record{}
		for _, ft := range types[0].Fields {
			switch d.byte() % 4 {
			case 0: // missing
			case 1:
				rec.Fields = append(rec.Fields, Field{Name: ft.Name, Value: Null{}})
			default:
				rec.Fields = append(rec.Fields, Field{Name: ft.Name, Value: d.value(0)})
			}
		}
		for n := d.byte() % 4; n > 0; n-- {
			rec.Fields = append(rec.Fields, Field{Name: d.string(), Value: d.value(1)})
		}
		pos, flip, cut := int(d.byte()), d.byte(), d.byte()
		for _, enc := range []Encoding{SchemaEncoding, SelfDescribingEncoding} {
			ser := NewSerializer(types[0], enc)
			raw, err := ser.Encode(nil, rec)
			if err != nil {
				continue // a required field drawn missing
			}
			if err := ser.CheckStored(raw); err != nil {
				t.Fatalf("encoding-%d: %v: entry check refused it: %v", enc, rec, err)
			}
			if !checkLazyView(t, ser, raw) {
				t.Fatalf("encoding-%d: %v: lazy decode failed", enc, rec)
			}
			bad := bytes.Clone(raw)
			bad[pos%len(bad)] ^= flip | 1
			checkLazyView(t, ser, bad)
			checkLazyView(t, ser, raw[:int(cut)%len(raw)])
			checkLazyView(t, ser, append(bytes.Clone(raw), flip))
		}
		for _, typ := range types {
			ser := NewSerializer(typ, SchemaEncoding)
			checkLazyView(t, ser, append([]byte{byte(tagSchemaRecord)}, data...))
			checkLazyView(t, ser, append([]byte{byte(TagRecord)}, data...))
		}
	})
}

// checkLazyView decodes raw lazily and, when that succeeds, checks every
// read of the view against the eager decode — and, when the entry check
// accepts raw, every read of its header-only View too; it reports whether
// the lazy decode succeeded.
func checkLazyView(t *testing.T, ser *Serializer, raw []byte) bool {
	t.Helper()
	lv, n, err := ser.DecodeLazy(raw, nil)
	checked := ser.CheckStored(raw) == nil
	if err != nil {
		if checked {
			t.Fatalf("% x: entry check accepted bytes DecodeLazy refuses: %v", raw, err)
		}
		return false
	}
	ev, en, err := ser.Decode(raw)
	if err != nil {
		t.Fatalf("% x: lazy decode succeeded, eager failed: %v", raw, err)
	}
	if n != en {
		t.Fatalf("% x: lazy decode read %d bytes, eager %d", raw, n, en)
	}
	lr, ok := lv.(*LazyRecord)
	if checked && (!ok || n != len(raw) || TypeTag(raw[0]) != ser.recordTag()) {
		t.Fatalf("% x: entry check accepted %T of %d bytes in the layout of tag %#x", raw, lv, n, raw[0])
	}
	if !ok {
		return true // not a record layout: decoded eagerly
	}
	er := ev.(*Record)
	names := []string{"absent"}
	for _, ft := range ser.Type.Fields {
		names = append(names, ft.Name)
	}
	for _, f := range er.Fields {
		names = append(names, f.Name)
	}
	checkReads(t, raw, lr, er, names)
	if checked {
		checkReads(t, raw, ser.View(raw, nil), er, names)
	}
	return true
}

// checkReads checks every read of the lazy record lr of raw against er, its
// eager decode: Get and FieldBytes of each name, AppendJSON, EncodeValue and
// Materialize, then Get and FieldBytes again on the materialized record.
func checkReads(t *testing.T, raw []byte, lr *LazyRecord, er *Record, names []string) {
	t.Helper()
	encode := func(v Value) []byte {
		b, err := EncodeValue(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	checkGets := func(stage string) {
		for _, name := range names {
			want := er.Get(name)
			if got := lr.Get(name); !bytes.Equal(encode(got), encode(want)) {
				t.Fatalf("% x %s: Get(%q) = %v, eager %v", raw, stage, name, got, want)
			}
			b, ok := lr.FieldBytes(name)
			switch {
			case !ok && !IsUnknown(want):
				t.Fatalf("% x %s: FieldBytes(%q) found nothing, eager %v", raw, stage, name, want)
			case ok:
				v, vn, err := DecodeValue(b)
				if err != nil || vn != len(b) || !bytes.Equal(encode(v), encode(want)) {
					t.Fatalf("% x %s: FieldBytes(%q) = % x, eager %v", raw, stage, name, b, want)
				}
			}
		}
	}
	checkGets("unmaterialized")
	if got, want := AppendJSON(nil, lr), AppendJSON(nil, er); !bytes.Equal(got, want) {
		t.Fatalf("% x: AppendJSON\n lazy  %s\n eager %s", raw, got, want)
	}
	if got, want := encode(lr), encode(er); !bytes.Equal(got, want) {
		t.Fatalf("% x: EncodeValue\n lazy  % x\n eager % x", raw, got, want)
	}
	if got, want := encode(lr.Materialize()), encode(er); !bytes.Equal(got, want) {
		t.Fatalf("% x: Materialize\n lazy  % x\n eager % x", raw, got, want)
	}
	checkGets("materialized")
}
