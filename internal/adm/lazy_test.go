package adm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// Fixtures shared by the lazy-record tests: an open schema type with an
// optional field, exercised with a null, a missing optional and open fields,
// so every presence-byte branch of the slot directory is covered.

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
// is the data-race regression test for the slot-directory cache.
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

// TestLazyDecodeRejectsCorruptBytes asserts the eager slot-directory walk
// keeps scan-time error discipline: truncated or garbage record bytes fail
// at decode, not at first field access.
func TestLazyDecodeRejectsCorruptBytes(t *testing.T) {
	ser := NewSerializer(lazyTestType(), SchemaEncoding)
	raw, err := ser.Encode(nil, lazyTestRecord())
	if err != nil {
		t.Fatal(err)
	}
	arena := AcquireArena()
	defer arena.Release()
	for cut := 1; cut < len(raw); cut += 7 {
		if _, _, err := ser.DecodeLazy(raw[:cut], arena); err == nil {
			t.Fatalf("truncated record (%d of %d bytes) decoded without error", cut, len(raw))
		}
	}
}
