package adm

import (
	"fmt"
	"sync/atomic"
)

// LazyRecord is a record value that keeps the stored binary form and decodes
// on demand: field access resolves a single field's bytes out of the slab,
// and the full Value tree is built only if the record reaches a point that
// needs all of it (whole-record comparison or keying, re-encoding into a run
// file or the handle table). NDJSON serialization writes straight from the
// slab (AppendJSON). On the scan/select/join hot path and in result writing
// most records never materialize at all.
//
// The slot directory (field offsets into the slab) is parsed once at
// construction, which also validates the layout — a corrupt stored record
// still fails at scan time, exactly like the eager decoder.
//
// Tuples are shared across operator goroutines (replicating connectors), but
// the record needs no lock: buf, decl and open are immutable after
// construction (published to other goroutines via channel sends), field
// access decodes from the slab each time (values are small; re-decoding
// beats paying cache storage on the scan path, where most fields are read at
// most once), and the one post-construction mutation — caching the
// materialized record — goes through an atomic pointer.
//
// Headers are block-allocated from the arena (Arena.newRecord) and decl
// slots from the arena's pointer-free slot slab (Arena.newSlots), so
// constructing a lazy record on the scan path performs no per-record
// allocation at all. The record holds no arena reference — buf views
// caller-owned immutable bytes, and the GC keeps them alive exactly as long
// as some record still needs them.
type LazyRecord struct {
	typ  *RecordType // nil for the self-describing layout
	buf  []byte
	decl []lazySlot // schema layout: one slot per declared field
	open []openSlot // undeclared fields (all fields, in the generic layout)
	full atomic.Pointer[Record]
}

// lazySlot locates one declared field's value bytes within the slab.
type lazySlot struct {
	presence byte
	off, end int32
}

// openSlot locates one self-described field's name and value bytes.
type openSlot struct {
	nameOff, nameEnd int32
	off, end         int32
}

// DecodeLazy decodes like Decode but defers record field decoding: a stored
// record layout comes back as a *LazyRecord viewing src — zero-copy. src must
// stay immutable (never mutated in place) for the record's lifetime; LSM
// component entries and memtable values satisfy this, since updates replace
// value slices rather than overwrite them. arena serves as the pooled
// header-block allocator (nil falls back to per-record heap allocation); the
// record does not reference the arena afterwards. Non-record values fall back
// to eager decoding.
func (s *Serializer) DecodeLazy(src []byte, arena *Arena) (Value, int, error) {
	if len(src) == 0 {
		return nil, 0, fmt.Errorf("adm: decode: empty input")
	}
	if s.Encoding == SchemaEncoding && s.Type != nil && TypeTag(src[0]) == tagSchemaRecord {
		return newLazySchema(s.Type, src, arena)
	}
	if TypeTag(src[0]) == TagRecord {
		return newLazyGeneric(src, arena)
	}
	return s.Decode(src)
}

func newLazySchema(typ *RecordType, src []byte, arena *Arena) (Value, int, error) {
	pos := 1 // skip tagSchemaRecord
	decl := arena.newSlots(len(typ.Fields))
	for i, ft := range typ.Fields {
		if pos >= len(src) {
			return nil, 0, fmt.Errorf("adm: decode %q: truncated record", typ.Name)
		}
		presence := src[pos]
		pos++
		switch presence {
		case fieldMissing, fieldNull:
			decl[i] = lazySlot{presence: presence}
		case fieldPresent:
			n, err := skipValue(src[pos:])
			if err != nil {
				return nil, 0, fmt.Errorf("adm: decode %q field %q: %w", typ.Name, ft.Name, err)
			}
			decl[i] = lazySlot{presence: presence, off: int32(pos), end: int32(pos + n)}
			pos += n
		default:
			return nil, 0, fmt.Errorf("adm: decode %q: bad presence byte %d", typ.Name, presence)
		}
	}
	open, pos, err := parseOpenSlots(src, pos, -1)
	if err != nil {
		return nil, 0, err
	}
	lr := arena.newRecord()
	lr.typ, lr.buf, lr.decl, lr.open = typ, src[:pos], decl, open
	return lr, pos, nil
}

func newLazyGeneric(src []byte, arena *Arena) (Value, int, error) {
	cnt, n, err := readUvarint(src[1:])
	if err != nil {
		return nil, 0, err
	}
	open, pos, err := parseOpenSlots(src, 1+n, int(cnt))
	if err != nil {
		return nil, 0, err
	}
	lr := arena.newRecord()
	lr.buf, lr.open = src[:pos], open
	return lr, pos, nil
}

// parseOpenSlots walks count name/value pairs starting at pos (count < 0
// means read the uvarint count at pos first) and returns their slots.
func parseOpenSlots(src []byte, pos, count int) ([]openSlot, int, error) {
	if count < 0 {
		cnt, n, err := readUvarint(src[pos:])
		if err != nil {
			return nil, 0, err
		}
		pos += n
		count = int(cnt)
	}
	var open []openSlot
	for i := 0; i < count; i++ {
		ln, n, err := readUvarint(src[pos:])
		if err != nil {
			return nil, 0, err
		}
		nameOff := pos + n
		nameEnd := nameOff + int(ln)
		if nameEnd > len(src) {
			return nil, 0, fmt.Errorf("adm: decode string: truncated input")
		}
		pos = nameEnd
		vn, err := skipValue(src[pos:])
		if err != nil {
			return nil, 0, err
		}
		open = append(open, openSlot{
			nameOff: int32(nameOff), nameEnd: int32(nameEnd),
			off: int32(pos), end: int32(pos + vn),
		})
		pos += vn
	}
	return open, pos, nil
}

// Tag reports TagRecord: a LazyRecord is a record in every semantic sense.
func (*LazyRecord) Tag() TypeTag { return TagRecord }

// String renders the materialized record in ADM textual syntax.
func (r *LazyRecord) String() string { return r.Materialize().String() }

// Get returns the value of the named field, or MISSING — Record.Get over the
// byte slab, decoding only the requested field.
func (r *LazyRecord) Get(name string) Value {
	if full := r.full.Load(); full != nil {
		return full.Get(name)
	}
	if r.typ != nil {
		if i := r.typ.FieldIndex(name); i >= 0 {
			return r.declValue(i)
		}
	}
	for j := range r.open {
		o := &r.open[j]
		if string(r.buf[o.nameOff:o.nameEnd]) == name {
			return r.value(o.off, o.end)
		}
	}
	return Missing{}
}

func (r *LazyRecord) declValue(i int) Value {
	switch s := r.decl[i]; s.presence {
	case fieldMissing:
		return Missing{}
	case fieldNull:
		return Null{}
	default:
		return r.value(s.off, s.end)
	}
}

func (r *LazyRecord) value(off, end int32) Value {
	v, _, err := DecodeValue(r.buf[off:end])
	if err != nil {
		// Unreachable: the slot walk validated these bytes at construction.
		return Missing{}
	}
	return v
}

// Materialize decodes the whole record (field order identical to the eager
// decoder: declared fields first, then open fields) and caches it. Safe to
// call repeatedly and concurrently: racing callers each build from the
// immutable slot directory and the first store wins.
func (r *LazyRecord) Materialize() *Record {
	if full := r.full.Load(); full != nil {
		return full
	}
	fields := make([]Field, 0, len(r.decl)+len(r.open))
	for i := range r.decl {
		if r.decl[i].presence == fieldMissing {
			continue
		}
		fields = append(fields, Field{Name: r.typ.Fields[i].Name, Value: r.declValue(i)})
	}
	for j := range r.open {
		o := &r.open[j]
		fields = append(fields, Field{
			Name:  string(r.buf[o.nameOff:o.nameEnd]),
			Value: r.value(o.off, o.end),
		})
	}
	full := &Record{Fields: fields}
	if r.full.CompareAndSwap(nil, full) {
		return full
	}
	return r.full.Load()
}

// appendJSON writes the record as AppendJSON writes its materialized form,
// but from the slot directory: names come from the type or the slab, and
// each value's stored bytes are rendered in place, so nothing is decoded into
// a Value and nothing is cached.
func (r *LazyRecord) appendJSON(dst []byte) []byte {
	if full := r.full.Load(); full != nil {
		return AppendJSON(dst, full)
	}
	brace := len(dst)
	dst = append(dst, '{')
	for i, s := range r.decl {
		if s.presence == fieldMissing {
			continue
		}
		if len(dst) > brace+1 {
			dst = append(dst, ',')
		}
		dst = append(appendJSONString(dst, r.typ.Fields[i].Name), ':')
		if s.presence == fieldNull {
			dst = append(dst, "null"...)
		} else {
			dst = r.appendValueJSON(dst, s.off, s.end)
		}
	}
	for _, o := range r.open {
		if len(dst) > brace+1 {
			dst = append(dst, ',')
		}
		dst = append(appendJSONString(dst, r.buf[o.nameOff:o.nameEnd]), ':')
		dst = r.appendValueJSON(dst, o.off, o.end)
	}
	return append(dst, '}')
}

// appendValueJSON writes the value stored at buf[off:end]. Should those
// bytes not decode (the slot walk validated them, so this is unreachable) the
// field is written as null, as value's MISSING would be.
func (r *LazyRecord) appendValueJSON(dst []byte, off, end int32) []byte {
	out, _, ok := appendJSONEncoded(dst, r.buf[off:end])
	if !ok {
		return append(out[:len(dst)], "null"...)
	}
	return out
}

// Resident reports the record's current representation for memory
// accounting: the materialized record when decode has happened, else nil and
// the byte-slab length still held.
func (r *LazyRecord) Resident() (*Record, int) {
	return r.full.Load(), len(r.buf)
}

// AsRecord returns the *Record form of v when v is a record in either
// representation (materializing a lazy one).
func AsRecord(v Value) (*Record, bool) {
	switch x := v.(type) {
	case *Record:
		return x, true
	case *LazyRecord:
		return x.Materialize(), true
	}
	return nil, false
}
