package adm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// LazyRecord is a record value that keeps the stored binary form and decodes
// on demand: field access decodes a single field's bytes out of the slab,
// and the full Value tree is built only if the record reaches a point that
// needs all of it (whole-record comparison or keying, re-encoding into a run
// file or the handle table). NDJSON serialization writes straight from the
// slab (AppendJSON). On the scan/select/join hot path and in result writing
// most records never materialize at all.
//
// The record keeps no slot directory and its bytes must already be checked:
// DecodeLazy walks every byte once to validate the layout before handing
// out a header, and Serializer.View wraps bytes Serializer.CheckStored
// accepted with no walk at all — storage checks a record once, where its
// bytes enter the process, and a scan only wraps it. A field read walks the
// checked bytes to its field (declared fields by position, open ones by
// name), which on a record of a few dozen bytes per field costs less than
// writing and keeping a directory for every scanned record. A closed type's
// records carry no open fields (the check refuses them), so an undeclared
// name there is MISSING without a walk. FieldBytes hands out a field's
// stored encoding, so a caller can compare or measure it without decoding.
//
// Tuples are shared across operator goroutines (replicating connectors), but
// the record needs no lock: typ and buf are immutable after construction
// (published to other goroutines via channel sends), field access decodes
// from the slab each time (values are small; re-decoding beats paying cache
// storage on the scan path, where most fields are read at most once), and the
// one post-construction mutation — caching the materialized record — goes
// through an atomic pointer.
//
// Headers are block-allocated from the arena (Arena.newRecord), so
// constructing a lazy record on the scan path performs no per-record
// allocation at all. The record holds no arena reference — buf views
// caller-owned immutable bytes, and the GC keeps them alive exactly as long
// as some record still needs them.
type LazyRecord struct {
	typ  *RecordType // nil for the self-describing layout
	buf  []byte
	full atomic.Pointer[Record]
}

// DecodeLazy decodes like Decode but defers record field decoding: a stored
// record layout is validated by one walk over every byte and comes back as
// a *LazyRecord viewing src — zero-copy. src must stay immutable (never
// mutated in place) for the record's lifetime; LSM component entries and
// memtable values satisfy this, since updates replace value slices rather
// than overwrite them. arena serves as the pooled header-block allocator
// (nil falls back to per-record heap allocation); the record does not
// reference the arena afterwards. Non-record values fall back to eager
// decoding. The walk is the one record validator: CheckStored runs it too.
func (s *Serializer) DecodeLazy(src []byte, arena *Arena) (Value, int, error) {
	if len(src) == 0 {
		return nil, 0, fmt.Errorf("adm: decode: empty input")
	}
	typ, ok := s.recordLayout(src[0])
	if !ok {
		return s.Decode(src)
	}
	n, err := walkRecord(typ, src)
	if err != nil {
		return nil, 0, err
	}
	return arena.view(typ, src[:n]), n, nil
}

// CheckStored is the entry check of a stored record: it accepts src only
// if it is exactly one record in the serializer's own record layout — the
// schema layout of its type, or the self-describing one without a type —
// that DecodeLazy's walk validates, with no bytes after it. Storage runs it
// where record bytes enter the process from outside (component load, log
// replay); bytes it accepts may be wrapped by View.
func (s *Serializer) CheckStored(src []byte) error {
	if len(src) == 0 {
		return fmt.Errorf("adm: decode: empty input")
	}
	if TypeTag(src[0]) != s.recordTag() {
		return fmt.Errorf("adm: stored value with tag %#x is not a record in the %s layout", src[0], s.Encoding)
	}
	typ, _ := s.recordLayout(src[0])
	n, err := walkRecord(typ, src)
	if err != nil {
		return err
	}
	if n != len(src) {
		return fmt.Errorf("adm: %d bytes after the stored record", len(src)-n)
	}
	return nil
}

// View wraps bytes CheckStored accepted in a lazy record header without
// walking them: the read path of stored records. Like DecodeLazy's result
// it views src zero-copy and draws its header from arena (nil allowed).
// Bytes the check did not accept must not reach it: the record's reads
// trust the layout.
func (s *Serializer) View(src []byte, arena *Arena) *LazyRecord {
	typ, _ := s.recordLayout(src[0])
	return arena.view(typ, src)
}

// recordLayout reports whether tag starts a record layout the serializer
// reads, and the type its declared fields follow (nil for the
// self-describing layout).
func (s *Serializer) recordLayout(tag byte) (*RecordType, bool) {
	switch {
	case s.Encoding == SchemaEncoding && s.Type != nil && TypeTag(tag) == tagSchemaRecord:
		return s.Type, true
	case TypeTag(tag) == TagRecord:
		return nil, true
	}
	return nil, false
}

// recordTag is the tag Encode writes for a record.
func (s *Serializer) recordTag() TypeTag {
	if s.Encoding == SchemaEncoding && s.Type != nil {
		return tagSchemaRecord
	}
	return TagRecord
}

// view returns a header over buf from the arena.
func (a *Arena) view(typ *RecordType, buf []byte) *LazyRecord {
	lr := a.newRecord()
	lr.typ, lr.buf = typ, buf
	return lr
}

// walkRecord validates the record at the front of src — in the schema
// layout of typ, or the self-describing one when typ is nil — and returns
// its length.
func walkRecord(typ *RecordType, src []byte) (int, error) {
	if typ == nil {
		cnt, n, err := readUvarint(src[1:])
		if err != nil {
			return 0, err
		}
		return skipFields(src, 1+n, cnt)
	}
	pos := 1 // skip tagSchemaRecord
	for _, ft := range typ.Fields {
		if pos >= len(src) {
			return 0, fmt.Errorf("adm: decode %q: truncated record", typ.Name)
		}
		presence := src[pos]
		pos++
		switch presence {
		case fieldMissing, fieldNull:
		case fieldPresent:
			n, err := skipValue(src[pos:])
			if err != nil {
				return 0, fmt.Errorf("adm: decode %q field %q: %w", typ.Name, ft.Name, err)
			}
			pos += n
		default:
			return 0, fmt.Errorf("adm: decode %q: bad presence byte %d", typ.Name, presence)
		}
	}
	cnt, n, err := readUvarint(src[pos:])
	if err != nil {
		return 0, err
	}
	if err := checkClosed(typ, cnt); err != nil {
		return 0, err
	}
	return skipFields(src, pos+n, cnt)
}

// checkClosed refuses open fields under a closed type: Validate never lets
// one be stored, and a lazy read of such a record does not look for them.
func checkClosed(typ *RecordType, open uint64) error {
	if open != 0 && !typ.Open {
		return fmt.Errorf("adm: decode %q: closed type with %d open fields", typ.Name, open)
	}
	return nil
}

// skipFields validates count name/value pairs starting at pos and returns
// the position after them.
func skipFields(src []byte, pos int, count uint64) (int, error) {
	for i := uint64(0); i < count; i++ {
		ln, n, err := readUvarint(src[pos:])
		if err != nil {
			return 0, err
		}
		pos += n
		if uint64(len(src)-pos) < ln {
			return 0, fmt.Errorf("adm: decode string: truncated input")
		}
		pos += int(ln)
		vn, err := skipValue(src[pos:])
		if err != nil {
			return 0, err
		}
		pos += vn
	}
	return pos, nil
}

// valueLen is the encoded length of the self-describing value at the front
// of b, which the record walk has validated (skipValue without the
// checks).
func valueLen(b []byte) int {
	if w := fixedWidths[b[0]]; w >= 0 {
		return 1 + int(w)
	}
	switch TypeTag(b[0]) {
	case TagString, TagBinary:
		ln, n := uvarint(b[1:])
		return 1 + n + int(ln)
	case TagPolygon:
		cnt, n := uvarint(b[1:])
		return 1 + n + 16*int(cnt)
	case TagRecord:
		cnt, n := uvarint(b[1:])
		pos := 1 + n
		for ; cnt > 0; cnt-- {
			ln, sn := uvarint(b[pos:])
			pos += sn + int(ln)
			pos += valueLen(b[pos:])
		}
		return pos
	default: // TagOrderedList, TagUnorderedList
		cnt, n := uvarint(b[1:])
		pos := 1 + n
		for ; cnt > 0; cnt-- {
			switch t := b[pos]; {
			case fixedWidths[t] >= 0:
				pos += 1 + int(fixedWidths[t])
			case TypeTag(t) == TagString && b[pos+1] < 0x80:
				pos += 2 + int(b[pos+1])
			default:
				pos += valueLen(b[pos:])
			}
		}
		return pos
	}
}

// fixedWidths is fixedWidth by tag byte.
var fixedWidths = func() (w [256]int8) {
	for t := range w {
		w[t] = int8(fixedWidth(TypeTag(t)))
	}
	return w
}()

// uvarint is binary.Uvarint over validated bytes, with the one-byte case
// (every field-name and short-string length) inline.
func uvarint(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return longUvarint(b)
}

//go:noinline
func longUvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }

// declAt is the offset of declared field i's presence byte: the walk over
// the fields before it. declAt(len(typ.Fields)) is where the open part
// starts.
func (r *LazyRecord) declAt(i int) int {
	buf, pos := r.buf, 1
	for ; i > 0; i-- {
		if buf[pos] != fieldPresent {
			pos++
			continue
		}
		pos++
		switch t := buf[pos]; {
		case fixedWidths[t] >= 0:
			pos += 1 + int(fixedWidths[t])
		case TypeTag(t) == TagString && buf[pos+1] < 0x80:
			pos += 2 + int(buf[pos+1])
		default:
			pos += valueLen(buf[pos:])
		}
	}
	return pos
}

// declField locates declared field i: its presence byte and, when present,
// its value's bytes.
func (r *LazyRecord) declField(i int) ([]byte, byte) {
	buf, pos := r.buf, r.declAt(i)
	if presence := buf[pos]; presence != fieldPresent {
		return nil, presence
	}
	pos++
	return buf[pos : pos+valueLen(buf[pos:])], fieldPresent
}

// openField locates the open field called name and returns its value's
// bytes, or nil. The open part starts past the declared fields in the
// schema layout, right after the tag in the generic one.
func (r *LazyRecord) openField(name string) []byte {
	buf, pos := r.buf, 1
	if r.typ != nil {
		pos = r.declAt(len(r.typ.Fields))
	}
	cnt, n := uvarint(buf[pos:])
	pos += n
	for ; cnt > 0; cnt-- {
		ln, sn := uvarint(buf[pos:])
		pos += sn
		key := buf[pos : pos+int(ln)]
		pos += int(ln)
		vn := valueLen(buf[pos:])
		if string(key) == name {
			return buf[pos : pos+vn]
		}
		pos += vn
	}
	return nil
}

// field locates the named field: its value's bytes and its presence
// (fieldPresent, fieldNull or fieldMissing).
func (r *LazyRecord) field(name string) ([]byte, byte) {
	if r.typ != nil {
		if i := r.typ.FieldIndex(name); i >= 0 {
			return r.declField(i)
		}
		if !r.typ.Open {
			return nil, fieldMissing
		}
	}
	if b := r.openField(name); b != nil {
		return b, fieldPresent
	}
	return nil, fieldMissing
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
	switch b, presence := r.field(name); presence {
	case fieldPresent:
		v, _ := decodeValidated(b)
		return v
	case fieldNull:
		return Null{}
	}
	return Missing{}
}

// FieldBytes returns the stored self-describing encoding (tag first) of the
// named field, and false when the field is missing or a declared field is
// null. The bytes view the record's slab and must not be modified.
func (r *LazyRecord) FieldBytes(name string) ([]byte, bool) {
	b, presence := r.field(name)
	return b, presence == fieldPresent
}

// EncodedInt64 reads the integer of any width encoded at the front of b,
// and false for any other kind (or too few bytes).
func EncodedInt64(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) <= fixedWidth(TypeTag(b[0])) {
		return 0, false
	}
	switch TypeTag(b[0]) {
	case TagInt8:
		return int64(int8(b[1])), true
	case TagInt16:
		return int64(int16(binary.BigEndian.Uint16(b[1:]))), true
	case TagInt32:
		return int64(int32(binary.BigEndian.Uint32(b[1:]))), true
	case TagInt64:
		return int64(binary.BigEndian.Uint64(b[1:])), true
	}
	return 0, false
}

// EncodedString returns the bytes of the string encoded at the front of b,
// and false for any other kind (or a truncated string).
func EncodedString(b []byte) ([]byte, bool) {
	if len(b) == 0 || TypeTag(b[0]) != TagString {
		return nil, false
	}
	ln, n := binary.Uvarint(b[1:])
	if n <= 0 || uint64(len(b)-1-n) < ln {
		return nil, false
	}
	return b[1+n : 1+n+int(ln)], true
}

// decodeValidated decodes the value at the front of bytes the record walk
// validated, and returns it with its length.
func decodeValidated(b []byte) (Value, int) {
	v, n, err := DecodeValue(b)
	if err != nil {
		// Unreachable: skipValue accepts exactly what DecodeValue does.
		return Missing{}, valueLen(b)
	}
	return v, n
}

// Materialize decodes the whole record (field order identical to the eager
// decoder: declared fields first, then open fields) in one walk and caches
// it. Safe to call repeatedly and concurrently: racing callers each build
// from the immutable slab and the first store wins.
func (r *LazyRecord) Materialize() *Record {
	if full := r.full.Load(); full != nil {
		return full
	}
	var fields []Field
	buf, pos := r.buf, 1
	if r.typ != nil {
		fields = make([]Field, 0, len(r.typ.Fields))
		for _, ft := range r.typ.Fields {
			presence := buf[pos]
			pos++
			switch presence {
			case fieldNull:
				fields = append(fields, Field{Name: ft.Name, Value: Null{}})
			case fieldPresent:
				v, n := decodeValidated(buf[pos:])
				fields = append(fields, Field{Name: ft.Name, Value: v})
				pos += n
			}
		}
	}
	cnt, n := uvarint(buf[pos:])
	pos += n
	for ; cnt > 0; cnt-- {
		ln, sn := uvarint(buf[pos:])
		pos += sn
		name := string(buf[pos : pos+int(ln)])
		pos += int(ln)
		v, vn := decodeValidated(buf[pos:])
		fields = append(fields, Field{Name: name, Value: v})
		pos += vn
	}
	full := &Record{Fields: fields}
	if r.full.CompareAndSwap(nil, full) {
		return full
	}
	return r.full.Load()
}

// appendJSON writes the record as AppendJSON writes its materialized form,
// but in one walk over the slab: names come from the type or the slab, and
// each value's stored bytes are rendered in place, so nothing is decoded into
// a Value and nothing is cached.
func (r *LazyRecord) appendJSON(dst []byte) []byte {
	if full := r.full.Load(); full != nil {
		return AppendJSON(dst, full)
	}
	brace := len(dst)
	dst = append(dst, '{')
	buf, pos := r.buf, 1
	if r.typ != nil {
		for _, ft := range r.typ.Fields {
			presence := buf[pos]
			pos++
			if presence == fieldMissing {
				continue
			}
			if len(dst) > brace+1 {
				dst = append(dst, ',')
			}
			dst = append(appendJSONString(dst, ft.Name), ':')
			if presence == fieldNull {
				dst = append(dst, "null"...)
				continue
			}
			var n int
			dst, n = appendValueJSON(dst, buf[pos:])
			pos += n
		}
	}
	cnt, n := uvarint(buf[pos:])
	pos += n
	for ; cnt > 0; cnt-- {
		if len(dst) > brace+1 {
			dst = append(dst, ',')
		}
		ln, sn := uvarint(buf[pos:])
		pos += sn
		dst = append(appendJSONString(dst, buf[pos:pos+int(ln)]), ':')
		pos += int(ln)
		var vn int
		dst, vn = appendValueJSON(dst, buf[pos:])
		pos += vn
	}
	return append(dst, '}')
}

// appendValueJSON writes the validated value at the front of src and returns
// its length. Should those bytes not render (the record walk validated
// them, so this is unreachable) the field is written as null, as Get's
// MISSING would be.
func appendValueJSON(dst, src []byte) ([]byte, int) {
	out, n, ok := appendJSONEncoded(dst, src)
	if !ok {
		return append(out[:len(dst)], "null"...), valueLen(src)
	}
	return out, n
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
