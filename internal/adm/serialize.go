package adm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Encoding selects how records are laid out on disk.
//
// SchemaEncoding stores declared fields positionally: the field names and
// types live in the Datatype (metadata), so each instance stores only the
// values of declared fields plus any undeclared "open" fields, which are
// self-describing. Storage always uses it. Under a type that declares every
// field it is the "Asterix (Schema)" configuration from the paper's Table
// 2/3; under an open type that declares only the primary key it is the
// "Asterix (KeyOnly)" configuration.
//
// SelfDescribingEncoding stores every field with its name and tagged value;
// it is the layout of open fields and nested values.
type Encoding uint8

const (
	// SchemaEncoding lays out declared fields positionally using the Datatype.
	SchemaEncoding Encoding = iota
	// SelfDescribingEncoding stores every field with its name in each instance.
	SelfDescribingEncoding
)

// String returns "schema" or "self-describing".
func (e Encoding) String() string {
	if e == SchemaEncoding {
		return "schema"
	}
	return "self-describing"
}

// Serializer encodes and decodes ADM values to the binary on-disk format.
// A Serializer is bound to a record Datatype and an Encoding; non-record
// values are always encoded self-describing.
type Serializer struct {
	Type     *RecordType
	Encoding Encoding
}

// NewSerializer returns a Serializer for the given record type and encoding.
// A nil record type forces the self-describing encoding.
func NewSerializer(rt *RecordType, enc Encoding) *Serializer {
	if rt == nil {
		enc = SelfDescribingEncoding
	}
	return &Serializer{Type: rt, Encoding: enc}
}

// Encode appends the binary form of v to dst and returns the extended slice.
func (s *Serializer) Encode(dst []byte, v Value) ([]byte, error) {
	if lr, ok := v.(*LazyRecord); ok {
		v = lr.Materialize()
	}
	if s.Encoding == SchemaEncoding && s.Type != nil {
		if rec, ok := v.(*Record); ok {
			return s.encodeSchemaRecord(dst, rec)
		}
	}
	return EncodeValue(dst, v)
}

// Decode decodes a value previously produced by Encode. It returns the value
// and the number of bytes consumed.
func (s *Serializer) Decode(src []byte) (Value, int, error) {
	if len(src) == 0 {
		return nil, 0, fmt.Errorf("adm: decode: empty input")
	}
	if s.Encoding == SchemaEncoding && s.Type != nil && TypeTag(src[0]) == tagSchemaRecord {
		return s.decodeSchemaRecord(src)
	}
	return DecodeValue(src)
}

// tagSchemaRecord marks a record encoded positionally against a Datatype.
// It deliberately sits outside the normal TypeTag space.
const tagSchemaRecord TypeTag = 0xF0

// presence bits for schema-encoded fields.
const (
	fieldPresent byte = 0 // value follows
	fieldNull    byte = 1 // declared, present as NULL
	fieldMissing byte = 2 // declared optional, absent
)

func (s *Serializer) encodeSchemaRecord(dst []byte, rec *Record) ([]byte, error) {
	dst = append(dst, byte(tagSchemaRecord))
	// Declared fields: presence byte, then value bytes (no name, no tag needed
	// beyond the value's own tag, since nested open content still needs tags).
	for _, ft := range s.Type.Fields {
		v := rec.Get(ft.Name)
		switch v.Tag() {
		case TagMissing:
			if !ft.Optional {
				return nil, fmt.Errorf("adm: encode %q: missing required field %q", s.Type.Name, ft.Name)
			}
			dst = append(dst, fieldMissing)
		case TagNull:
			dst = append(dst, fieldNull)
		default:
			dst = append(dst, fieldPresent)
			var err error
			dst, err = EncodeValue(dst, v)
			if err != nil {
				return nil, err
			}
		}
	}
	// Open (undeclared) fields: count, then name/value pairs.
	var open []Field
	for _, f := range rec.Fields {
		if s.Type.FieldIndex(f.Name) < 0 {
			open = append(open, f)
		}
	}
	dst = appendUvarint(dst, uint64(len(open)))
	for _, f := range open {
		dst = appendString(dst, f.Name)
		var err error
		dst, err = EncodeValue(dst, f.Value)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func (s *Serializer) decodeSchemaRecord(src []byte) (Value, int, error) {
	pos := 1 // skip tagSchemaRecord
	fields := make([]Field, 0, len(s.Type.Fields))
	for _, ft := range s.Type.Fields {
		if pos >= len(src) {
			return nil, 0, fmt.Errorf("adm: decode %q: truncated record", s.Type.Name)
		}
		presence := src[pos]
		pos++
		switch presence {
		case fieldMissing:
			// omitted
		case fieldNull:
			fields = append(fields, Field{Name: ft.Name, Value: Null{}})
		case fieldPresent:
			v, n, err := DecodeValue(src[pos:])
			if err != nil {
				return nil, 0, err
			}
			pos += n
			fields = append(fields, Field{Name: ft.Name, Value: v})
		default:
			return nil, 0, fmt.Errorf("adm: decode %q: bad presence byte %d", s.Type.Name, presence)
		}
	}
	nOpen, n, err := readUvarint(src[pos:])
	if err != nil {
		return nil, 0, err
	}
	if err := checkClosed(s.Type, nOpen); err != nil {
		return nil, 0, err
	}
	pos += n
	for i := uint64(0); i < nOpen; i++ {
		name, n, err := readString(src[pos:])
		if err != nil {
			return nil, 0, err
		}
		pos += n
		v, n, err := DecodeValue(src[pos:])
		if err != nil {
			return nil, 0, err
		}
		pos += n
		fields = append(fields, Field{Name: name, Value: v})
	}
	return &Record{Fields: fields}, pos, nil
}

// ----------------------------------------------------------------------------
// Self-describing value encoding (used by open fields, records without a
// type, and all non-record values).
// ----------------------------------------------------------------------------

// EncodeValue appends the self-describing binary form of v to dst.
// A LazyRecord materializes here: re-encoding is a sink.
func EncodeValue(dst []byte, v Value) ([]byte, error) {
	if lr, ok := v.(*LazyRecord); ok {
		v = lr.Materialize()
	}
	dst = append(dst, byte(v.Tag()))
	switch x := v.(type) {
	case Missing, Null:
		return dst, nil
	case Boolean:
		if x {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case Int8:
		return append(dst, byte(x)), nil
	case Int16:
		return binary.BigEndian.AppendUint16(dst, uint16(x)), nil
	case Int32:
		return binary.BigEndian.AppendUint32(dst, uint32(x)), nil
	case Int64:
		return binary.BigEndian.AppendUint64(dst, uint64(x)), nil
	case Float:
		return binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(x))), nil
	case Double:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(float64(x))), nil
	case String:
		return appendString(dst, string(x)), nil
	case Binary:
		dst = appendUvarint(dst, uint64(len(x)))
		return append(dst, x...), nil
	case UUID:
		return append(dst, x[:]...), nil
	case Date:
		return binary.BigEndian.AppendUint32(dst, uint32(x)), nil
	case Time:
		return binary.BigEndian.AppendUint32(dst, uint32(x)), nil
	case Datetime:
		return binary.BigEndian.AppendUint64(dst, uint64(x)), nil
	case Duration:
		dst = binary.BigEndian.AppendUint32(dst, uint32(x.Months))
		return binary.BigEndian.AppendUint64(dst, uint64(x.Millis)), nil
	case YearMonthDuration:
		return binary.BigEndian.AppendUint32(dst, uint32(x)), nil
	case DayTimeDuration:
		return binary.BigEndian.AppendUint64(dst, uint64(x)), nil
	case Interval:
		dst = append(dst, byte(x.PointTag))
		dst = binary.BigEndian.AppendUint64(dst, uint64(x.Start))
		return binary.BigEndian.AppendUint64(dst, uint64(x.End)), nil
	case Point:
		return appendPoint(dst, x), nil
	case Line:
		dst = appendPoint(dst, x.A)
		return appendPoint(dst, x.B), nil
	case Rectangle:
		dst = appendPoint(dst, x.LowerLeft)
		return appendPoint(dst, x.UpperRight), nil
	case Circle:
		dst = appendPoint(dst, x.Center)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(x.Radius)), nil
	case Polygon:
		dst = appendUvarint(dst, uint64(len(x.Points)))
		for _, p := range x.Points {
			dst = appendPoint(dst, p)
		}
		return dst, nil
	case *Record:
		dst = appendUvarint(dst, uint64(len(x.Fields)))
		var err error
		for _, f := range x.Fields {
			dst = appendString(dst, f.Name)
			dst, err = EncodeValue(dst, f.Value)
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	case *OrderedList:
		return encodeList(dst, x.Items)
	case *UnorderedList:
		return encodeList(dst, x.Items)
	}
	return nil, fmt.Errorf("adm: cannot encode value of type %T", v)
}

func encodeList(dst []byte, items []Value) ([]byte, error) {
	dst = appendUvarint(dst, uint64(len(items)))
	var err error
	for _, it := range items {
		dst, err = EncodeValue(dst, it)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeValue decodes one self-describing value from src and returns it along
// with the number of bytes consumed.
func DecodeValue(src []byte) (Value, int, error) {
	if len(src) == 0 {
		return nil, 0, fmt.Errorf("adm: decode: empty input")
	}
	tag := TypeTag(src[0])
	body := src[1:]
	switch tag {
	case TagMissing:
		return Missing{}, 1, nil
	case TagNull:
		return Null{}, 1, nil
	case TagBoolean:
		if len(body) < 1 {
			return nil, 0, errTruncated(tag)
		}
		return Boolean(body[0] != 0), 2, nil
	case TagInt8:
		if len(body) < 1 {
			return nil, 0, errTruncated(tag)
		}
		return Int8(int8(body[0])), 2, nil
	case TagInt16:
		if len(body) < 2 {
			return nil, 0, errTruncated(tag)
		}
		return Int16(int16(binary.BigEndian.Uint16(body))), 3, nil
	case TagInt32:
		if len(body) < 4 {
			return nil, 0, errTruncated(tag)
		}
		return Int32(int32(binary.BigEndian.Uint32(body))), 5, nil
	case TagInt64:
		if len(body) < 8 {
			return nil, 0, errTruncated(tag)
		}
		return Int64(int64(binary.BigEndian.Uint64(body))), 9, nil
	case TagFloat:
		if len(body) < 4 {
			return nil, 0, errTruncated(tag)
		}
		return Float(math.Float32frombits(binary.BigEndian.Uint32(body))), 5, nil
	case TagDouble:
		if len(body) < 8 {
			return nil, 0, errTruncated(tag)
		}
		return Double(math.Float64frombits(binary.BigEndian.Uint64(body))), 9, nil
	case TagString:
		s, n, err := readString(body)
		if err != nil {
			return nil, 0, err
		}
		return String(s), 1 + n, nil
	case TagBinary:
		ln, n, err := readUvarint(body)
		if err != nil {
			return nil, 0, err
		}
		if uint64(len(body[n:])) < ln {
			return nil, 0, errTruncated(tag)
		}
		out := make([]byte, ln)
		copy(out, body[n:n+int(ln)])
		return Binary(out), 1 + n + int(ln), nil
	case TagUUID:
		if len(body) < 16 {
			return nil, 0, errTruncated(tag)
		}
		var u UUID
		copy(u[:], body[:16])
		return u, 17, nil
	case TagDate:
		if len(body) < 4 {
			return nil, 0, errTruncated(tag)
		}
		return Date(int32(binary.BigEndian.Uint32(body))), 5, nil
	case TagTime:
		if len(body) < 4 {
			return nil, 0, errTruncated(tag)
		}
		return Time(int32(binary.BigEndian.Uint32(body))), 5, nil
	case TagDatetime:
		if len(body) < 8 {
			return nil, 0, errTruncated(tag)
		}
		return Datetime(int64(binary.BigEndian.Uint64(body))), 9, nil
	case TagDuration:
		if len(body) < 12 {
			return nil, 0, errTruncated(tag)
		}
		return Duration{
			Months: int32(binary.BigEndian.Uint32(body)),
			Millis: int64(binary.BigEndian.Uint64(body[4:])),
		}, 13, nil
	case TagYearMonthDuration:
		if len(body) < 4 {
			return nil, 0, errTruncated(tag)
		}
		return YearMonthDuration(int32(binary.BigEndian.Uint32(body))), 5, nil
	case TagDayTimeDuration:
		if len(body) < 8 {
			return nil, 0, errTruncated(tag)
		}
		return DayTimeDuration(int64(binary.BigEndian.Uint64(body))), 9, nil
	case TagInterval:
		if len(body) < 17 {
			return nil, 0, errTruncated(tag)
		}
		return Interval{
			PointTag: TypeTag(body[0]),
			Start:    int64(binary.BigEndian.Uint64(body[1:])),
			End:      int64(binary.BigEndian.Uint64(body[9:])),
		}, 18, nil
	case TagPoint:
		p, n, err := readPoint(body)
		if err != nil {
			return nil, 0, err
		}
		return p, 1 + n, nil
	case TagLine:
		a, n1, err := readPoint(body)
		if err != nil {
			return nil, 0, err
		}
		b, n2, err := readPoint(body[n1:])
		if err != nil {
			return nil, 0, err
		}
		return Line{A: a, B: b}, 1 + n1 + n2, nil
	case TagRectangle:
		a, n1, err := readPoint(body)
		if err != nil {
			return nil, 0, err
		}
		b, n2, err := readPoint(body[n1:])
		if err != nil {
			return nil, 0, err
		}
		return Rectangle{LowerLeft: a, UpperRight: b}, 1 + n1 + n2, nil
	case TagCircle:
		c, n, err := readPoint(body)
		if err != nil {
			return nil, 0, err
		}
		if len(body[n:]) < 8 {
			return nil, 0, errTruncated(tag)
		}
		r := math.Float64frombits(binary.BigEndian.Uint64(body[n:]))
		return Circle{Center: c, Radius: r}, 1 + n + 8, nil
	case TagPolygon:
		cnt, n, err := readCount(body, 16)
		if err != nil {
			return nil, 0, err
		}
		pos := n
		pts := make([]Point, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			p, pn, err := readPoint(body[pos:])
			if err != nil {
				return nil, 0, err
			}
			pos += pn
			pts = append(pts, p)
		}
		return Polygon{Points: pts}, 1 + pos, nil
	case TagRecord:
		cnt, n, err := readCount(body, 2) // a name length and a tag
		if err != nil {
			return nil, 0, err
		}
		pos := n
		fields := make([]Field, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			name, sn, err := readString(body[pos:])
			if err != nil {
				return nil, 0, err
			}
			pos += sn
			v, vn, err := DecodeValue(body[pos:])
			if err != nil {
				return nil, 0, err
			}
			pos += vn
			fields = append(fields, Field{Name: name, Value: v})
		}
		return &Record{Fields: fields}, 1 + pos, nil
	case TagOrderedList:
		items, n, err := decodeListItems(body)
		if err != nil {
			return nil, 0, err
		}
		return &OrderedList{Items: items}, 1 + n, nil
	case TagUnorderedList:
		items, n, err := decodeListItems(body)
		if err != nil {
			return nil, 0, err
		}
		return &UnorderedList{Items: items}, 1 + n, nil
	}
	return nil, 0, fmt.Errorf("adm: decode: unknown tag %d", tag)
}

// skipValue returns the encoded length of the self-describing value at the
// start of src without building it, validating tags and bounds exactly like
// DecodeValue: it accepts exactly the bytes DecodeValue decodes. It is the
// walk that validates a LazyRecord at construction.
func skipValue(src []byte) (int, error) {
	if len(src) == 0 {
		return 0, fmt.Errorf("adm: decode: empty input")
	}
	tag := TypeTag(src[0])
	body := src[1:]
	if w := fixedWidth(tag); w >= 0 {
		if len(body) < w {
			return 0, errTruncated(tag)
		}
		return 1 + w, nil
	}
	switch tag {
	case TagString, TagBinary:
		ln, n, err := readUvarint(body)
		if err != nil {
			return 0, err
		}
		if uint64(len(body[n:])) < ln {
			return 0, errTruncated(tag)
		}
		return 1 + n + int(ln), nil
	case TagPolygon:
		cnt, n, err := readUvarint(body)
		if err != nil {
			return 0, err
		}
		if uint64(len(body[n:]))/16 < cnt {
			return 0, errTruncated(tag)
		}
		return 1 + n + 16*int(cnt), nil
	case TagRecord:
		cnt, n, err := readUvarint(body)
		if err != nil {
			return 0, err
		}
		pos := n
		for i := uint64(0); i < cnt; i++ {
			ln, sn, err := readUvarint(body[pos:])
			if err != nil {
				return 0, err
			}
			if uint64(len(body[pos+sn:])) < ln {
				return 0, errTruncated(tag)
			}
			pos += sn + int(ln)
			vn, err := skipValue(body[pos:])
			if err != nil {
				return 0, err
			}
			pos += vn
		}
		return 1 + pos, nil
	case TagOrderedList, TagUnorderedList:
		cnt, n, err := readUvarint(body)
		if err != nil {
			return 0, err
		}
		pos := n
		for i := uint64(0); i < cnt; i++ {
			vn, err := skipValue(body[pos:])
			if err != nil {
				return 0, err
			}
			pos += vn
		}
		return 1 + pos, nil
	}
	return 0, fmt.Errorf("adm: decode: unknown tag %d", tag)
}

// fixedWidth is the body length, after the tag byte, of a kind whose
// encoding has a fixed size, and -1 for the variable-length kinds and unknown
// tags.
func fixedWidth(tag TypeTag) int {
	switch tag {
	case TagMissing, TagNull:
		return 0
	case TagBoolean, TagInt8:
		return 1
	case TagInt16:
		return 2
	case TagInt32, TagFloat, TagDate, TagTime, TagYearMonthDuration:
		return 4
	case TagInt64, TagDouble, TagDatetime, TagDayTimeDuration:
		return 8
	case TagDuration:
		return 12
	case TagUUID, TagPoint:
		return 16
	case TagInterval:
		return 17
	case TagCircle:
		return 24
	case TagLine, TagRectangle:
		return 32
	}
	return -1
}

func decodeListItems(body []byte) ([]Value, int, error) {
	cnt, n, err := readCount(body, 1)
	if err != nil {
		return nil, 0, err
	}
	pos := n
	items := make([]Value, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		v, vn, err := DecodeValue(body[pos:])
		if err != nil {
			return nil, 0, err
		}
		pos += vn
		items = append(items, v)
	}
	return items, pos, nil
}

// AppendTuple appends the encoding of a tuple — a row of values in which nil
// marks an unset column — to dst: a uvarint column count, then per column a
// presence byte (0 for nil) followed, when it is 1, by the value's EncodeValue
// form. Run files and the cluster wire protocol both carry tuples this way.
func AppendTuple(dst []byte, cols []Value) ([]byte, error) {
	dst = appendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		if c == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		var err error
		if dst, err = EncodeValue(dst, c); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeTuple decodes one AppendTuple encoding from the front of src and
// returns the tuple with the number of bytes consumed. The bytes may come
// from a socket or a file, so corrupt or truncated input is an error, never a
// panic or an allocation the input chose the size of: every column costs at
// least its presence byte, which bounds the column count by the bytes present.
func DecodeTuple(src []byte) ([]Value, int, error) {
	ncols, pos, err := readCount(src, 1)
	if err != nil {
		return nil, 0, fmt.Errorf("adm: decode tuple: column count: %w", err)
	}
	cols := make([]Value, ncols)
	for c := range cols {
		if pos >= len(src) {
			return nil, 0, fmt.Errorf("adm: decode tuple: truncated at column %d", c)
		}
		presence := src[pos]
		pos++
		switch presence {
		case 0:
		case 1:
			v, n, err := DecodeValue(src[pos:])
			if err != nil {
				return nil, 0, fmt.Errorf("adm: decode tuple: column %d: %w", c, err)
			}
			cols[c] = v
			pos += n
		default:
			return nil, 0, fmt.Errorf("adm: decode tuple: column %d has presence byte %d", c, presence)
		}
	}
	return cols, pos, nil
}

func errTruncated(tag TypeTag) error {
	return fmt.Errorf("adm: decode %s: truncated input", tag)
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// readCount reads an element count that is about to size an allocation. The
// bytes may come from a socket or a file: every element costs at least min
// bytes, so a count the remaining input cannot back is corrupt.
func readCount(src []byte, min int) (uint64, int, error) {
	cnt, n, err := readUvarint(src)
	if err != nil {
		return 0, 0, err
	}
	if cnt > uint64(len(src)-n)/uint64(min) {
		return 0, 0, fmt.Errorf("adm: decode: count %d exceeds the %d bytes present", cnt, len(src)-n)
	}
	return cnt, n, nil
}

func readUvarint(src []byte) (uint64, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("adm: decode: bad varint")
	}
	return v, n, nil
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(src []byte) (string, int, error) {
	ln, n, err := readUvarint(src)
	if err != nil {
		return "", 0, err
	}
	if uint64(len(src[n:])) < ln {
		return "", 0, fmt.Errorf("adm: decode string: truncated input")
	}
	return string(src[n : n+int(ln)]), n + int(ln), nil
}

func appendPoint(dst []byte, p Point) []byte {
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.X))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Y))
}

func readPoint(src []byte) (Point, int, error) {
	if len(src) < 16 {
		return Point{}, 0, fmt.Errorf("adm: decode point: truncated input")
	}
	return pointAt(src), 16, nil
}

// pointAt decodes the point in the first 16 bytes of src, which must hold
// them.
func pointAt(src []byte) Point {
	return Point{
		X: math.Float64frombits(binary.BigEndian.Uint64(src)),
		Y: math.Float64frombits(binary.BigEndian.Uint64(src[8:])),
	}
}

// EncodeKey encodes a value for use as an index key. Two values get the same
// key exactly when Compare finds them equal, and the byte-wise order of keys
// is Compare's order wherever Compare defines one. A number's key is written
// from its value (see appendNumberKey), so Int8(5), Int64(5) and Double(5)
// share it; a duration's is Compare's millisecond count, so P1M and P30D share
// it. A record, list or bag is keyed by its items' keys — a record's fields in
// name order, a bag's items in key order — each behind a 0x01 byte, then a
// 0x00, and Compare orders composites by these keys: inside one, values of
// different kinds order by the kind's tag. No key is a proper prefix of
// another, which composite keys (a secondary key followed by the primary key)
// rely on. Binary keys are equality-only: a length, then the bytes.
func EncodeKey(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case Missing:
		return append(dst, 0x00)
	case Null:
		return append(dst, 0x01)
	case Boolean:
		if x {
			return append(dst, 0x02, 1)
		}
		return append(dst, 0x02, 0)
	case Int8, Int16, Int32, Int64, Float, Double:
		return appendNumberKey(dst, v)
	case String:
		// The 0x00 terminator must not occur inside: a 0x00 or 0x01 byte is
		// written as 0x01 and the byte plus one, which keeps byte order.
		dst = append(dst, 0x20)
		for {
			i := strings.IndexAny(string(x), "\x00\x01")
			if i < 0 {
				break
			}
			dst = append(append(dst, x[:i]...), 0x01, x[i]+1)
			x = x[i+1:]
		}
		dst = append(dst, x...)
		return append(dst, 0x00)
	case Date:
		dst = append(dst, 0x30)
		return binary.BigEndian.AppendUint32(dst, uint32(x)^0x80000000)
	case Time:
		dst = append(dst, 0x31)
		return binary.BigEndian.AppendUint32(dst, uint32(x)^0x80000000)
	case Datetime:
		return appendInt64Key(append(dst, 0x32), int64(x))
	case YearMonthDuration:
		return appendInt64Key(append(dst, 0x33), int64(x))
	case DayTimeDuration:
		return appendInt64Key(append(dst, 0x34), int64(x))
	case Duration:
		return appendInt64Key(append(dst, 0x35), x.totalMillis())
	case Interval:
		return appendInt64Key(appendInt64Key(append(dst, 0x36), x.Start), x.End)
	case UUID:
		dst = append(dst, 0x40)
		return append(dst, x[:]...)
	case Binary:
		dst = appendUvarint(append(dst, 0x41), uint64(len(x)))
		return append(dst, x...)
	case Point:
		return appendPointKey(append(dst, 0x50), x)
	case Line:
		return appendPointKey(appendPointKey(append(dst, 0x51), x.A), x.B)
	case Rectangle:
		return appendPointKey(appendPointKey(append(dst, 0x52), x.LowerLeft), x.UpperRight)
	case Circle:
		return appendNumberKey(appendPointKey(append(dst, 0x53), x.Center), Double(x.Radius))
	case Polygon:
		dst = appendUvarint(append(dst, 0x54), uint64(len(x.Points)))
		for _, p := range x.Points {
			dst = appendPointKey(dst, p)
		}
		return dst
	case *LazyRecord:
		return EncodeKey(dst, x.Materialize())
	case *Record:
		dst = append(dst, 0x60)
		for _, f := range x.SortedFields() {
			dst = EncodeKey(EncodeKey(append(dst, 0x01), String(f.Name)), f.Value)
		}
		return append(dst, 0x00)
	case *OrderedList:
		dst = append(dst, 0x61)
		for _, item := range x.Items {
			dst = EncodeKey(append(dst, 0x01), item)
		}
		return append(dst, 0x00)
	case *UnorderedList:
		keys := make([][]byte, len(x.Items))
		for i, item := range x.Items {
			keys[i] = EncodeKey(nil, item)
		}
		slices.SortFunc(keys, bytes.Compare)
		dst = append(dst, 0x62)
		for _, k := range keys {
			dst = append(append(dst, 0x01), k...)
		}
		return append(dst, 0x00)
	}
	panic(fmt.Sprintf("adm: no key for %T", v))
}

// appendInt64Key writes x sign-flipped and big-endian, so byte order is
// numeric order.
func appendInt64Key(dst []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(x)^0x8000000000000000)
}

// appendPointKey writes a point's coordinates as two number keys, so -0.0
// keys as 0.0 and every NaN as one NaN, as compareFloat has them.
func appendPointKey(dst []byte, p Point) []byte {
	return appendNumberKey(appendNumberKey(dst, Double(p.X)), Double(p.Y))
}

// KeyPartition maps key — EncodeKey's bytes for one or more values, appended —
// to one of n partitions: the FNV-1a 32-bit hash of the bytes, mod n. Storage
// places a record by its primary key with it and hash-partitioning connectors
// route tuples with it, so a keyed index nested-loop join finds each key on
// the partition that stores it. Partition numbers are persistent (partition
// directories, WAL records): the function must never change.
func KeyPartition(key []byte, n int) int {
	h := fnv.New32a()
	h.Write(key)
	// Reduce in uint32 space: int(Sum32()) is negative for large hashes on
	// 32-bit platforms and Go's % would preserve the sign.
	return int(h.Sum32() % uint32(n))
}

// Number key tags, in key order. A finite number below 2^64 in magnitude is
// keyed under the tag of its sign and the byte length n (3 to 8) of its
// integer part: keyPos+n-3 for a non-negative number, keyNeg-(n-3) for a
// negative one.
const (
	keyNegInf  = 0x08
	keyNegHuge = 0x09 // x <= -2^64
	keyNeg     = 0x0F
	keyPos     = 0x10
	keyPosHuge = 0x16 // x >= 2^64
	keyPosInf  = 0x17
	keyNaN     = 0x18 // every NaN: Compare puts NaN above every number
)

// appendNumberKey writes a number's key from its value, never its width.
// After the tag come the integer part's magnitude as n big-endian bytes (at
// least three, so every integer below 2^24 keys to five bytes), then either a
// 0x00 byte for an integral value or the fraction in 7-bit groups, each
// shifted left one bit with the low bit set on every group but the last. The
// bytes after the tag are complemented for a negative number. A NaN, an
// infinity and a magnitude of 2^64 or more (only a float reaches it, and it is
// integral there) each have their own tag; the last is followed by the
// magnitude's float64 bits. -0.0 keys as 0.
func appendNumberKey(dst []byte, v Value) []byte {
	i, f, isFloat := number(v)
	neg, mag, frac := i < 0, uint64(i), 0.0
	if isFloat {
		a := math.Abs(f)
		switch {
		case f != f:
			return append(dst, keyNaN)
		case math.IsInf(f, 1):
			return append(dst, keyPosInf)
		case math.IsInf(f, -1):
			return append(dst, keyNegInf)
		case a >= 1<<64 && f > 0:
			return binary.BigEndian.AppendUint64(append(dst, keyPosHuge), math.Float64bits(a))
		case a >= 1<<64:
			return binary.BigEndian.AppendUint64(append(dst, keyNegHuge), ^math.Float64bits(a))
		}
		whole := math.Trunc(a)
		neg, mag, frac = f < 0, uint64(whole), a-whole
	} else if neg {
		mag = -mag
	}
	n := max(3, (bits.Len64(mag)+7)/8)
	tag := byte(keyPos + n - 3)
	if neg {
		tag = byte(keyNeg - (n - 3))
	}
	start := len(dst) + 1
	dst = binary.BigEndian.AppendUint64(append(dst, tag), mag<<(64-8*n))[:start+n]
	if frac == 0 {
		dst = append(dst, 0)
	}
	for frac != 0 { // every step is exact: a float's fraction is finite in binary
		frac *= 128
		group := math.Trunc(frac)
		frac -= group
		b := byte(group) << 1
		if frac != 0 {
			b |= 1
		}
		dst = append(dst, b)
	}
	if neg {
		for k := start; k < len(dst); k++ {
			dst[k] = ^dst[k]
		}
	}
	return dst
}
