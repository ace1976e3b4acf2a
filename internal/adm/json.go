package adm

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the JSON rendering of v to dst and returns the extended
// slice. It is the wire format of the HTTP service layer's NDJSON result
// streams, so the mapping favors plain JSON consumers over round-tripping:
//
//   - records render as objects (field order preserved) and both list kinds
//     as arrays;
//   - MISSING and NULL both render as null (JSON has no MISSING);
//   - temporal values render as ISO strings ("2014-02-20T08:00:00.000",
//     "P30D"), spatial points as [x, y] pairs and the other spatial types as
//     objects of points;
//   - NaN and the infinities, which JSON cannot carry, render as null;
//   - binary renders as lowercase hex and UUIDs in canonical form;
//   - strings are escaped exactly as encoding/json escapes them.
//
// A *LazyRecord is written in one walk over its stored bytes, and is never
// materialized: its declared fields in type order (a missing one omitted, a
// null one as null), then its open fields, which is the order Materialize
// gives. One already materialized is written from its
// cached *Record.
func AppendJSON(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case *LazyRecord:
		return x.appendJSON(dst)
	case Missing, Null:
		return append(dst, "null"...)
	case Boolean:
		return strconv.AppendBool(dst, bool(x))
	case Int8:
		return strconv.AppendInt(dst, int64(x), 10)
	case Int16:
		return strconv.AppendInt(dst, int64(x), 10)
	case Int32:
		return strconv.AppendInt(dst, int64(x), 10)
	case Int64:
		return strconv.AppendInt(dst, int64(x), 10)
	case Float:
		return appendJSONFloat(dst, float64(x), 32)
	case Double:
		return appendJSONFloat(dst, float64(x), 64)
	case String:
		return appendJSONString(dst, string(x))
	case Binary:
		return appendJSONHex(dst, x)
	case UUID:
		return appendJSONUUID(dst, x[:])
	case Date:
		return appendJSONDate(dst, int64(x))
	case Time:
		return appendJSONTime(dst, int64(x))
	case Datetime:
		return appendJSONDatetime(dst, int64(x))
	case Duration:
		return appendJSONDuration(dst, x.Months, x.Millis)
	case YearMonthDuration:
		return appendJSONDuration(dst, int32(x), 0)
	case DayTimeDuration:
		return appendJSONDuration(dst, 0, int64(x))
	case Interval:
		return appendJSONInterval(dst, x)
	case Point:
		return appendJSONPoint(dst, x)
	case Line:
		return appendJSONLine(dst, x)
	case Rectangle:
		return appendJSONRectangle(dst, x)
	case Circle:
		return appendJSONCircle(dst, x)
	case Polygon:
		dst = append(dst, '[')
		for i, p := range x.Points {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONPoint(dst, p)
		}
		return append(dst, ']')
	case *Record:
		dst = append(dst, '{')
		for i, f := range x.Fields {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, f.Name)
			dst = append(dst, ':')
			dst = AppendJSON(dst, f.Value)
		}
		return append(dst, '}')
	case *OrderedList:
		return appendJSONList(dst, x.Items)
	case *UnorderedList:
		return appendJSONList(dst, x.Items)
	}
	// Unknown value kinds degrade to their ADM text as a JSON string rather
	// than emitting invalid JSON.
	return appendJSONString(dst, v.String())
}

// appendJSONEncoded appends the JSON rendering of the self-describing value
// at the front of src, which is what AppendJSON writes for the value
// DecodeValue decodes from src, and returns the number of bytes it read. Its
// tag switch mirrors DecodeValue's, bounds checks included: ok is false
// exactly where DecodeValue fails, and dst may then end in a partial
// rendering.
func appendJSONEncoded(dst, src []byte) ([]byte, int, bool) {
	if len(src) == 0 {
		return dst, 0, false
	}
	tag := TypeTag(src[0])
	body := src[1:]
	if w := fixedWidth(tag); w >= 0 {
		if len(body) < w {
			return dst, 0, false
		}
		return appendJSONFixed(dst, tag, body), 1 + w, true
	}
	switch tag {
	case TagString, TagBinary:
		ln, n, err := readUvarint(body)
		if err != nil || uint64(len(body[n:])) < ln {
			return dst, 0, false
		}
		s := body[n : n+int(ln)]
		if tag == TagString {
			return appendJSONString(dst, s), 1 + n + len(s), true
		}
		return appendJSONHex(dst, s), 1 + n + len(s), true
	case TagPolygon:
		cnt, pos, err := readCount(body, 16)
		if err != nil {
			return dst, 0, false
		}
		dst = append(dst, '[')
		for i := uint64(0); i < cnt; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONPoint(dst, pointAt(body[pos:]))
			pos += 16
		}
		return append(dst, ']'), 1 + pos, true
	case TagRecord:
		cnt, pos, err := readCount(body, 2) // a name length and a tag
		if err != nil {
			return dst, 0, false
		}
		dst = append(dst, '{')
		for i := uint64(0); i < cnt; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			ln, sn, err := readUvarint(body[pos:])
			if err != nil || uint64(len(body[pos+sn:])) < ln {
				return dst, 0, false
			}
			pos += sn
			dst = appendJSONString(dst, body[pos:pos+int(ln)])
			dst = append(dst, ':')
			pos += int(ln)
			out, vn, ok := appendJSONEncoded(dst, body[pos:])
			if !ok {
				return out, 0, false
			}
			dst, pos = out, pos+vn
		}
		return append(dst, '}'), 1 + pos, true
	case TagOrderedList, TagUnorderedList:
		cnt, pos, err := readCount(body, 1)
		if err != nil {
			return dst, 0, false
		}
		dst = append(dst, '[')
		for i := uint64(0); i < cnt; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			out, vn, ok := appendJSONEncoded(dst, body[pos:])
			if !ok {
				return out, 0, false
			}
			dst, pos = out, pos+vn
		}
		return append(dst, ']'), 1 + pos, true
	}
	return dst, 0, false
}

// appendJSONFixed renders a value of a fixed-width kind from its body, which
// holds at least fixedWidth(tag) bytes.
func appendJSONFixed(dst []byte, tag TypeTag, body []byte) []byte {
	be := binary.BigEndian
	switch tag {
	case TagMissing, TagNull:
		return append(dst, "null"...)
	case TagBoolean:
		return strconv.AppendBool(dst, body[0] != 0)
	case TagInt8:
		return strconv.AppendInt(dst, int64(int8(body[0])), 10)
	case TagInt16:
		return strconv.AppendInt(dst, int64(int16(be.Uint16(body))), 10)
	case TagInt32:
		return strconv.AppendInt(dst, int64(int32(be.Uint32(body))), 10)
	case TagInt64:
		return strconv.AppendInt(dst, int64(be.Uint64(body)), 10)
	case TagFloat:
		return appendJSONFloat(dst, float64(math.Float32frombits(be.Uint32(body))), 32)
	case TagDouble:
		return appendJSONFloat(dst, math.Float64frombits(be.Uint64(body)), 64)
	case TagUUID:
		return appendJSONUUID(dst, body[:16])
	case TagDate:
		return appendJSONDate(dst, int64(int32(be.Uint32(body))))
	case TagTime:
		return appendJSONTime(dst, int64(int32(be.Uint32(body))))
	case TagDatetime:
		return appendJSONDatetime(dst, int64(be.Uint64(body)))
	case TagDuration:
		return appendJSONDuration(dst, int32(be.Uint32(body)), int64(be.Uint64(body[4:])))
	case TagYearMonthDuration:
		return appendJSONDuration(dst, int32(be.Uint32(body)), 0)
	case TagDayTimeDuration:
		return appendJSONDuration(dst, 0, int64(be.Uint64(body)))
	case TagInterval:
		return appendJSONInterval(dst, Interval{
			PointTag: TypeTag(body[0]),
			Start:    int64(be.Uint64(body[1:])),
			End:      int64(be.Uint64(body[9:])),
		})
	case TagPoint:
		return appendJSONPoint(dst, pointAt(body))
	case TagLine:
		return appendJSONLine(dst, Line{A: pointAt(body), B: pointAt(body[16:])})
	case TagRectangle:
		return appendJSONRectangle(dst, Rectangle{LowerLeft: pointAt(body), UpperRight: pointAt(body[16:])})
	case TagCircle:
		return appendJSONCircle(dst, Circle{Center: pointAt(body), Radius: math.Float64frombits(be.Uint64(body[16:]))})
	}
	return dst
}

func appendJSONList(dst []byte, items []Value) []byte {
	dst = append(dst, '[')
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSON(dst, it)
	}
	return append(dst, ']')
}

func appendJSONPoint(dst []byte, p Point) []byte {
	dst = append(dst, '[')
	dst = appendJSONFloat(dst, p.X, 64)
	dst = append(dst, ',')
	dst = appendJSONFloat(dst, p.Y, 64)
	return append(dst, ']')
}

func appendJSONLine(dst []byte, l Line) []byte {
	dst = appendJSONPoint(append(dst, `{"a":`...), l.A)
	dst = appendJSONPoint(append(dst, `,"b":`...), l.B)
	return append(dst, '}')
}

func appendJSONRectangle(dst []byte, r Rectangle) []byte {
	dst = appendJSONPoint(append(dst, `{"lower-left":`...), r.LowerLeft)
	dst = appendJSONPoint(append(dst, `,"upper-right":`...), r.UpperRight)
	return append(dst, '}')
}

func appendJSONCircle(dst []byte, c Circle) []byte {
	dst = appendJSONPoint(append(dst, `{"center":`...), c.Center)
	dst = appendJSONFloat(append(dst, `,"radius":`...), c.Radius, 64)
	return append(dst, '}')
}

func appendJSONFloat(dst []byte, f float64, bits int) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, bits)
}

// jsonSafe marks the ASCII bytes a JSON string carries as they are: every
// printable one but `"`, `\` and the HTML-sensitive <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		switch b {
		case '"', '\\', '<', '>', '&':
		default:
			safe[b] = true
		}
	}
	return safe
}()

const (
	hexDigits          = "0123456789abcdef"
	lineSeparator      = 0x2028 // valid in JSON but not in JavaScript source, so escaped
	paragraphSeparator = 0x2029
)

// appendJSONString appends s as a JSON string literal, escaped byte for byte
// as encoding/json escapes it: runs of safe bytes are copied whole; `"` and
// `\` take a backslash; \b, \f, \n, \r and \t their short forms; other
// control bytes and <, > and & a \u00XX escape; U+2028 and U+2029 the
// escapes \u2028 and \u2029; and each byte of invalid UTF-8 \ufffd.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// Converting at most utf8.UTFMax bytes keeps a []byte's string on the
		// stack.
		c, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case c == lineSeparator || c == paragraphSeparator:
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func appendJSONHex(dst, b []byte) []byte {
	dst = hex.AppendEncode(append(dst, '"'), b)
	return append(dst, '"')
}

// appendJSONUUID writes the 16 bytes of u in the canonical 8-4-4-4-12 form.
func appendJSONUUID(dst, u []byte) []byte {
	dst = append(dst, '"')
	for i, group := range [...][2]int{{0, 4}, {4, 6}, {6, 8}, {8, 10}, {10, 16}} {
		if i > 0 {
			dst = append(dst, '-')
		}
		dst = hex.AppendEncode(dst, u[group[0]:group[1]])
	}
	return append(dst, '"')
}

const millisPerDay = 86400000

func appendJSONDate(dst []byte, days int64) []byte {
	dst = appendCivilDate(append(dst, '"'), days)
	return append(dst, '"')
}

func appendJSONTime(dst []byte, millis int64) []byte {
	dst = appendClock(append(dst, '"'), millis)
	return append(dst, '"')
}

func appendJSONDatetime(dst []byte, millis int64) []byte {
	days, ms := millis/millisPerDay, millis%millisPerDay
	if ms < 0 {
		days, ms = days-1, ms+millisPerDay
	}
	dst = appendCivilDate(append(dst, '"'), days)
	dst = appendClock(append(dst, 'T'), ms)
	return append(dst, '"')
}

func appendJSONDuration(dst []byte, months int32, millis int64) []byte {
	dst = appendDuration(append(dst, '"'), months, millis)
	return append(dst, '"')
}

// appendJSONInterval writes an interval's bounds as values of its point
// type, each converted to that type first as intervalBoundString converts it.
func appendJSONInterval(dst []byte, x Interval) []byte {
	bound := func(dst []byte, chronon int64) []byte {
		switch x.PointTag {
		case TagDate:
			return appendJSONDate(dst, int64(int32(chronon)))
		case TagTime:
			return appendJSONTime(dst, int64(int32(chronon)))
		}
		return appendJSONDatetime(dst, chronon)
	}
	dst = bound(append(dst, `{"start":`...), x.Start)
	dst = bound(append(dst, `,"end":`...), x.End)
	return append(dst, '}')
}

// appendCivilDate writes the proleptic Gregorian date `days` after
// 1970-01-01 as YYYY-MM-DD, with the year padded as fmt's %04d pads it (so
// -5 is "-005"). The arithmetic is Howard Hinnant's days-to-civil: shift the
// epoch to 0000-03-01 so the leap day ends the year, then split into 400-year
// eras of 146 097 days.
func appendCivilDate(dst []byte, days int64) []byte {
	z := days + 719468 // days from 0000-03-01 to 1970-01-01
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097                                  // day of era, [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // year of era, [0, 399]
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // day of the March-based year, [0, 365]
	mp := (5*doy + 2) / 153                                // March-based month, [0, 11]
	day := doy - (153*mp+2)/5 + 1
	month, year := mp+3, yoe+era*400
	if month > 12 {
		month, year = month-12, year+1
	}
	dst = appendPadded(dst, year, 4)
	dst = appendPadded(append(dst, '-'), month, 2)
	return appendPadded(append(dst, '-'), day, 2)
}

// appendClock writes millis as hh:mm:ss.mmm with each part taken by
// truncating division, as Time's text is; a negative time of day therefore
// renders with signed parts ("00:00:00.-01"), like its ADM text.
func appendClock(dst []byte, millis int64) []byte {
	dst = appendPadded(dst, millis/3600000, 2)
	dst = appendPadded(append(dst, ':'), millis%3600000/60000, 2)
	dst = appendPadded(append(dst, ':'), millis%60000/1000, 2)
	return appendPadded(append(dst, '.'), millis%1000, 3)
}

// appendPadded appends v in decimal, zero-padded to width characters with a
// minus sign counted among them, as fmt's %0*d pads.
func appendPadded(dst []byte, v int64, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
		width--
	}
	digits := 1
	for x := u; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, u, 10)
}
