package adm

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Parse parses a single ADM value from its textual form, which is what
// Value.String writes and what external and load files hold. The textual
// form is a superset of JSON: in addition to JSON literals it accepts bags
// ("{{ ... }}"), unquoted field names, single-quoted strings, typed
// constructors such as datetime("2014-01-01T00:00:00"), date("2014-01-01"),
// point("1.0,2.0") and interval(date(...), date(...)), and the numeric
// suffixes of ParseNumber. A record may not repeat a field name. Strings,
// numbers and unquoted names are read by ParseString, ParseNumber and
// IdentLen, the literal codec the AQL lexer shares, so a value's text means
// the same in a data file and in a statement.
func Parse(input string) (Value, error) {
	v, n, err := ParsePrefix(input)
	if err != nil {
		return nil, err
	}
	if rest := strings.TrimLeft(input[n:], " \t\n\r"); rest != "" {
		return nil, fmt.Errorf("adm: parse: trailing input at offset %d", len(input)-len(rest))
	}
	return v, nil
}

// ParsePrefix reads the one value at the front of src, after any white
// space, as Parse does, and returns it with the number of bytes it read;
// whatever follows the value is left unread. On an error, n is the offset
// at which the text was refused. The AQL parser hands it the text from each
// '{', '[' or "{{" of a statement, so a literal is read as a value, not as
// an expression.
func ParsePrefix(src string) (v Value, n int, err error) {
	p := &valueParser{src: src}
	v, err = p.parseValue()
	if err != nil {
		return nil, p.pos, err
	}
	return v, p.pos, nil
}

type valueParser struct {
	src string
	pos int
}

func (p *valueParser) errf(format string, args ...any) error {
	return fmt.Errorf("adm: parse at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *valueParser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		break
	}
}

func (p *valueParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *valueParser) consume(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *valueParser) parseValue() (Value, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errf("unexpected end of input")
	}
	c := p.src[p.pos]
	switch {
	case p.consume("{{"):
		items, err := p.parseValues("}}")
		return &UnorderedList{Items: items}, err
	case p.consume("["):
		items, err := p.parseValues("]")
		return &OrderedList{Items: items}, err
	case p.consume("{"):
		rec := &Record{}
		return rec, p.parseItems("}", func() error {
			var name string
			var err error
			if c := p.peek(); c == '"' || c == '\'' {
				name, err = p.parseString()
			} else if name = p.parseIdent(); name == "" {
				err = p.errf("expected field name")
			}
			if err != nil {
				return err
			}
			if rec.Has(name) {
				return p.errf("repeated field name %q", name)
			}
			p.skipSpace()
			if !p.consume(":") {
				return p.errf("expected ':' after field name %q", name)
			}
			v, err := p.parseValue()
			rec.Fields = append(rec.Fields, Field{Name: name, Value: v})
			return err
		})
	case c == '"' || c == '\'':
		s, err := p.parseString()
		if err != nil {
			return nil, err
		}
		return String(s), nil
	case c == '-' || isDigit(c):
		v, n, err := ParseNumber(p.src[p.pos:])
		if err != nil {
			return nil, p.errf("%v", err)
		}
		p.pos += n
		return v, nil
	default:
		return p.parseWord()
	}
}

// parseItems parses the comma-separated items of a record, list, bag or
// interval up to close, the opening bracket already consumed, with item.
func (p *valueParser) parseItems(close string, item func() error) error {
	p.skipSpace()
	if p.consume(close) {
		return nil
	}
	for {
		p.skipSpace()
		if err := item(); err != nil {
			return err
		}
		p.skipSpace()
		if p.consume(close) {
			return nil
		}
		if !p.consume(",") {
			return p.errf("expected ',' or %q", close)
		}
	}
}

func (p *valueParser) parseValues(close string) ([]Value, error) {
	var items []Value
	err := p.parseItems(close, func() error {
		v, err := p.parseValue()
		items = append(items, v)
		return err
	})
	return items, err
}

func (p *valueParser) parseString() (string, error) {
	s, n, err := ParseString(p.src[p.pos:])
	if err != nil {
		return "", p.errf("%v", err)
	}
	p.pos += n
	return s, nil
}

// ParseString decodes the quoted string literal at the front of src and
// returns it with the number of bytes the literal spans, quotes included.
// The quote is src[0]: a double quote, or a single one as AQL also allows.
// The escapes are JSON's — \" \\ \/ \b \f \n \r \t and \uXXXX, where a
// surrogate pair is one rune and a lone surrogate U+FFFD, as in
// encoding/json — and \'; any other escape is an error. Every other byte
// stands for itself. A literal without escapes is returned as a substring of
// src, with no copy.
func ParseString(src string) (string, int, error) {
	if src == "" || (src[0] != '"' && src[0] != '\'') {
		return "", 0, errors.New("expected a quoted string")
	}
	quote := src[0]
	i := 1
	for i < len(src) && src[i] != quote && src[i] != '\\' {
		i++
	}
	if i < len(src) && src[i] == quote {
		return src[1:i], i + 1, nil
	}
	buf := []byte(src[1:i])
	for i < len(src) {
		c := src[i]
		if c == quote {
			return string(buf), i + 1, nil
		}
		if c != '\\' {
			buf = append(buf, c)
			i++
			continue
		}
		if i+1 >= len(src) {
			break
		}
		esc := src[i+1]
		i += 2
		switch esc {
		case '"', '\\', '/', '\'':
			buf = append(buf, esc)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			r, ok := hex4(src[i:])
			if !ok {
				return "", 0, fmt.Errorf("bad \\u escape %q", src[i-2:min(i+4, len(src))])
			}
			i += 4
			if utf16.IsSurrogate(r) && strings.HasPrefix(src[i:], `\u`) {
				if r2, ok := hex4(src[i+2:]); ok {
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						r = pair
						i += 6
					}
				}
			}
			// A lone surrogate is not a rune: AppendRune writes U+FFFD.
			buf = utf8.AppendRune(buf, r)
		default:
			return "", 0, fmt.Errorf("bad escape \\%c in string literal", esc)
		}
	}
	return "", 0, errors.New("unterminated string literal")
}

// hex4 decodes the four hex digits at the front of s.
func hex4(s string) (rune, bool) {
	n, err := strconv.ParseUint(s[:min(4, len(s))], 16, 16)
	return rune(n), err == nil && len(s) >= 4
}

// ParseNumber decodes the numeric literal at the front of src and returns
// its value with the number of bytes the literal spans. The literal is an
// optional '-', then JSON number syntax (leading zeros allowed; a '.' or an
// exponent belongs to the number only with a digit after it), then an
// optional suffix i8, i16, i32, i64, f or d, which counts only when no
// identifier character follows it. A suffix names the type. Without one an
// integer is an int32 when it fits and an int64 otherwise, and a fraction or
// exponent makes a double. The range check runs on the signed value, so
// -128i8 is an int8. A literal that is well formed but out of its type's
// range is an error whose n still spans it.
func ParseNumber(src string) (Value, int, error) {
	digits := func(i int) int {
		for i < len(src) && isDigit(src[i]) {
			i++
		}
		return i
	}
	start := 0
	if src != "" && src[0] == '-' {
		start = 1
	}
	end := digits(start)
	if end == start {
		return nil, 0, errors.New("expected a number")
	}
	typeName := ""
	if end+1 < len(src) && src[end] == '.' && isDigit(src[end+1]) {
		end, typeName = digits(end+1), "double"
	}
	if end < len(src) && (src[end] == 'e' || src[end] == 'E') {
		i := end + 1
		if i < len(src) && (src[i] == '-' || src[i] == '+') {
			i++
		}
		if i < len(src) && isDigit(src[i]) {
			end, typeName = digits(i), "double"
		}
	}
	n := end
	for _, s := range &numberSuffixes {
		if rest := src[end:]; strings.HasPrefix(rest, s[0]) && (len(rest) == len(s[0]) || !isIdentByte(rest[len(s[0])])) {
			typeName, n = s[1], end+len(s[0])
			break
		}
	}
	if typeName == "" {
		if i, err := strconv.ParseInt(src[:end], 10, 64); err == nil && int64(int32(i)) == i {
			return Int32(i), n, nil
		}
		typeName = "int64"
	}
	v, err := Construct(typeName, src[:end])
	if err != nil {
		return nil, n, fmt.Errorf("bad number literal %q: %w", src[:n], errors.Unwrap(err))
	}
	return v, n, nil
}

// numberSuffixes maps each numeric suffix to the type it names.
var numberSuffixes = [...][2]string{{"i8", "int8"}, {"i16", "int16"}, {"i32", "int32"}, {"i64", "int64"}, {"f", "float"}, {"d", "double"}}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isIdentByte reports whether c may continue an identifier: a letter, a
// digit, '_' or a byte of a non-ASCII rune.
func isIdentByte(c byte) bool {
	return isDigit(c) || c == '_' || c >= utf8.RuneSelf || ('a' <= c|0x20 && c|0x20 <= 'z')
}

// parseIdent consumes an identifier: a letter or '_', then what IdentLen
// takes, as in an AQL statement.
func (p *valueParser) parseIdent() string {
	if p.pos == len(p.src) || !IsIdentStart(p.src[p.pos]) {
		return ""
	}
	start := p.pos
	p.pos += IdentLen(p.src[p.pos:])
	return p.src[start:p.pos]
}

// IsIdentStart reports whether c may begin an identifier: a letter or '_'.
// A letter is a byte that unicode.IsLetter takes as a rune.
func IsIdentStart(c byte) bool { return unicode.IsLetter(rune(c)) || c == '_' }

// IdentLen returns the length of the run of identifier characters at the
// front of s: letters, digits, '_', and a '-' that is not first and has a
// letter after it. So "user-since" is one identifier, as ADM field names
// need, while "a-1" and "a - b" are not. AQL's lexer and the value parser
// read identifiers with it, so an unquoted field name means the same in a
// statement and in a data file.
func IdentLen(s string) int {
	i := 0
	for i < len(s) {
		c := s[i]
		if unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' ||
			c == '-' && i > 0 && i+1 < len(s) && unicode.IsLetter(rune(s[i+1])) {
			i++
			continue
		}
		break
	}
	return i
}

// parseWord handles bare literals (true, false, null, missing) and typed
// constructors like datetime("...").
func (p *valueParser) parseWord() (Value, error) {
	word := p.parseIdent()
	if word == "" {
		return nil, p.errf("unexpected character %q", p.peek())
	}
	switch word {
	case "true":
		return Boolean(true), nil
	case "false":
		return Boolean(false), nil
	case "null":
		return Null{}, nil
	case "missing":
		return Missing{}, nil
	}
	p.skipSpace()
	if !p.consume("(") {
		return nil, p.errf("unknown literal %q", word)
	}
	p.skipSpace()
	// interval(start, end) takes two constructor arguments.
	if word == "interval" {
		bounds, err := p.parseValues(")")
		if err != nil {
			return nil, err
		}
		if len(bounds) != 2 {
			return nil, p.errf("interval takes two bounds, got %d", len(bounds))
		}
		return NewInterval(bounds[0], bounds[1])
	}
	arg, err := p.parseString()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if !p.consume(")") {
		return nil, p.errf("expected ')' after %s constructor", word)
	}
	return Construct(word, arg)
}

// Construct builds a value of the named ADM type from its string literal form,
// e.g. Construct("datetime", "2014-01-01T00:00:00").
func Construct(typeName, literal string) (Value, error) {
	switch typeName {
	case "string":
		return String(literal), nil
	case "boolean":
		switch literal {
		case "true":
			return Boolean(true), nil
		case "false":
			return Boolean(false), nil
		}
		return nil, fmt.Errorf("adm: bad boolean %q", literal)
	case "int8":
		n, err := strconv.ParseInt(literal, 10, 8)
		return Int8(n), err
	case "int16":
		n, err := strconv.ParseInt(literal, 10, 16)
		return Int16(n), err
	case "int32", "int":
		n, err := strconv.ParseInt(literal, 10, 32)
		return Int32(n), err
	case "int64":
		n, err := strconv.ParseInt(literal, 10, 64)
		return Int64(n), err
	case "float":
		f, err := strconv.ParseFloat(literal, 32)
		return Float(f), err
	case "double":
		f, err := strconv.ParseFloat(literal, 64)
		return Double(f), err
	case "date":
		return ParseDate(literal)
	case "time":
		return ParseTime(literal)
	case "datetime":
		return ParseDatetime(literal)
	case "duration":
		return ParseDuration(literal)
	case "year-month-duration":
		d, err := ParseDuration(literal)
		if err != nil {
			return nil, err
		}
		return YearMonthDuration(d.(Duration).Months), nil
	case "day-time-duration":
		d, err := ParseDuration(literal)
		if err != nil {
			return nil, err
		}
		return DayTimeDuration(d.(Duration).Millis), nil
	case "point":
		return ParsePoint(literal)
	case "line":
		return parseLine(literal)
	case "rectangle":
		return parseRectangle(literal)
	case "circle":
		return parseCircle(literal)
	case "polygon":
		return parsePolygon(literal)
	case "uuid":
		return parseUUID(literal)
	case "hex":
		return parseHexBinary(literal)
	}
	return nil, fmt.Errorf("adm: unknown constructor %q", typeName)
}

// NewInterval builds an Interval value from two temporal point values of the
// same tag.
func NewInterval(start, end Value) (Value, error) {
	if start.Tag() != end.Tag() {
		return nil, fmt.Errorf("adm: interval bounds must have the same type, got %s and %s", start.Tag(), end.Tag())
	}
	var s, e int64
	switch a := start.(type) {
	case Date:
		s, e = int64(a), int64(end.(Date))
	case Time:
		s, e = int64(a), int64(end.(Time))
	case Datetime:
		s, e = int64(a), int64(end.(Datetime))
	default:
		return nil, fmt.Errorf("adm: interval bounds must be date, time or datetime, got %s", start.Tag())
	}
	if s > e {
		return nil, fmt.Errorf("adm: interval start must not be after end")
	}
	return Interval{PointTag: start.Tag(), Start: s, End: e}, nil
}

// ParseDate parses "YYYY-MM-DD" into a Date.
func ParseDate(s string) (Value, error) {
	t, err := time.ParseInLocation("2006-01-02", s, time.UTC)
	if err != nil {
		return nil, fmt.Errorf("adm: bad date %q: %w", s, err)
	}
	return Date(int32(t.Unix() / 86400)), nil
}

// ParseTime parses "HH:MM[:SS[.fff]][Z]" into a Time; a numeric offset is
// refused. The literal's shape picks one layout, as a layout tried in vain
// allocates its error; time reads a fraction of any width after the seconds.
func ParseTime(s string) (Value, error) {
	base := strings.TrimSuffix(s, "Z")
	layout := "15:04:05"
	if strings.Count(base, ":") < 2 {
		layout = "15:04"
	}
	t, err := time.ParseInLocation(layout, base, time.UTC)
	if err != nil {
		return nil, fmt.Errorf("adm: bad time %q", s)
	}
	ms := t.Hour()*3600000 + t.Minute()*60000 + t.Second()*1000 + t.Nanosecond()/1e6
	return Time(int32(ms)), nil
}

// ParseDatetime parses an ISO-8601 datetime ("2014-01-01T00:00:00", with
// optional fractional seconds and a "Z", "+07:00" or "+0700" offset) into a
// Datetime. The literal's shape picks one layout, as a layout tried in vain
// allocates its error; time reads a fraction after any layout's seconds.
func ParseDatetime(s string) (Value, error) {
	clock := s[strings.IndexByte(s, 'T')+1:]
	layout := "2006-01-02T15:04:05"
	switch zone := strings.IndexAny(clock, "+-"); {
	case strings.HasSuffix(clock, "Z") || zone >= 0 && len(clock)-zone == len("+07:00"):
		layout += "Z07:00"
	case zone >= 0:
		layout += "-0700"
	case strings.Count(clock, ":") < 2:
		layout = "2006-01-02T15:04"
	}
	t, err := time.ParseInLocation(layout, s, time.UTC)
	if err != nil {
		return nil, fmt.Errorf("adm: bad datetime %q", s)
	}
	return Datetime(t.UnixMilli()), nil
}

// ParseDuration parses an ISO-8601 duration such as "P30D", "P1Y2M",
// "PT1H30M", "P1DT2H3M4.005S", optionally negated with a leading '-'.
func ParseDuration(s string) (Value, error) {
	orig := s
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if !strings.HasPrefix(s, "P") {
		return nil, fmt.Errorf("adm: bad duration %q", orig)
	}
	s = s[1:]
	var months int32
	var millis int64
	datePart := s
	timePart := ""
	if idx := strings.IndexByte(s, 'T'); idx >= 0 {
		datePart, timePart = s[:idx], s[idx+1:]
	}
	var err error
	if datePart != "" {
		months, millis, err = parseDurationPart(datePart, false)
		if err != nil {
			return nil, fmt.Errorf("adm: bad duration %q: %w", orig, err)
		}
	}
	if timePart != "" {
		_, tm, err := parseDurationPart(timePart, true)
		if err != nil {
			return nil, fmt.Errorf("adm: bad duration %q: %w", orig, err)
		}
		millis += tm
	}
	if neg {
		months, millis = -months, -millis
	}
	return Duration{Months: months, Millis: millis}, nil
}

// parseDurationPart reads the number-designator pairs of a duration's date
// or time part. It counts in integers, so a duration's text reads back to
// the millisecond; a fraction counts in days, hours, minutes and seconds,
// truncated to the millisecond, and not in years, months or weeks.
func parseDurationPart(s string, isTime bool) (int32, int64, error) {
	var months int32
	var millis int64
	for s != "" {
		i := 0
		for i < len(s) && (isDigit(s[i]) || s[i] == '.') {
			i++
		}
		if i == 0 {
			return 0, 0, fmt.Errorf("missing number before %q", s[:1])
		}
		if i == len(s) {
			return 0, 0, fmt.Errorf("trailing number %q", s)
		}
		whole, frac, _ := strings.Cut(s[:i], ".")
		n, err := parseDigits(whole)
		if err != nil {
			return 0, 0, err
		}
		frac = frac[:min(len(frac), 9)]
		f, err := parseDigits(frac)
		if err != nil {
			return 0, 0, err
		}
		var unit int64
		switch c := s[i]; {
		case c == 'Y' && !isTime:
			months += int32(n) * 12
		case c == 'M' && !isTime:
			months += int32(n)
		case c == 'W' && !isTime:
			millis += n * 7 * 86400000
		case c == 'D' && !isTime:
			unit = 86400000
		case c == 'H' && isTime:
			unit = 3600000
		case c == 'M' && isTime:
			unit = 60000
		case c == 'S' && isTime:
			unit = 1000
		default:
			return 0, 0, fmt.Errorf("unexpected designator %q", string(c))
		}
		scale := int64(1)
		for range frac {
			scale *= 10
		}
		millis += n*unit + f*unit/scale
		s = s[i+1:]
	}
	return months, millis, nil
}

// parseDigits reads a run of decimal digits, the empty run as zero.
func parseDigits(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

// ParsePoint parses "x,y" into a Point.
func ParsePoint(s string) (Value, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("adm: bad point %q", s)
	}
	x, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	y, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("adm: bad point %q", s)
	}
	return Point{X: x, Y: y}, nil
}

func parsePointList(s string) ([]Point, error) {
	fields := strings.Fields(s)
	pts := make([]Point, 0, len(fields))
	for _, f := range fields {
		p, err := ParsePoint(f)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p.(Point))
	}
	return pts, nil
}

func parseLine(s string) (Value, error) {
	a, b, err := parsePointPair(s, "line")
	return Line{A: a, B: b}, err
}

func parseRectangle(s string) (Value, error) {
	a, b, err := parsePointPair(s, "rectangle")
	return Rectangle{LowerLeft: a, UpperRight: b}, err
}

func parsePointPair(s, kind string) (Point, Point, error) {
	pts, err := parsePointList(s)
	if err != nil || len(pts) != 2 {
		return Point{}, Point{}, fmt.Errorf("adm: bad %s %q", kind, s)
	}
	return pts[0], pts[1], nil
}

func parseCircle(s string) (Value, error) {
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return nil, fmt.Errorf("adm: bad circle %q", s)
	}
	c, err := ParsePoint(fields[0])
	if err != nil {
		return nil, fmt.Errorf("adm: bad circle %q", s)
	}
	r, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return nil, fmt.Errorf("adm: bad circle %q", s)
	}
	return Circle{Center: c.(Point), Radius: r}, nil
}

func parsePolygon(s string) (Value, error) {
	pts, err := parsePointList(s)
	if err != nil || len(pts) < 3 {
		return nil, fmt.Errorf("adm: bad polygon %q", s)
	}
	return Polygon{Points: pts}, nil
}

func parseUUID(s string) (Value, error) {
	var u UUID
	b, err := hex.DecodeString(strings.ReplaceAll(s, "-", ""))
	if err != nil || len(b) != len(u) {
		return nil, fmt.Errorf("adm: bad uuid %q", s)
	}
	copy(u[:], b)
	return u, nil
}

func parseHexBinary(s string) (Value, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("adm: bad hex binary %q", s)
	}
	return Binary(b), nil
}
