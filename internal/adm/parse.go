package adm

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Parse parses a single ADM value from its textual form. The textual form is
// a superset of JSON: in addition to JSON literals it accepts bags
// ("{{ ... }}"), unquoted field names, and typed constructors such as
// datetime("2014-01-01T00:00:00"), date("2014-01-01"), point("1.0,2.0"),
// int8/int16/int64 suffixes, and so on.
func Parse(input string) (Value, error) {
	p := &valueParser{src: input}
	p.skipSpace()
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("adm: parse: trailing input at offset %d", p.pos)
	}
	return v, nil
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
	case c == '{':
		if strings.HasPrefix(p.src[p.pos:], "{{") {
			return p.parseBag()
		}
		return p.parseRecord()
	case c == '[':
		return p.parseOrderedList()
	case c == '"':
		s, err := p.parseStringLit()
		if err != nil {
			return nil, err
		}
		return String(s), nil
	case c == '-' || c == '+' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	default:
		return p.parseWord()
	}
}

func (p *valueParser) parseRecord() (Value, error) {
	if !p.consume("{") {
		return nil, p.errf("expected '{'")
	}
	rec := &Record{}
	p.skipSpace()
	if p.consume("}") {
		return rec, nil
	}
	for {
		p.skipSpace()
		var name string
		var err error
		if p.peek() == '"' {
			name, err = p.parseStringLit()
			if err != nil {
				return nil, err
			}
		} else {
			name = p.parseIdent()
			if name == "" {
				return nil, p.errf("expected field name")
			}
		}
		p.skipSpace()
		if !p.consume(":") {
			return nil, p.errf("expected ':' after field name %q", name)
		}
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		rec.Fields = append(rec.Fields, Field{Name: name, Value: v})
		p.skipSpace()
		if p.consume(",") {
			continue
		}
		if p.consume("}") {
			return rec, nil
		}
		return nil, p.errf("expected ',' or '}' in record")
	}
}

func (p *valueParser) parseBag() (Value, error) {
	if !p.consume("{{") {
		return nil, p.errf("expected '{{'")
	}
	bag := &UnorderedList{}
	p.skipSpace()
	if p.consume("}}") {
		return bag, nil
	}
	for {
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		bag.Items = append(bag.Items, v)
		p.skipSpace()
		if p.consume(",") {
			continue
		}
		if p.consume("}}") {
			return bag, nil
		}
		return nil, p.errf("expected ',' or '}}' in bag")
	}
}

func (p *valueParser) parseOrderedList() (Value, error) {
	if !p.consume("[") {
		return nil, p.errf("expected '['")
	}
	list := &OrderedList{}
	p.skipSpace()
	if p.consume("]") {
		return list, nil
	}
	for {
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		list.Items = append(list.Items, v)
		p.skipSpace()
		if p.consume(",") {
			continue
		}
		if p.consume("]") {
			return list, nil
		}
		return nil, p.errf("expected ',' or ']' in list")
	}
}

func (p *valueParser) parseStringLit() (string, error) {
	start := p.pos
	if p.src[p.pos] != '"' {
		return "", p.errf("expected string")
	}
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '"' {
			p.pos++
			return sb.String(), nil
		}
		if c == '\\' {
			if p.pos+1 >= len(p.src) {
				break
			}
			p.pos++
			esc := p.src[p.pos]
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '"', '\\', '/':
				sb.WriteByte(esc)
			case 'u':
				if p.pos+4 >= len(p.src) {
					return "", p.errf("bad unicode escape")
				}
				n, err := strconv.ParseUint(p.src[p.pos+1:p.pos+5], 16, 32)
				if err != nil {
					return "", p.errf("bad unicode escape: %v", err)
				}
				sb.WriteRune(rune(n))
				p.pos += 4
			default:
				return "", p.errf("bad escape \\%c", esc)
			}
			p.pos++
			continue
		}
		sb.WriteByte(c)
		p.pos++
	}
	p.pos = start
	return "", p.errf("unterminated string")
}

func (p *valueParser) parseNumber() (Value, error) {
	start := p.pos
	if p.peek() == '-' || p.peek() == '+' {
		p.pos++
	}
	isFloat := false
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= '0' && c <= '9' {
			p.pos++
			continue
		}
		if c == '.' || c == 'e' || c == 'E' {
			isFloat = true
			p.pos++
			if p.pos < len(p.src) && (p.src[p.pos] == '-' || p.src[p.pos] == '+') {
				p.pos++
			}
			continue
		}
		break
	}
	text := p.src[start:p.pos]
	// Optional type suffix: i8, i16, i32, i64, f, d.
	switch {
	case p.consume("i8"):
		n, err := strconv.ParseInt(text, 10, 8)
		if err != nil {
			return nil, p.errf("bad int8 %q: %v", text, err)
		}
		return Int8(n), nil
	case p.consume("i16"):
		n, err := strconv.ParseInt(text, 10, 16)
		if err != nil {
			return nil, p.errf("bad int16 %q: %v", text, err)
		}
		return Int16(n), nil
	case p.consume("i64"):
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, p.errf("bad int64 %q: %v", text, err)
		}
		return Int64(n), nil
	case p.consume("i32"):
		n, err := strconv.ParseInt(text, 10, 32)
		if err != nil {
			return nil, p.errf("bad int32 %q: %v", text, err)
		}
		return Int32(n), nil
	case p.consume("f"):
		f, err := strconv.ParseFloat(text, 32)
		if err != nil {
			return nil, p.errf("bad float %q: %v", text, err)
		}
		return Float(f), nil
	case p.consume("d"):
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, p.errf("bad double %q: %v", text, err)
		}
		return Double(f), nil
	}
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, p.errf("bad number %q: %v", text, err)
		}
		return Double(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, p.errf("bad integer %q: %v", text, err)
	}
	if n >= -2147483648 && n <= 2147483647 {
		return Int32(n), nil
	}
	return Int64(n), nil
}

// parseIdent consumes an identifier (letters, digits, '-', '_').
func (p *valueParser) parseIdent() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '-' || c == '_' {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
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
		a, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if !p.consume(",") {
			return nil, p.errf("expected ',' in interval")
		}
		b, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if !p.consume(")") {
			return nil, p.errf("expected ')' in interval")
		}
		return NewInterval(a, b)
	}
	arg, err := p.parseStringLit()
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
		return Boolean(literal == "true"), nil
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

// ParseTime parses "HH:MM:SS[.mmm][Z|±HH:MM]" into a Time.
func ParseTime(s string) (Value, error) {
	base := strings.TrimSuffix(s, "Z")
	for _, layout := range []string{"15:04:05.000", "15:04:05", "15:04"} {
		if t, err := time.ParseInLocation(layout, base, time.UTC); err == nil {
			ms := t.Hour()*3600000 + t.Minute()*60000 + t.Second()*1000 + t.Nanosecond()/1e6
			return Time(int32(ms)), nil
		}
	}
	return nil, fmt.Errorf("adm: bad time %q", s)
}

// ParseDatetime parses an ISO-8601 datetime ("2014-01-01T00:00:00",
// optionally with fractional seconds and a timezone offset) into a Datetime.
func ParseDatetime(s string) (Value, error) {
	layouts := []string{
		"2006-01-02T15:04:05.000Z07:00",
		"2006-01-02T15:04:05Z07:00",
		"2006-01-02T15:04:05.000-0700",
		"2006-01-02T15:04:05-0700",
		"2006-01-02T15:04:05.000",
		"2006-01-02T15:04:05",
		"2006-01-02T15:04",
	}
	for _, layout := range layouts {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return Datetime(t.UnixMilli()), nil
		}
	}
	return nil, fmt.Errorf("adm: bad datetime %q", s)
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

func parseDurationPart(s string, isTime bool) (int32, int64, error) {
	var months int32
	var millis int64
	num := ""
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= '0' && c <= '9') || c == '.' {
			num += string(c)
			continue
		}
		if num == "" {
			return 0, 0, fmt.Errorf("missing number before %q", string(c))
		}
		f, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, 0, err
		}
		switch {
		case c == 'Y' && !isTime:
			months += int32(f) * 12
		case c == 'M' && !isTime:
			months += int32(f)
		case c == 'W' && !isTime:
			millis += int64(f) * 7 * 86400000
		case c == 'D' && !isTime:
			millis += int64(f * 86400000)
		case c == 'H' && isTime:
			millis += int64(f * 3600000)
		case c == 'M' && isTime:
			millis += int64(f * 60000)
		case c == 'S' && isTime:
			millis += int64(f * 1000)
		default:
			return 0, 0, fmt.Errorf("unexpected designator %q", string(c))
		}
		num = ""
	}
	if num != "" {
		return 0, 0, fmt.Errorf("trailing number %q", num)
	}
	return months, millis, nil
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
	pts, err := parsePointList(s)
	if err != nil || len(pts) != 2 {
		return nil, fmt.Errorf("adm: bad line %q", s)
	}
	return Line{A: pts[0], B: pts[1]}, nil
}

func parseRectangle(s string) (Value, error) {
	pts, err := parsePointList(s)
	if err != nil || len(pts) != 2 {
		return nil, fmt.Errorf("adm: bad rectangle %q", s)
	}
	return Rectangle{LowerLeft: pts[0], UpperRight: pts[1]}, nil
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
	hex := strings.ReplaceAll(s, "-", "")
	if len(hex) != 32 {
		return nil, fmt.Errorf("adm: bad uuid %q", s)
	}
	var u UUID
	for i := 0; i < 16; i++ {
		b, err := strconv.ParseUint(hex[i*2:i*2+2], 16, 8)
		if err != nil {
			return nil, fmt.Errorf("adm: bad uuid %q", s)
		}
		u[i] = byte(b)
	}
	return u, nil
}

func parseHexBinary(s string) (Value, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("adm: bad hex binary %q", s)
	}
	out := make([]byte, len(s)/2)
	for i := range out {
		b, err := strconv.ParseUint(s[i*2:i*2+2], 16, 8)
		if err != nil {
			return nil, fmt.Errorf("adm: bad hex binary %q", s)
		}
		out[i] = byte(b)
	}
	return Binary(out), nil
}
