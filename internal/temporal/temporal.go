// Package temporal implements AsterixDB's date/time/datetime/duration/interval
// functions (Table 1 of the paper): current-date/time/datetime, datetime
// arithmetic, interval construction and binning, Allen's interval relations,
// and timezone adjustment.
package temporal

import (
	"fmt"
	"time"

	"asterixdb/internal/adm"
)

// Clock abstracts "now" so queries using current-datetime() are testable.
type Clock interface {
	Now() time.Time
}

// SystemClock reads the real wall clock.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now().UTC() }

// FixedClock always returns the same instant; used in tests and benchmarks so
// results are deterministic.
type FixedClock struct{ T time.Time }

// Now implements Clock.
func (c FixedClock) Now() time.Time { return c.T }

// CurrentDatetime returns the current instant as an ADM datetime.
func CurrentDatetime(c Clock) adm.Datetime { return adm.Datetime(c.Now().UnixMilli()) }

// CurrentDate returns the current day as an ADM date.
func CurrentDate(c Clock) adm.Date { return adm.Date(c.Now().UnixMilli() / 86400000) }

// CurrentTime returns the current time of day as an ADM time.
func CurrentTime(c Clock) adm.Time {
	n := c.Now()
	return adm.Time(int32(n.Hour()*3600000 + n.Minute()*60000 + n.Second()*1000 + n.Nanosecond()/1e6))
}

// DatetimeFromDate converts a date to the datetime at midnight of that day.
func DatetimeFromDate(d adm.Date) adm.Datetime { return adm.Datetime(int64(d) * 86400000) }

// DateFromDatetime truncates a datetime to its day.
func DateFromDatetime(dt adm.Datetime) adm.Date {
	ms := int64(dt)
	if ms < 0 && ms%86400000 != 0 {
		return adm.Date(ms/86400000 - 1)
	}
	return adm.Date(ms / 86400000)
}

// AddDuration adds a duration to a temporal point value (date, time or
// datetime) and returns a value of the same type.
func AddDuration(v adm.Value, d adm.Duration) (adm.Value, error) {
	switch x := v.(type) {
	case adm.Datetime:
		t := time.UnixMilli(int64(x)).UTC().AddDate(0, int(d.Months), 0)
		return adm.Datetime(t.UnixMilli() + d.Millis), nil
	case adm.Date:
		dt, err := AddDuration(DatetimeFromDate(x), d)
		if err != nil {
			return nil, err
		}
		return DateFromDatetime(dt.(adm.Datetime)), nil
	case adm.Time:
		if d.Months != 0 {
			return nil, fmt.Errorf("temporal: cannot add month-bearing duration to a time")
		}
		ms := (int64(x) + d.Millis) % 86400000
		if ms < 0 {
			ms += 86400000
		}
		return adm.Time(int32(ms)), nil
	}
	return nil, fmt.Errorf("temporal: cannot add duration to %s", v.Tag())
}

// SubtractDuration subtracts a duration from a temporal point value.
func SubtractDuration(v adm.Value, d adm.Duration) (adm.Value, error) {
	return AddDuration(v, adm.Duration{Months: -d.Months, Millis: -d.Millis})
}

// Subtract returns the duration between two temporal point values of the same
// tag (a - b), as a day-time duration expressed in milliseconds (or days for
// dates, converted to milliseconds).
func Subtract(a, b adm.Value) (adm.Duration, error) {
	if a.Tag() != b.Tag() {
		return adm.Duration{}, fmt.Errorf("temporal: subtract requires matching types, got %s and %s", a.Tag(), b.Tag())
	}
	switch x := a.(type) {
	case adm.Datetime:
		return adm.Duration{Millis: int64(x) - int64(b.(adm.Datetime))}, nil
	case adm.Date:
		return adm.Duration{Millis: (int64(x) - int64(b.(adm.Date))) * 86400000}, nil
	case adm.Time:
		return adm.Duration{Millis: int64(x) - int64(b.(adm.Time))}, nil
	}
	return adm.Duration{}, fmt.Errorf("temporal: cannot subtract %s values", a.Tag())
}

// AdjustDatetimeForTimezone shifts a datetime by a timezone offset string such
// as "+08:00" or "-0500" and returns the shifted datetime.
func AdjustDatetimeForTimezone(dt adm.Datetime, tz string) (adm.Datetime, error) {
	off, err := parseTZOffset(tz)
	if err != nil {
		return 0, err
	}
	return adm.Datetime(int64(dt) + off), nil
}

func parseTZOffset(tz string) (int64, error) {
	if tz == "Z" || tz == "z" {
		return 0, nil
	}
	if len(tz) < 3 {
		return 0, fmt.Errorf("temporal: bad timezone %q", tz)
	}
	sign := int64(1)
	switch tz[0] {
	case '+':
	case '-':
		sign = -1
	default:
		return 0, fmt.Errorf("temporal: bad timezone %q", tz)
	}
	rest := tz[1:]
	var h, m int
	if len(rest) == 5 && rest[2] == ':' {
		if _, err := fmt.Sscanf(rest, "%02d:%02d", &h, &m); err != nil {
			return 0, fmt.Errorf("temporal: bad timezone %q", tz)
		}
	} else if len(rest) == 4 {
		if _, err := fmt.Sscanf(rest, "%02d%02d", &h, &m); err != nil {
			return 0, fmt.Errorf("temporal: bad timezone %q", tz)
		}
	} else {
		return 0, fmt.Errorf("temporal: bad timezone %q", tz)
	}
	return sign * (int64(h)*3600000 + int64(m)*60000), nil
}

// IntervalStartFromDatetime builds an interval starting at a datetime for the
// given duration.
func IntervalStartFromDatetime(start adm.Datetime, d adm.Duration) (adm.Interval, error) {
	end, err := AddDuration(start, d)
	if err != nil {
		return adm.Interval{}, err
	}
	v, err := adm.NewInterval(start, end)
	if err != nil {
		return adm.Interval{}, err
	}
	return v.(adm.Interval), nil
}

// IntervalBin returns the bin interval containing chronon v, where bins are
// aligned at anchor and have width binSize. This is the interval-bin function
// the behavioural-data pilot in Section 5.2 motivated (temporal binning /
// time-windowed aggregation).
func IntervalBin(v adm.Value, anchor adm.Value, binSize adm.Duration) (adm.Interval, error) {
	if v.Tag() != anchor.Tag() {
		return adm.Interval{}, fmt.Errorf("temporal: interval-bin value and anchor must match, got %s and %s", v.Tag(), anchor.Tag())
	}
	if binSize.Months != 0 {
		return intervalBinMonths(v, anchor, binSize)
	}
	var chronon, anchorC int64
	var scale int64 = 1
	switch x := v.(type) {
	case adm.Datetime:
		chronon, anchorC = int64(x), int64(anchor.(adm.Datetime))
	case adm.Date:
		chronon, anchorC = int64(x), int64(anchor.(adm.Date))
		scale = 86400000
	case adm.Time:
		chronon, anchorC = int64(x), int64(anchor.(adm.Time))
	default:
		return adm.Interval{}, fmt.Errorf("temporal: interval-bin over %s not supported", v.Tag())
	}
	width := binSize.Millis / scale
	if width <= 0 {
		return adm.Interval{}, fmt.Errorf("temporal: interval-bin width must be positive")
	}
	offset := chronon - anchorC
	idx := offset / width
	if offset < 0 && offset%width != 0 {
		idx--
	}
	start := anchorC + idx*width
	return adm.Interval{PointTag: v.Tag(), Start: start, End: start + width}, nil
}

func intervalBinMonths(v adm.Value, anchor adm.Value, binSize adm.Duration) (adm.Interval, error) {
	toTime := func(x adm.Value) (time.Time, error) {
		switch t := x.(type) {
		case adm.Datetime:
			return time.UnixMilli(int64(t)).UTC(), nil
		case adm.Date:
			return time.UnixMilli(int64(t) * 86400000).UTC(), nil
		}
		return time.Time{}, fmt.Errorf("temporal: month bins over %s not supported", x.Tag())
	}
	vt, err := toTime(v)
	if err != nil {
		return adm.Interval{}, err
	}
	at, err := toTime(anchor)
	if err != nil {
		return adm.Interval{}, err
	}
	months := (vt.Year()-at.Year())*12 + int(vt.Month()) - int(at.Month())
	idx := months / int(binSize.Months)
	if months < 0 && months%int(binSize.Months) != 0 {
		idx--
	}
	start := at.AddDate(0, idx*int(binSize.Months), 0)
	end := at.AddDate(0, (idx+1)*int(binSize.Months), 0)
	if v.Tag() == adm.TagDate {
		return adm.Interval{PointTag: adm.TagDate, Start: start.UnixMilli() / 86400000, End: end.UnixMilli() / 86400000}, nil
	}
	return adm.Interval{PointTag: adm.TagDatetime, Start: start.UnixMilli(), End: end.UnixMilli()}, nil
}

// ----------------------------------------------------------------------------
// Allen's interval relations
// ----------------------------------------------------------------------------

// Before reports whether interval a ends strictly before interval b starts.
func Before(a, b adm.Interval) bool { return a.End < b.Start }

// After reports whether interval a starts strictly after interval b ends.
func After(a, b adm.Interval) bool { return Before(b, a) }

// Meets reports whether interval a ends exactly where b starts.
func Meets(a, b adm.Interval) bool { return a.End == b.Start }

// Overlaps reports whether a starts before b, they intersect, and a ends
// before b ends (the strict Allen "overlaps").
func Overlaps(a, b adm.Interval) bool {
	return a.Start < b.Start && a.End > b.Start && a.End < b.End
}

// Overlapping reports whether the two intervals share any instant (the
// non-Allen convenience predicate AQL exposes as interval-overlapping).
func Overlapping(a, b adm.Interval) bool { return a.Start < b.End && b.Start < a.End }

// Starts reports whether a and b start together and a ends first.
func Starts(a, b adm.Interval) bool { return a.Start == b.Start && a.End < b.End }

// Finishes reports whether a and b end together and a starts later.
func Finishes(a, b adm.Interval) bool { return a.End == b.End && a.Start > b.Start }

// During reports whether a lies strictly inside b.
func During(a, b adm.Interval) bool { return a.Start > b.Start && a.End < b.End }

// Covers reports whether a contains b (the Allen "contains").
func Covers(a, b adm.Interval) bool { return During(b, a) }
