package adm

import (
	"bytes"
	"fmt"
	"math"
)

// Compare imposes a total order over comparable ADM values. Numerics of
// different widths compare by value, exactly: two integers as int64, an
// integer against a float without rounding either, two floats as float64
// (NaN above every number); strings compare lexicographically;
// temporal types compare by chronon; booleans order false < true. NULL
// compares less than every non-null value and MISSING less than NULL, which
// gives ORDER BY a deterministic placement for unknowns. Two records, lists or
// bags compare by their EncodeKey bytes, so inside them values of different
// kinds order by kind. Comparing values of incomparable tags (e.g. a string
// and a point) returns an error.
func Compare(a, b Value) (int, error) {
	ta, tb := a.Tag(), b.Tag()

	// Unknowns order below everything.
	if ta == TagMissing || tb == TagMissing || ta == TagNull || tb == TagNull {
		return compareRank(unknownRank(ta), unknownRank(tb)), nil
	}

	if ta.IsNumeric() && tb.IsNumeric() {
		ia, fa, aFloat := number(a)
		ib, fb, bFloat := number(b)
		switch {
		case !aFloat && !bFloat:
			return compareInt(ia, ib), nil
		case !aFloat:
			return compareIntFloat(ia, fb), nil
		case !bFloat:
			return -compareIntFloat(ib, fa), nil
		}
		return compareFloat(fa, fb), nil
	}

	if ta != tb {
		return 0, fmt.Errorf("adm: cannot compare %s with %s", ta, tb)
	}

	switch av := a.(type) {
	case Boolean:
		bv := b.(Boolean)
		return compareBool(bool(av), bool(bv)), nil
	case String:
		bv := b.(String)
		switch {
		case av < bv:
			return -1, nil
		case av > bv:
			return 1, nil
		}
		return 0, nil
	case Binary:
		return bytes.Compare(av, b.(Binary)), nil
	case UUID:
		return bytes.Compare(av[:], func() []byte { u := b.(UUID); return u[:] }()), nil
	case Date:
		return compareInt(int64(av), int64(b.(Date))), nil
	case Time:
		return compareInt(int64(av), int64(b.(Time))), nil
	case Datetime:
		return compareInt(int64(av), int64(b.(Datetime))), nil
	case YearMonthDuration:
		return compareInt(int64(av), int64(b.(YearMonthDuration))), nil
	case DayTimeDuration:
		return compareInt(int64(av), int64(b.(DayTimeDuration))), nil
	case Duration:
		return compareInt(av.totalMillis(), b.(Duration).totalMillis()), nil
	case Interval:
		bv := b.(Interval)
		if c := compareInt(av.Start, bv.Start); c != 0 {
			return c, nil
		}
		return compareInt(av.End, bv.End), nil
	case Point:
		bv := b.(Point)
		if c := compareFloat(av.X, bv.X); c != 0 {
			return c, nil
		}
		return compareFloat(av.Y, bv.Y), nil
	case *Record, *LazyRecord, *OrderedList, *UnorderedList:
		return bytes.Compare(EncodeKey(nil, a), EncodeKey(nil, b)), nil
	}
	return 0, fmt.Errorf("adm: values of type %s are not comparable", ta)
}

// totalMillis is the duration's length in milliseconds with a month counted
// as 30 days: Compare's approximate total order over durations.
func (d Duration) totalMillis() int64 {
	return int64(d.Months)*30*86400000 + d.Millis
}

// Equal reports deep value equality. Values of incomparable types are simply
// unequal (no error).
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// MustCompare is Compare for callers that have already verified
// comparability; it panics on error.
func MustCompare(a, b Value) int {
	c, err := Compare(a, b)
	if err != nil {
		panic(err)
	}
	return c
}

func unknownRank(t TypeTag) int {
	switch t {
	case TagMissing:
		return 0
	case TagNull:
		return 1
	}
	return 2
}

func compareRank(a, b int) int {
	return compareInt(int64(a), int64(b))
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// number returns an integer's value as int64, or a float's as float64 with
// isFloat set.
func number(v Value) (i int64, f float64, isFloat bool) {
	switch n := v.(type) {
	case Int8:
		return int64(n), 0, false
	case Int16:
		return int64(n), 0, false
	case Int32:
		return int64(n), 0, false
	case Int64:
		return int64(n), 0, false
	case Float:
		return 0, float64(n), true
	case Double:
		return 0, float64(n), true
	}
	return 0, 0, false
}

// compareIntFloat compares an integer with a float exactly. Inside the int64
// range the float's truncation is an exact int64, and the float's fraction
// decides a tie.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f || f >= 1<<63: // NaN sorts above every number
		return -1
	case f < -1<<63:
		return 1
	}
	t := int64(f)
	if c := compareInt(i, t); c != 0 {
		return c
	}
	return compareFloat(float64(t), f)
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// NaN handling: NaN sorts above every number and equal to itself.
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	default:
		return -1
	}
}

func compareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}
