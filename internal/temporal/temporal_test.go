package temporal

import (
	"testing"
	"testing/quick"
	"time"

	"asterixdb/internal/adm"
)

func dt(s string) adm.Datetime {
	v, err := adm.ParseDatetime(s)
	if err != nil {
		panic(err)
	}
	return v.(adm.Datetime)
}

func date(s string) adm.Date {
	v, err := adm.ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v.(adm.Date)
}

func TestCurrentFunctions(t *testing.T) {
	clock := FixedClock{T: time.Date(2014, 2, 20, 10, 30, 15, 0, time.UTC)}
	if got := CurrentDatetime(clock); got != dt("2014-02-20T10:30:15") {
		t.Errorf("CurrentDatetime = %v", got)
	}
	if got := CurrentDate(clock); got != date("2014-02-20") {
		t.Errorf("CurrentDate = %v", got)
	}
	want := adm.Time(10*3600000 + 30*60000 + 15*1000)
	if got := CurrentTime(clock); got != want {
		t.Errorf("CurrentTime = %v, want %v", got, want)
	}
}

func TestDateDatetimeConversions(t *testing.T) {
	d := date("2014-02-20")
	if got := DateFromDatetime(DatetimeFromDate(d)); got != d {
		t.Errorf("round trip date conversion = %v, want %v", got, d)
	}
	if got := DateFromDatetime(dt("2014-02-20T23:59:59")); got != d {
		t.Errorf("DateFromDatetime truncation = %v, want %v", got, d)
	}
	// Negative chronon (before epoch) still truncates toward the day start.
	if got := DateFromDatetime(dt("1969-12-31T12:00:00")); got != date("1969-12-31") {
		t.Errorf("pre-epoch truncation = %v", got)
	}
}

func TestAddSubtractDuration(t *testing.T) {
	start := dt("2014-01-01T00:00:00")
	plus30d, err := AddDuration(start, adm.Duration{Millis: 30 * 86400000})
	if err != nil {
		t.Fatal(err)
	}
	if plus30d.(adm.Datetime) != dt("2014-01-31T00:00:00") {
		t.Errorf("start + P30D = %v", plus30d)
	}
	plus2mo, err := AddDuration(start, adm.Duration{Months: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plus2mo.(adm.Datetime) != dt("2014-03-01T00:00:00") {
		t.Errorf("start + P2M = %v", plus2mo)
	}
	back, err := SubtractDuration(plus30d, adm.Duration{Millis: 30 * 86400000})
	if err != nil {
		t.Fatal(err)
	}
	if back.(adm.Datetime) != start {
		t.Errorf("subtract did not invert add: %v", back)
	}
	d2, err := AddDuration(date("2014-01-01"), adm.Duration{Millis: 86400000})
	if err != nil {
		t.Fatal(err)
	}
	if d2.(adm.Date) != date("2014-01-02") {
		t.Errorf("date + P1D = %v", d2)
	}
	tm, err := AddDuration(adm.Time(23*3600000), adm.Duration{Millis: 2 * 3600000})
	if err != nil {
		t.Fatal(err)
	}
	if tm.(adm.Time) != adm.Time(1*3600000) {
		t.Errorf("time wraparound = %v", tm)
	}
	if _, err := AddDuration(adm.Time(0), adm.Duration{Months: 1}); err == nil {
		t.Error("adding months to a time should fail")
	}
	if _, err := AddDuration(adm.String("x"), adm.Duration{}); err == nil {
		t.Error("adding duration to a string should fail")
	}
}

func TestSubtract(t *testing.T) {
	d, err := Subtract(dt("2014-02-01T00:00:00"), dt("2014-01-01T00:00:00"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Millis != 31*86400000 {
		t.Errorf("datetime subtraction = %v", d)
	}
	d, err = Subtract(date("2014-01-31"), date("2014-01-01"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Millis != 30*86400000 {
		t.Errorf("date subtraction = %v", d)
	}
	if _, err := Subtract(dt("2014-01-01T00:00:00"), date("2014-01-01")); err == nil {
		t.Error("mixed-type subtraction should fail")
	}
}

func TestTimezoneAdjustment(t *testing.T) {
	base := dt("2014-01-01T12:00:00")
	got, err := AdjustDatetimeForTimezone(base, "+08:00")
	if err != nil {
		t.Fatal(err)
	}
	if got != dt("2014-01-01T20:00:00") {
		t.Errorf("adjust +08:00 = %v", got)
	}
	got, err = AdjustDatetimeForTimezone(base, "-0500")
	if err != nil {
		t.Fatal(err)
	}
	if got != dt("2014-01-01T07:00:00") {
		t.Errorf("adjust -0500 = %v", got)
	}
	if _, err := AdjustDatetimeForTimezone(base, "bogus"); err == nil {
		t.Error("bad timezone should fail")
	}
}

func TestIntervalConstruction(t *testing.T) {
	iv, err := IntervalStartFromDatetime(dt("2014-01-01T00:00:00"), adm.Duration{Millis: 3600000})
	if err != nil {
		t.Fatal(err)
	}
	if iv.End-iv.Start != 3600000 {
		t.Errorf("interval width = %d", iv.End-iv.Start)
	}
}

func TestIntervalBin(t *testing.T) {
	anchor := dt("2014-01-01T00:00:00")
	v := dt("2014-01-01T10:30:00")
	bin, err := IntervalBin(v, anchor, adm.Duration{Millis: 3600000})
	if err != nil {
		t.Fatal(err)
	}
	if adm.Datetime(bin.Start) != dt("2014-01-01T10:00:00") || adm.Datetime(bin.End) != dt("2014-01-01T11:00:00") {
		t.Errorf("hour bin = %+v", bin)
	}
	// A value before the anchor falls into a bin that still contains it.
	early := dt("2013-12-31T23:30:00")
	bin, err = IntervalBin(early, anchor, adm.Duration{Millis: 3600000})
	if err != nil {
		t.Fatal(err)
	}
	if !(bin.Start <= int64(early) && int64(early) < bin.End) {
		t.Errorf("pre-anchor bin %+v does not contain %v", bin, early)
	}
	// Month-granularity bins.
	mbin, err := IntervalBin(dt("2014-02-20T00:00:00"), anchor, adm.Duration{Months: 1})
	if err != nil {
		t.Fatal(err)
	}
	if adm.Datetime(mbin.Start) != dt("2014-02-01T00:00:00") || adm.Datetime(mbin.End) != dt("2014-03-01T00:00:00") {
		t.Errorf("month bin = %+v", mbin)
	}
	if _, err := IntervalBin(v, anchor, adm.Duration{}); err == nil {
		t.Error("zero-width bin should fail")
	}
	if _, err := IntervalBin(v, date("2014-01-01"), adm.Duration{Millis: 1}); err == nil {
		t.Error("mismatched bin anchor type should fail")
	}
}

func TestIntervalBinProperty(t *testing.T) {
	anchor := int64(0)
	f := func(chronon int64, width uint32) bool {
		w := int64(width%100000) + 1
		bin, err := IntervalBin(adm.Datetime(chronon), adm.Datetime(anchor), adm.Duration{Millis: w})
		if err != nil {
			return false
		}
		return bin.Start <= chronon && chronon < bin.End && bin.End-bin.Start == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllenRelations(t *testing.T) {
	mk := func(s, e int64) adm.Interval {
		return adm.Interval{PointTag: adm.TagDatetime, Start: s, End: e}
	}
	a, b := mk(0, 10), mk(20, 30)
	if !Before(a, b) || Before(b, a) || !After(b, a) {
		t.Error("Before/After misreport")
	}
	if !Meets(mk(0, 10), mk(10, 20)) {
		t.Error("Meets misreports")
	}
	if !Overlaps(mk(0, 15), mk(10, 30)) || Overlaps(mk(10, 30), mk(0, 15)) {
		t.Error("Overlaps misreports")
	}
	if !Overlapping(mk(0, 15), mk(10, 30)) || Overlapping(mk(0, 10), mk(10, 20)) {
		t.Error("Overlapping misreports")
	}
	if !Starts(mk(0, 5), mk(0, 10)) {
		t.Error("Starts misreports")
	}
	if !Finishes(mk(5, 10), mk(0, 10)) {
		t.Error("Finishes misreports")
	}
	if !During(mk(2, 8), mk(0, 10)) || !Covers(mk(0, 10), mk(2, 8)) {
		t.Error("During/Covers misreport")
	}
}

func TestAllenRelationsMutuallyExclusiveProperty(t *testing.T) {
	// For any two proper intervals exactly one of the 13 Allen relations
	// holds; the five converses are the relations with a and b swapped, and
	// equality.
	f := func(s1, w1, s2, w2 uint16) bool {
		a := adm.Interval{Start: int64(s1), End: int64(s1) + int64(w1%50) + 1}
		b := adm.Interval{Start: int64(s2), End: int64(s2) + int64(w2%50) + 1}
		count := 0
		for _, holds := range []bool{
			Before(a, b), After(a, b), Meets(a, b), Meets(b, a),
			Overlaps(a, b), Overlaps(b, a), Starts(a, b), Starts(b, a),
			Finishes(a, b), Finishes(b, a), During(a, b), Covers(a, b), a == b,
		} {
			if holds {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
