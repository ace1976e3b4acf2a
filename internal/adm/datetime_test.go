package adm

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// parseDatetimeByLayouts is the former ParseDatetime: every accepted layout
// tried in turn. ParseDatetime must agree with it on every input.
func parseDatetimeByLayouts(s string) (Value, error) {
	for _, layout := range []string{
		"2006-01-02T15:04:05.000Z07:00",
		"2006-01-02T15:04:05Z07:00",
		"2006-01-02T15:04:05.000-0700",
		"2006-01-02T15:04:05-0700",
		"2006-01-02T15:04:05.000",
		"2006-01-02T15:04:05",
		"2006-01-02T15:04",
	} {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return Datetime(t.UnixMilli()), nil
		}
	}
	return nil, fmt.Errorf("adm: bad datetime %q", s)
}

// TestParseDatetimeByShape: the layout picked from a literal's shape parses
// every accepted form to the value the seven layouts tried in turn gave, and
// refuses every input they refused, with the same error.
func TestParseDatetimeByShape(t *testing.T) {
	inputs := []string{
		// The seven accepted forms.
		"2014-01-01T10:10:00.000Z", "2014-01-01T10:10:00.250+07:00",
		"2014-01-01T10:10:00Z", "2014-01-01T10:10:00-03:30",
		"2014-01-01T10:10:00.999+0530", "2014-01-01T10:10:00-0800",
		"2014-01-01T10:10:00.000", "2014-01-01T10:10:00", "2014-01-01T10:10",
		// Fractions of other widths and separators, a one-digit hour.
		"2014-01-01T10:10:00.5", "2014-01-01T10:10:00.123456789Z",
		"2014-01-01T10:10:00,25", "2014-01-01T10:10:00.12-0100",
		"2014-01-01T1:10", "2014-01-01T1:10:00",
		// Malformed.
		"", "T", "2014-01-01", "2014-01-01T", "2014-01-01T10", "2014-01-01 10:10:00",
		"2014-01-01T10:10+07:00", "2014-01-01T10:10.5", "2014-01-01T10:10:00z",
		"2014-01-01T10:10:00+07", "2014-01-01T10:10:00+7:00", "2014-01-01T10:10:00+07:0",
		"2014-01-01T10:10:00-07:00Z", "2014-01-01T10:10:00ZZ", "2014-01-01T10:10:00.Z",
		"2014-01-01T24:10:00", "2014-13-01T10:10:00", "2014-01-01T10:10:00+0700 ",
		"-2014-01-01T10:10:00", "2014-01-01T10:10:00+-0700", "12:10:00+07:00",
	}
	for _, in := range inputs {
		got, gotErr := ParseDatetime(in)
		want, wantErr := parseDatetimeByLayouts(in)
		if fmt.Sprint(got, gotErr) != fmt.Sprint(want, wantErr) {
			t.Errorf("ParseDatetime(%q) = %v, %v; the seven layouts give %v, %v", in, got, gotErr, want, wantErr)
		}
	}
}

// TestParseDatetimeZonelessAllocs: a zone-less literal, the form
// Datetime.String prints, tries no layout that fails, so it allocates only
// the boxed result.
func TestParseDatetimeZonelessAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseDatetime("2014-01-01T10:10:00.000") }); n > 1 {
		t.Errorf("ParseDatetime of a zone-less literal allocates %v times, want at most 1", n)
	}
}

// parseTimeByLayouts is the former ParseTime: three layouts tried in turn.
func parseTimeByLayouts(s string) (Value, error) {
	base := strings.TrimSuffix(s, "Z")
	for _, layout := range []string{"15:04:05.000", "15:04:05", "15:04"} {
		if t, err := time.ParseInLocation(layout, base, time.UTC); err == nil {
			ms := t.Hour()*3600000 + t.Minute()*60000 + t.Second()*1000 + t.Nanosecond()/1e6
			return Time(int32(ms)), nil
		}
	}
	return nil, fmt.Errorf("adm: bad time %q", s)
}

// TestParseTimeByShape: the layout picked from a time literal's shape gives
// what the three layouts tried in turn gave, on every accepted form and
// every malformed input.
func TestParseTimeByShape(t *testing.T) {
	inputs := []string{
		// Accepted forms.
		"10:10:00.000", "10:10:00", "10:10", "10:10:00.000Z", "10:10:00Z", "10:10Z",
		"23:59:59.999", "00:00:00", "1:10", "1:10:00",
		// Fractions of other widths and separators.
		"10:10:00.5", "10:10:00.123456789", "10:10:00,25", "10:10:00.12Z",
		// Malformed.
		"", "Z", "10", "10:", "10:10:", "10:10:00.", "10:10.5", "10:10:00z", "10:10:00ZZ",
		"10:10:00+07:00", "10:10:00-0800", "10:10+07:00", "24:00:00", "10:60:00", "10:10:60",
		"10:10:00:00", " 10:10:00", "10:10:00 ", "-10:10:00", "2014-01-01T10:10:00",
	}
	for _, in := range inputs {
		got, gotErr := ParseTime(in)
		want, wantErr := parseTimeByLayouts(in)
		if fmt.Sprint(got, gotErr) != fmt.Sprint(want, wantErr) {
			t.Errorf("ParseTime(%q) = %v, %v; the three layouts give %v, %v", in, got, gotErr, want, wantErr)
		}
	}
}

// TestParseTimeAllocs: every accepted form tries no layout that fails, so
// it allocates only the boxed result (the loop allocated up to 5 times).
func TestParseTimeAllocs(t *testing.T) {
	for _, in := range []string{"10:10:00.000", "10:10:00", "10:10:00Z", "10:10"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = ParseTime(in) }); n > 1 {
			t.Errorf("ParseTime(%q) allocates %v times, want at most 1", in, n)
		}
	}
}
