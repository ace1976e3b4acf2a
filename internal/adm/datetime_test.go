package adm

import (
	"fmt"
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
