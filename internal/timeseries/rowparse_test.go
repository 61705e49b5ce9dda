package timeseries

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestParseStampMatchesTimeParse runs parseStamp over every day of the
// years 0000-9999 at three times of day: it must accept each stamp and
// return time.Parse's instant.
func TestParseStampMatchesTimeParse(t *testing.T) {
	first := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix() / 86400
	last := time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC).Unix() / 86400
	for day := first; day <= last; day++ {
		date := time.Unix(day*86400, 0).UTC().AppendFormat(make([]byte, 0, stampLen), "2006-01-02T")
		for _, tod := range []string{"00:00:00Z", "12:34:56Z", "23:59:59Z"} {
			stamp := string(append(date, tod...))
			want, err := time.Parse(time.RFC3339, stamp)
			if err != nil {
				t.Fatalf("time.Parse(%q): %v", stamp, err)
			}
			got, ok := parseStamp(stamp)
			if !ok {
				t.Fatalf("parseStamp(%q) declined", stamp)
			}
			if !got.Equal(want) || got.Location() != want.Location() {
				t.Fatalf("parseStamp(%q) = %v, time.Parse = %v", stamp, got, want)
			}
		}
	}
}

// TestParseStampDeclines lists stamps parseStamp must leave to
// time.Parse: fields out of range, which time.Parse rejects too, and
// shapes other than the one WriteCSV writes.
func TestParseStampDeclines(t *testing.T) {
	invalid := []string{
		"1900-02-29T00:00:00Z", // 1900 is not a leap year
		"2023-02-29T00:00:00Z",
		"2012-04-31T00:00:00Z",
		"2012-00-01T00:00:00Z",
		"2012-13-01T00:00:00Z",
		"2012-06-00T00:00:00Z",
		"2012-06-04T24:00:00Z",
		"2012-06-04T00:60:00Z",
		"2012-06-04T00:00:60Z",
		"2012-06-04T0a:00:00Z",
		"-012-06-04T00:00:00Z",
	}
	for _, s := range invalid {
		if _, ok := parseStamp(s); ok {
			t.Errorf("parseStamp(%q) accepted an invalid stamp", s)
		}
		if _, err := time.Parse(time.RFC3339, s); err == nil {
			t.Errorf("time.Parse(%q) accepted it: not an invalid stamp", s)
		}
	}
	for _, s := range []string{
		"2012-06-04T00:00:00z",
		"2012-06-04t00:00:00Z",
		"2012-06-04T00:00:00+00:00",
		"2012-06-04T02:00:00+02:00",
		"2012-06-04T00:00:00.5Z",
		"2012-06-04 00:00:00Z",
		"2012-06-04T0:00:00Z",
		"2012-06-04T00:00:00",
		"",
	} {
		if _, ok := parseStamp(s); ok {
			t.Errorf("parseStamp(%q) accepted a shape WriteCSV does not write", s)
		}
	}
	if _, ok := parseStamp("2000-02-29T23:59:59Z"); !ok {
		t.Error("parseStamp declined 2000-02-29, a leap day")
	}
	if _, ok := parseStamp("0000-02-29T00:00:00Z"); !ok {
		t.Error("parseStamp declined 0000-02-29, a leap day")
	}
}

// TestParseValueMatchesParseFloat feeds parseValue 2^20 shortest 'f'
// renderings of household values, half 15-min totals in [0, 100) and
// half 1-min values log-uniform in [1e-6, 1). It must accept each one
// with at most 19 digits after the point and return ParseFloat's bits.
func TestParseValueMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 0, 32)
	for i := 0; i < 1<<20; i++ {
		v := rng.Float64() * 100
		if i%2 == 1 {
			v = 1e-6 * math.Pow(1e6, rng.Float64())
		}
		s := string(strconv.AppendFloat(buf[:0], v, 'f', -1, 64))
		_, frac, _ := strings.Cut(s, ".")
		checkValue(t, s, len(frac) <= 19)
	}
}

// TestParseValueEdges pins parseValue's edges: each accepted input must
// return ParseFloat's bits, each declined one is left to ParseFloat.
func TestParseValueEdges(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "0.000", "-0.000", "1.", ".5", "-.5", "00.5",
		"9007199254740993", "9007199254740995", "0.30000000000000004",
		"0.1", "2.5", "1.7976931348623157", "4503599627370497.5",
		"9999999999999999999", "-9999999999999999999", "0.9999999999999999999",
		"0.0000000000000000001", "999999999.9999999999",
		"0000000000000000000000000001.25", "-000000000000000000000000000000",
	} {
		checkValue(t, s, true)
	}
	for _, s := range []string{
		"", "-", ".", "-.", "+1", "1e5", "1E5", "NaN", "Inf", "-Inf", "0x1p3",
		"1.2.3", "1,2", " 1", "1 ", "1_000", "--1",
		"99999999999999999999", "1.0000000000000000000", "0.00000000000000000001",
	} {
		checkValue(t, s, false)
	}
}

// checkValue reports when parseValue's verdict on s is not accept, or
// when its value is not ParseFloat's, bit for bit.
func checkValue(t *testing.T, s string, accept bool) {
	t.Helper()
	got, ok := parseValue(s)
	if ok != accept {
		t.Fatalf("parseValue(%q) accepted = %v, want %v", s, ok, accept)
	}
	if !ok {
		return
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parseValue(%q) accepted what ParseFloat rejects: %v", s, err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseValue(%q) = %v (%#x), ParseFloat = %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestParseRow(t *testing.T) {
	tests := []struct {
		line string
		ok   bool
		v    float64
	}{
		{"2012-06-04T00:15:00Z,1.5", true, 1.5},
		{"2012-06-04T00:15:00Z,", true, math.NaN()},
		{"2012-06-04T00:15:00Z,1,2", false, 0},
		{"2012-06-04T00:15:00Z,,", false, 0},
		{"2012-06-04T00:15:00Z", false, 0},
		{"2012-06-04T00:15:00+00:00,1", false, 0},
		{"2012-06-04T00:15:00Z,1e3", false, 0},
		{"2012-06-04T00:15:00Z,1\r", false, 0},
	}
	want := time.Date(2012, 6, 4, 0, 15, 0, 0, time.UTC)
	for _, tc := range tests {
		ts, v, ok := parseRow(tc.line)
		if ok != tc.ok {
			t.Errorf("parseRow(%q) ok = %v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if ok && (!ts.Equal(want) || math.Float64bits(v) != math.Float64bits(tc.v)) {
			t.Errorf("parseRow(%q) = %v, %v, want %v, %v", tc.line, ts, v, want, tc.v)
		}
	}
}
