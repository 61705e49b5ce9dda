package timeseries

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzReadCSV compares ReadCSV with the encoding/csv path (readQuotedCSV)
// on every input: either both reject it, or both accept it with the same
// start, resolution and bitwise-equal values. readQuotedCSV parses every
// field with time.Parse and strconv.ParseFloat, so this also holds
// ReadCSV's fast row path (parseRow) to the standard parsers. Everything
// accepted must also survive a write/read cycle unchanged.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"timestamp,kwh\n2012-06-04T00:00:00Z,1.5\n2012-06-04T00:15:00Z,2\n",
		"timestamp,kwh\n2012-06-04T00:00:00Z,\n",
		"timestamp,kwh\n",
		"",
		"garbage",
		"timestamp,kwh\n2012-06-04T00:00:00Z,1\n2012-06-04T00:00:00Z,1\n",
		"timestamp,kwh\nnot-a-time,1\n",
		// Line endings: CRLF, blank lines, no final newline, a lone \r.
		"timestamp,kwh\r\n2012-06-04T00:00:00Z,1\r\n2012-06-04T00:15:00Z,2\r\n",
		"\n\ntimestamp,kwh\n\n2012-06-04T00:00:00Z,1\r\n\r\n\n2012-06-04T00:15:00Z,2",
		"timestamp,kwh\n2012-06-04T00:00:00Z,1\r",
		"timestamp,kwh\r2012-06-04T00:00:00Z,1\n",
		"timestamp,kwh\n2012-06-04T00:00:00Z,1\r\r\n",
		// Quoted fields, and a quoted header cell holding a newline.
		"timestamp,kwh\n\"2012-06-04T00:00:00Z\",\"1.5\"\n2012-06-04T00:15:00Z,\"\"\n",
		"timestamp,\"k\nwh\"\n2012-06-04T00:00:00Z,1\n",
		"timestamp,kwh\n2012-06-04T00:00:00Z,1\"5\n",
		// A UTF-8 byte order mark.
		"\ufefftimestamp,kwh\n2012-06-04T00:00:00Z,1\n",
		// Offsets and fractional seconds.
		"timestamp,kwh\n2012-06-04T02:00:00+02:00,1\n2012-06-04T00:15:00Z,2\n2012-06-04T02:30:00+02:00,3\n",
		"timestamp,kwh\n2012-06-04T00:00:00.25Z,1\n2012-06-04T00:00:00.75Z,2\n",
		// One field, three fields, a trailing comma.
		"timestamp,kwh\n2012-06-04T00:00:00Z\n",
		"timestamp\n2012-06-04T00:00:00Z,1\n",
		"timestamp,kwh\n2012-06-04T00:00:00Z,1,2\n",
		"timestamp,kwh,\n2012-06-04T00:00:00Z,1\n",
		"timestamp,kwh\n2012-06-04T00:00:00Z,1,\n",
		// Series WriteCSV could not write back: before year 0000 in UTC,
		// a span or a step beyond a time.Duration.
		"timestamp,\n0000-01-01T0:00:00+00:01,",
		"timestamp,kwh\n0001-01-01T00:00:00Z,1\n0151-01-01T00:00:00Z,2\n0301-01-01T00:00:00Z,3\n",
		"timestamp,kwh\n0001-01-01T00:00:00Z,1\n0400-01-01T00:00:00Z,2\n0800-01-01T00:00:00Z,3\n",
		// Special and hex floats.
		"timestamp,kwh\n2012-06-04T00:00:00Z,NaN\n2012-06-04T00:15:00Z,Inf\n2012-06-04T00:30:00Z,-inf\n2012-06-04T00:45:00Z,0x1.8p1\n",
		// Fast and standard-parser rows in one series: a fractional
		// second, an exponent and an offset leave the fast path, -0 and
		// a 17-digit value stay on it.
		"timestamp,kwh\n2012-06-04T00:00:00Z,-0\n2012-06-04T00:15:00.0Z,1e0\n2012-06-04T00:30:00Z,0.30000000000000004\n2012-06-04T00:45:00+00:00,\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadCSV(strings.NewReader(input))
		want, wantErr := readQuotedCSV(strings.NewReader(input))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadCSV error %v, encoding/csv error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if d := seriesDiff(got, want); d != "" {
			t.Fatalf("ReadCSV and encoding/csv disagree: %s", d)
		}
		var buf bytes.Buffer
		if err := got.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV after accept: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if d := seriesDiff(back, got); d != "" {
			t.Fatalf("round trip changed the series: %s", d)
		}
	})
}

// FuzzParseStamp compares parseStamp with time.Parse: whenever the
// kernel accepts a stamp, time.Parse must accept it too and return the
// same instant in the same location.
func FuzzParseStamp(f *testing.F) {
	for _, seed := range []string{
		"2012-06-04T00:15:00Z",
		"0000-02-29T23:59:59Z",
		"9999-12-31T23:59:59Z",
		"1900-02-29T00:00:00Z",
		"2012-04-31T00:00:00Z",
		"2012-13-01T00:00:00Z",
		"2012-06-04T24:00:00Z",
		"2012-06-04T00:60:00Z",
		"2012-06-04T00:00:60Z",
		"2012-06-04T00:00:00z",
		"2012-06-04T02:00:00+02:00",
		"2012-06-04T00:00:00.5Z",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := parseStamp(s)
		if !ok {
			return
		}
		want, err := time.Parse(time.RFC3339, s)
		if err != nil {
			t.Fatalf("parseStamp(%q) accepted what time.Parse rejects: %v", s, err)
		}
		if !got.Equal(want) || got.Location() != want.Location() {
			t.Fatalf("parseStamp(%q) = %v, time.Parse = %v", s, got, want)
		}
	})
}

// FuzzParseValue compares parseValue with strconv.ParseFloat: whenever
// the kernel accepts a value, ParseFloat must accept it too and return
// the same bits.
func FuzzParseValue(f *testing.F) {
	for _, seed := range []string{
		"0.008426452954586012", "1.5", "-0", "0.000", "1.", ".5",
		"9007199254740993", "0.30000000000000004", "9999999999999999999",
		"0.0000000000000000001", "0000000000000000000000000001.25",
		"99999999999999999999", "1e5", "NaN", "-Inf", "0x1p3", "+1", "1,2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := parseValue(s)
		if !ok {
			return
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parseValue(%q) accepted what ParseFloat rejects: %v", s, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseValue(%q) = %v, ParseFloat = %v", s, got, want)
		}
	})
}

// seriesDiff describes the first difference between a and b in start,
// resolution, length or the bits of a value; "" when there is none.
func seriesDiff(a, b *Series) string {
	switch {
	case !a.Start().Equal(b.Start()):
		return fmt.Sprintf("start %v vs %v", a.Start(), b.Start())
	case a.Resolution() != b.Resolution():
		return fmt.Sprintf("resolution %v vs %v", a.Resolution(), b.Resolution())
	case a.Len() != b.Len():
		return fmt.Sprintf("length %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if math.Float64bits(a.Value(i)) != math.Float64bits(b.Value(i)) {
			return fmt.Sprintf("value[%d] %v vs %v", i, a.Value(i), b.Value(i))
		}
	}
	return ""
}

// FuzzSeriesJSON checks the JSON unmarshaller never panics and accepted
// payloads round-trip.
func FuzzSeriesJSON(f *testing.F) {
	f.Add(`{"start":"2012-06-04T00:00:00Z","resolution":"15m0s","values":[1,null,3]}`)
	f.Add(`{"start":"2012-06-04T00:00:00Z","resolution":"-5m","values":[]}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`{"start":1}`)
	f.Fuzz(func(t *testing.T, input string) {
		var s Series
		if err := s.UnmarshalJSON([]byte(input)); err != nil {
			return
		}
		data, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal after accept: %v", err)
		}
		var back Series
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if back.Len() != s.Len() {
			t.Fatalf("round trip changed length: %d vs %d", back.Len(), s.Len())
		}
	})
}
