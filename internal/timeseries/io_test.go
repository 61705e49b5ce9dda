package timeseries

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	s := MustNew(t0, 15*time.Minute, []float64{1.5, math.NaN(), 0, 2.25})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !got.Start().Equal(s.Start()) || got.Resolution() != s.Resolution() || got.Len() != s.Len() {
		t.Fatalf("round trip shape mismatch: %v vs %v", got, s)
	}
	for i := 0; i < s.Len(); i++ {
		if !almostEqual(got.Value(i), s.Value(i), 1e-12) {
			t.Errorf("round trip value[%d] = %v, want %v", i, got.Value(i), s.Value(i))
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "foo,bar\n"},
		{"no rows", "timestamp,kwh\n"},
		{"bad timestamp", "timestamp,kwh\nnot-a-time,1\n"},
		{"bad value", "timestamp,kwh\n2012-06-01T00:00:00Z,abc\n"},
		{"irregular step", "timestamp,kwh\n2012-06-01T00:00:00Z,1\n2012-06-01T00:15:00Z,2\n2012-06-01T00:45:00Z,3\n"},
		{"backwards time", "timestamp,kwh\n2012-06-01T00:15:00Z,1\n2012-06-01T00:00:00Z,2\n"},
		{"wrong field count", "timestamp,kwh\n2012-06-01T00:00:00Z,1,extra\n"},
		{"zero step", "timestamp,kwh\n2012-06-01T00:00:00Z,1\n2012-06-01T00:00:00Z,2\n"},
		{"header field count", "timestamp\n2012-06-01T00:00:00Z,1\n"},
		{"blank lines only", "\r\n\n"},
		{"quoted bad value", "timestamp,kwh\n2012-06-01T00:00:00Z,\"abc\"\n"},
		{"bare quote", "timestamp,kwh\n2012-06-01T00:00:00Z,1\"5\n"},
	}
	for _, tc := range tests {
		if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: ReadCSV succeeded, want error", tc.name)
		}
	}
}

// TestReadCSVRejectsUnwritableSeries covers the inputs whose series
// WriteCSV could not write back, each one a FuzzReadCSV seed too.
func TestReadCSVRejectsUnwritableSeries(t *testing.T) {
	tests := []struct {
		name, in string
		want     error
	}{
		{"before year 0000 in UTC", "timestamp,kwh\n0000-01-01T00:00:00+00:01,1\n", ErrRange},
		{"span beyond a time.Duration", "timestamp,kwh\n0001-01-01T00:00:00Z,1\n0151-01-01T00:00:00Z,2\n0301-01-01T00:00:00Z,3\n", ErrRange},
		{"first step beyond a time.Duration", "timestamp,kwh\n0001-01-01T00:00:00Z,1\n0400-01-01T00:00:00Z,2\n", ErrResolution},
	}
	for _, tc := range tests {
		if _, err := ReadCSV(strings.NewReader(tc.in)); !errors.Is(err, tc.want) {
			t.Errorf("%s: ReadCSV error %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestReadCSVSingleRowDefaultsResolution(t *testing.T) {
	s, err := ReadCSV(strings.NewReader("timestamp,kwh\n2012-06-01T00:00:00Z,1.5\n"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if s.Resolution() != 15*time.Minute {
		t.Errorf("single-row resolution = %v, want 15m", s.Resolution())
	}
}

// TestReadCSVKeepsNoSlack: ReadCSV sizes its values by the newline
// count, which blank lines push above the row count. The series must
// not keep that slack, or an Append would write into it in place.
func TestReadCSVKeepsNoSlack(t *testing.T) {
	s, err := ReadCSV(strings.NewReader("timestamp,kwh\n\n2012-06-01T00:00:00Z,1\n\n\n2012-06-01T00:15:00Z,2\n\n"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(s.values) != 2 || cap(s.values) != 2 {
		t.Errorf("values len %d cap %d, want 2 and 2", len(s.values), cap(s.values))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := MustNew(t0, 15*time.Minute, []float64{1, math.NaN(), 3})
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got Series
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.Start().Equal(s.Start()) || got.Resolution() != s.Resolution() {
		t.Fatalf("JSON round trip shape: %v", &got)
	}
	for i := 0; i < s.Len(); i++ {
		if !almostEqual(got.Value(i), s.Value(i), 1e-12) {
			t.Errorf("JSON value[%d] = %v, want %v", i, got.Value(i), s.Value(i))
		}
	}
}

func TestUnmarshalJSONErrors(t *testing.T) {
	var s Series
	for _, in := range []string{
		`{`,
		`{"start":"2012-06-01T00:00:00Z","resolution":"nope","values":[]}`,
		`{"start":"2012-06-01T00:00:00Z","resolution":"-15m0s","values":[]}`,
	} {
		if err := s.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("UnmarshalJSON(%q) succeeded, want error", in)
		}
	}
}

// Property: CSV round trip is the identity for random non-negative series.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		vals := make([]float64, n)
		for i := range vals {
			if rng.Float64() < 0.1 {
				vals[i] = math.NaN()
			} else {
				vals[i] = rng.Float64() * 10
			}
		}
		s := MustNew(t0, 15*time.Minute, vals)
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil || got.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if !almostEqual(got.Value(i), s.Value(i), 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// householdCSV writes a days-long series at the given resolution the way
// gendata writes a household file: WriteCSV over random 17-digit values.
func householdCSV(tb testing.TB, days int, res time.Duration) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, days*int(24*time.Hour/res))
	for i := range vals {
		vals[i] = rng.Float64() * 2
	}
	var buf bytes.Buffer
	if err := MustNew(t0, res, vals).WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadCSVAllocations pins ReadCSV's allocation count independently
// of the row count: 14 days at 1 minute is 20,160 rows. The reader hides
// WriterTo and Stat, so the input arrives in chunks of unknown total
// size, the worst case for ReadCSV's buffer.
func TestReadCSVAllocations(t *testing.T) {
	data := householdCSV(t, 14, time.Minute)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadCSV(struct{ io.Reader }{bytes.NewReader(data)}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadCSV of 20,160 rows: %.0f allocations", allocs)
	if allocs >= 64 {
		t.Errorf("ReadCSV of 20,160 rows allocates %.0f times, want fewer than 64", allocs)
	}
}
