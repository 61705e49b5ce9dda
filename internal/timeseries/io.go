package timeseries

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"time"
)

// CSV layout: a header row "timestamp,kwh" followed by one row per interval
// with an RFC 3339 timestamp (fractional seconds only where the instant has
// them) and a decimal energy value. Missing values are written as empty
// fields and parsed back to NaN. The resolution is inferred from the first
// two rows and validated against every subsequent row, so a file with gaps
// or irregular sampling is rejected rather than silently misread.

// WriteCSV writes the series to w in the CSV layout described above.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", "kwh"}); err != nil {
		return fmt.Errorf("timeseries: write csv header: %w", err)
	}
	for i, v := range s.values {
		field := ""
		if !math.IsNaN(v) {
			field = strconv.FormatFloat(v, 'f', -1, 64)
		}
		if err := cw.Write([]string{s.TimeAt(i).Format(time.RFC3339Nano), field}); err != nil {
			return fmt.Errorf("timeseries: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a series from r in the layout written by WriteCSV.
//
// Input without a '"' byte, which is everything WriteCSV writes, is split
// in place: one row per line, one comma per row, the line endings and
// blank lines treated as encoding/csv treats them, with no allocation per
// row. A row of the one shape WriteCSV writes, "YYYY-MM-DDTHH:MM:SSZ" and
// a plain decimal "[-]digits[.digits]" of at most 19 significant and 19
// fractional digits (or nothing), is parsed by integer kernels (parseRow);
// every other row falls back to time.Parse and strconv.ParseFloat, which
// also word its error. Input that holds a '"' byte has quoted fields,
// which may hide commas, quotes and newlines; it goes through
// encoding/csv and the standard parsers alone (readQuotedCSV). Both paths
// accept the same inputs and return bitwise the same series: FuzzReadCSV
// compares them, and the kernels are held to the standard parsers by
// TestParseStampMatchesTimeParse, TestParseValueMatchesParseFloat,
// FuzzParseStamp and FuzzParseValue, while TestWriteCSVRowsTakeFastPath
// keeps WriteCSV's rows on the fast path. A series WriteCSV could not
// write back, one whose span overflows a time.Duration or whose instants
// leave the years 0000-9999 in UTC, is rejected with ErrRange.
//
// ReadCSV runs once per household file on every seed and extraction
// batch; TestReadCSVAllocations holds it to no allocation per row.
func ReadCSV(r io.Reader) (*Series, error) {
	var buf strings.Builder
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
			buf.Grow(int(fi.Size())) // a file's size: no regrowth while copying
		}
	}
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("timeseries: read csv: %w", err)
	}
	text := buf.String()
	if strings.IndexByte(text, '"') >= 0 {
		return readQuotedCSV(strings.NewReader(text))
	}
	var header string
	lineNo := 0 // as encoding/csv counts them, blank lines included
	for header == "" {
		if text == "" {
			return nil, fmt.Errorf("timeseries: read csv header: %w", io.EOF)
		}
		header, text = cutLine(text)
		lineNo++
	}
	name, unit, ok := splitRow(header)
	if !ok {
		return nil, fmt.Errorf("timeseries: read csv header: %w", fieldCountError(lineNo))
	}
	if name != "timestamp" {
		return nil, headerError(name, unit)
	}
	// Every data row ends in a newline but perhaps the last: a bound on
	// the row count, so values is made once.
	rows := strings.Count(text, "\n")
	if !strings.HasSuffix(text, "\n") {
		rows++
	}
	b := seriesBuilder{values: make([]float64, 0, rows)}
	for row := 1; text != ""; {
		var line string
		line, text = cutLine(text)
		lineNo++
		if line == "" {
			continue
		}
		if ts, v, ok := parseRow(line); ok {
			if err := b.push(row, ts, v); err != nil {
				return nil, err
			}
		} else {
			stamp, value, ok := splitRow(line)
			if !ok {
				return nil, rowError(row, fieldCountError(lineNo))
			}
			if err := b.add(row, stamp, value); err != nil {
				return nil, err
			}
		}
		row++
	}
	return b.series()
}

// cutLine splits the first line off s as encoding/csv reads one: up to
// the next '\n' or the end of s, less one trailing '\r'. A line that is
// empty after that is a blank line, which the reader skips.
func cutLine(s string) (line, rest string) {
	line, rest, _ = strings.Cut(s, "\n")
	return strings.TrimSuffix(line, "\r"), rest
}

// splitRow splits a line into its two fields; ok is false unless the line
// holds exactly one comma.
func splitRow(line string) (first, second string, ok bool) {
	first, second, ok = strings.Cut(line, ",")
	return first, second, ok && strings.IndexByte(second, ',') < 0
}

// fieldCountError is the error encoding/csv returns for a record on the
// given line that does not hold exactly two fields.
func fieldCountError(lineNo int) error {
	return &csv.ParseError{StartLine: lineNo, Line: lineNo, Column: 1, Err: csv.ErrFieldCount}
}

// rowError wraps the error that stopped the read of data row number row.
func rowError(row int, err error) error {
	return fmt.Errorf("timeseries: read csv row %d: %w", row, err)
}

// headerError reports a header whose first field is not "timestamp".
func headerError(fields ...string) error {
	return fmt.Errorf("timeseries: unexpected csv header %q", fields)
}

// readQuotedCSV is ReadCSV through encoding/csv, for input with quoted
// fields.
func readQuotedCSV(r io.Reader) (*Series, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("timeseries: read csv header: %w", err)
	}
	if header[0] != "timestamp" {
		return nil, headerError(header...)
	}
	var b seriesBuilder
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, rowError(row, err)
		}
		if err := b.add(row, rec[0], rec[1]); err != nil {
			return nil, err
		}
	}
	return b.series()
}

// seriesBuilder collects a CSV's rows into a series: the first row fixes
// the start, the first two the resolution, and every later row must keep
// that step.
type seriesBuilder struct {
	start, prev time.Time
	resolution  time.Duration
	values      []float64
}

// add parses data row number row (counted from 1 after the header) from
// its timestamp and value fields; an empty value is missing (NaN).
func (b *seriesBuilder) add(row int, stamp, value string) error {
	ts, err := time.Parse(time.RFC3339, stamp)
	if err != nil {
		return fmt.Errorf("timeseries: row %d: bad timestamp %q: %w", row, stamp, err)
	}
	v := math.NaN()
	if value != "" {
		if v, err = strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("timeseries: row %d: bad value %q: %w", row, value, err)
		}
	}
	return b.push(row, ts, v)
}

// push appends data row number row, already parsed, after checking its
// step from the previous row.
func (b *seriesBuilder) push(row int, ts time.Time, v float64) error {
	// Steps compare by Add, not Sub: Sub saturates beyond ~292 years, so
	// two huge steps would compare equal.
	switch len(b.values) {
	case 0:
		b.start = ts
	case 1:
		b.resolution = ts.Sub(b.prev)
		if b.resolution <= 0 || !b.prev.Add(b.resolution).Equal(ts) {
			return fmt.Errorf("%w: inferred %v", ErrResolution, b.resolution)
		}
	default:
		if !b.prev.Add(b.resolution).Equal(ts) {
			return fmt.Errorf("timeseries: row %d: irregular step %v (expected %v)", row, ts.Sub(b.prev), b.resolution)
		}
	}
	b.prev = ts
	b.values = append(b.values, v)
	return nil
}

// series returns the collected series. The values are not copied, but
// their capacity is cut to their length, so an Append to the series
// never writes into the builder's slack. It rejects a series that
// WriteCSV could not write back: one whose span overflows a
// time.Duration, or whose instants leave the years 0000-9999 that
// RFC 3339 allows once normalised to UTC.
func (b *seriesBuilder) series() (*Series, error) {
	n := len(b.values)
	switch n {
	case 0:
		return nil, ErrEmpty
	case 1:
		b.resolution = 15 * time.Minute // single-row files default to the MIRABEL granularity
	}
	if int64(n) > math.MaxInt64/int64(b.resolution) {
		return nil, fmt.Errorf("%w: %d rows of %v overflow a time.Duration", ErrRange, n, b.resolution)
	}
	first, last := b.start.UTC(), b.prev.UTC()
	if first.Year() < 0 || last.Year() > 9999 {
		return nil, fmt.Errorf("%w: %v to %v leaves the years 0000-9999", ErrRange, first, last)
	}
	return &Series{start: first, resolution: b.resolution, values: b.values[:n:n]}, nil
}

// seriesJSON is the wire representation of a Series. NaN is not valid JSON,
// so missing values are carried as nulls via *float64.
type seriesJSON struct {
	Start      time.Time  `json:"start"`
	Resolution string     `json:"resolution"`
	Values     []*float64 `json:"values"`
}

// MarshalJSON implements json.Marshaler.
func (s *Series) MarshalJSON() ([]byte, error) {
	out := seriesJSON{Start: s.start, Resolution: s.resolution.String(), Values: make([]*float64, len(s.values))}
	for i := range s.values {
		if !math.IsNaN(s.values[i]) {
			v := s.values[i]
			out.Values[i] = &v
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Series) UnmarshalJSON(data []byte) error {
	var in seriesJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("timeseries: unmarshal: %w", err)
	}
	res, err := time.ParseDuration(in.Resolution)
	if err != nil {
		return fmt.Errorf("timeseries: unmarshal resolution: %w", err)
	}
	if res <= 0 {
		return fmt.Errorf("%w: %v", ErrResolution, res)
	}
	vals := make([]float64, len(in.Values))
	for i, p := range in.Values {
		if p == nil {
			vals[i] = math.NaN()
		} else {
			vals[i] = *p
		}
	}
	s.start = in.Start.UTC()
	s.resolution = res
	s.values = vals
	return nil
}
