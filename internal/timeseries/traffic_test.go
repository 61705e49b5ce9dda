package timeseries_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/household"
	"repro/internal/timeseries"
)

var trafficStart = time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC)

// simulatedCSV returns the CSV of household cfg over days at res, made
// the way gendata and flexbench make their inputs: household.Simulate,
// then WriteCSV.
func simulatedCSV(tb testing.TB, cfg household.Config, days int, res time.Duration) []byte {
	tb.Helper()
	r, err := household.Simulate(appliance.Default(), cfg, trafficStart, days, res)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Total.WriteCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteCSVRowsTakeFastPath holds WriteCSV's format to ReadCSV's fast
// row path: every row WriteCSV writes for simulated households at 1 and
// 15 minutes must parse without time.Parse or strconv.ParseFloat. The
// differential tests pass whichever path a row takes, so without this
// test a change to WriteCSV's format could lose the speed silently.
func TestWriteCSVRowsTakeFastPath(t *testing.T) {
	for _, tc := range []struct {
		res        time.Duration
		households int
		days       int
	}{
		{time.Minute, 10, 7},
		{15 * time.Minute, 10, 28},
	} {
		for _, cfg := range household.Population(tc.households, 1) {
			data := simulatedCSV(t, cfg, tc.days, tc.res)
			rows := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:]
			for i, row := range rows {
				if _, _, ok := timeseries.ParseRow(row); !ok {
					t.Fatalf("%s at %v: row %d %q leaves the fast path", cfg.ID, tc.res, i+1, row)
				}
			}
		}
	}
}

// BenchmarkReadCSV reads one simulated household file from disk through
// an *os.File, as mirabeld -seed-dir and flexbench do: 28 days at 15
// minutes (2,688 rows, a portfolio seed file) and 14 days at 1 minute
// (20,160 rows, an extract appliance file).
func BenchmarkReadCSV(b *testing.B) {
	for _, tc := range []struct {
		name string
		days int
		res  time.Duration
	}{
		{"15min-28d", 28, 15 * time.Minute},
		{"1min-14d", 14, time.Minute},
	} {
		b.Run(tc.name, func(b *testing.B) {
			data := simulatedCSV(b, household.Population(1, 1)[0], tc.days, tc.res)
			path := filepath.Join(b.TempDir(), "house.csv")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				b.Fatal(err)
			}
			rows := tc.days * int(24*time.Hour/tc.res)
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := os.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				_, err = timeseries.ReadCSV(f)
				f.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
