// Command gendata synthesises household consumption data — the stand-in for
// the real-world series the paper extracts flexibilities from. It writes
// one CSV per household (timestamp,kwh) plus a ground-truth activations
// JSON that extraction quality can be scored against.
//
// Usage:
//
//	gendata -out data/ -households 10 -days 28 -res 15m
//	gendata -out data/ -households 1 -days 28 -res 1m -tariff-shift 0.8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/appliance"
	"repro/internal/household"
	"repro/internal/tariff"
)

func main() {
	out := flag.String("out", "data", "output directory")
	households := flag.Int("households", 5, "number of households")
	days := flag.Int("days", 28, "days to simulate")
	resStr := flag.String("res", "15m", "series resolution (whole minutes dividing 24h)")
	seed := flag.Int64("seed", 1, "population seed")
	start := flag.String("start", "2012-06-04", "first day (YYYY-MM-DD)")
	tariffShift := flag.Float64("tariff-shift", 0,
		"if > 0, bill households with a 22:00-06:00 time-of-use tariff and shift flexible runs with this probability")
	flag.Parse()

	if err := run(*out, *households, *days, *resStr, *seed, *start, *tariffShift); err != nil {
		fmt.Fprintf(os.Stderr, "gendata: %v\n", err)
		os.Exit(1)
	}
}

// activationJSON is the ground-truth wire format.
type activationJSON struct {
	Household string    `json:"household"`
	Appliance string    `json:"appliance"`
	Start     time.Time `json:"start"`
	Duration  string    `json:"duration"`
	EnergyKWh float64   `json:"energy_kwh"`
	Flexible  bool      `json:"flexible"`
	Shifted   bool      `json:"shifted"`
}

func run(out string, households, days int, resStr string, seed int64, start string, tariffShift float64) error {
	resolution, err := time.ParseDuration(resStr)
	if err != nil {
		return fmt.Errorf("bad -res: %w", err)
	}
	day0, err := time.Parse("2006-01-02", start)
	if err != nil {
		return fmt.Errorf("bad -start: %w", err)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	reg := appliance.Default()
	cfgs := household.Population(households, seed)
	if tariffShift > 0 {
		tou := tariff.TimeOfUse{HighPrice: 0.40, LowPrice: 0.15, LowStartHour: 22, LowEndHour: 6}
		for i := range cfgs {
			cfgs[i].Tariff = tou
			cfgs[i].Response = tariff.Response{ShiftProbability: tariffShift}
		}
	}

	var truth []activationJSON
	for _, cfg := range cfgs {
		r, err := household.Simulate(reg, cfg, day0, days, resolution)
		if err != nil {
			return fmt.Errorf("simulate %s: %w", cfg.ID, err)
		}
		path := filepath.Join(out, cfg.ID+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := r.Total.WriteCSV(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write %s: %w", path, werr)
		}
		for _, a := range r.Activations {
			truth = append(truth, activationJSON{
				Household: cfg.ID, Appliance: a.Appliance, Start: a.Start,
				Duration: a.Duration.String(), EnergyKWh: a.Energy,
				Flexible: a.Flexible, Shifted: a.Shifted,
			})
		}
		fmt.Printf("wrote %s (%d intervals, %.1f kWh, %d activations)\n",
			path, r.Total.Len(), r.Total.Total(), len(r.Activations))
	}

	truthPath := filepath.Join(out, "ground_truth.json")
	tf, err := os.Create(truthPath)
	if err != nil {
		return err
	}
	// Compact, not indented: the file already outweighs the CSVs it
	// describes, and indentation adds more than a quarter.
	werr := json.NewEncoder(tf).Encode(truth)
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write %s: %w", truthPath, werr)
	}
	fmt.Printf("wrote %s (%d activations)\n", truthPath, len(truth))
	return nil
}
