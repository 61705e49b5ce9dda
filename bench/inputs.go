package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/appliance"
	"repro/internal/household"
)

// writeHouseholds simulates household.Population(n, seed) over days at the
// given resolution from start and writes one timestamp,kwh CSV per
// household into dir, the layout mirabeld -seed-dir reads. Two workers
// share the simulation; generation is set-up work and never timed.
func writeHouseholds(dir string, n int, seed int64, start time.Time, days int, res time.Duration) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reg := appliance.Default()
	cfgs := household.Population(n, seed)
	const workers = 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cfgs) && errs[w] == nil; i += workers {
				errs[w] = writeHousehold(reg, dir, cfgs[i], start, days, res)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHousehold(reg *appliance.Registry, dir string, cfg household.Config, start time.Time, days int, res time.Duration) error {
	r, err := household.Simulate(reg, cfg, start, days, res)
	if err != nil {
		return fmt.Errorf("simulate %s: %w", cfg.ID, err)
	}
	path := filepath.Join(dir, cfg.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = r.Total.WriteCSV(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
