// Package patterns mines appliance usage patterns from detected (or
// ground-truth) activation events: usage frequencies for the
// frequency-based extraction (§4.1 — "derive which appliance and how
// frequently was used") and usage schedules for the schedule-based
// extraction (§4.2 — "the exact schedule of the usage of each appliance can
// be derived").
package patterns

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/timeseries"
)

// ErrInput is wrapped by input validation errors.
var ErrInput = errors.New("patterns: invalid input")

// Event is one appliance activation, as produced by disaggregation.
type Event struct {
	Appliance string
	Start     time.Time
	Energy    float64
}

// Frequency summarises how often one appliance runs.
type Frequency struct {
	Appliance string
	// Count is the number of observed runs.
	Count int
	// RunsPerDay is Count divided by the observation days.
	RunsPerDay float64
	// RunsPerWorkday and RunsPerWeekendDay split the rate by day type
	// (the §4.2 observation that dishwashers run more on weekends).
	RunsPerWorkday    float64
	RunsPerWeekendDay float64
	// MeanEnergy is the average energy per run, in kWh.
	MeanEnergy float64
	// MeanStartHour is the circularly averaged start hour of day [0, 24).
	MeanStartHour float64
}

// Frequencies estimates per-appliance usage frequency over the observation
// window [from, to). Events outside the window are ignored. Results are
// sorted by appliance name.
func Frequencies(events []Event, from, to time.Time) ([]Frequency, error) {
	days := to.Sub(from).Hours() / 24
	if days <= 0 {
		return nil, fmt.Errorf("%w: empty observation window", ErrInput)
	}
	workdays, weekendDays := countDayTypes(from, to)

	type acc struct {
		count, workday, weekend int
		energy                  float64
		sinSum, cosSum          float64
	}
	byApp := make(map[string]*acc)
	for _, e := range events {
		if e.Start.Before(from) || !e.Start.Before(to) {
			continue
		}
		a := byApp[e.Appliance]
		if a == nil {
			a = &acc{}
			byApp[e.Appliance] = a
		}
		a.count++
		a.energy += e.Energy
		if timeseries.DayTypeOf(e.Start) == timeseries.Weekend {
			a.weekend++
		} else {
			a.workday++
		}
		h := float64(e.Start.UTC().Hour()) + float64(e.Start.UTC().Minute())/60
		angle := 2 * math.Pi * h / 24
		a.sinSum += math.Sin(angle)
		a.cosSum += math.Cos(angle)
	}

	out := make([]Frequency, 0, len(byApp))
	for name, a := range byApp {
		f := Frequency{
			Appliance:  name,
			Count:      a.count,
			RunsPerDay: float64(a.count) / days,
			MeanEnergy: a.energy / float64(a.count),
		}
		if workdays > 0 {
			f.RunsPerWorkday = float64(a.workday) / float64(workdays)
		}
		if weekendDays > 0 {
			f.RunsPerWeekendDay = float64(a.weekend) / float64(weekendDays)
		}
		hour := math.Atan2(a.sinSum, a.cosSum) / (2 * math.Pi) * 24
		if hour < 0 {
			hour += 24
		}
		f.MeanStartHour = hour
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Appliance < out[j].Appliance })
	return out, nil
}

// countDayTypes counts whole calendar days of each type in [from, to).
func countDayTypes(from, to time.Time) (workdays, weekendDays int) {
	day := timeseries.TruncateDay(from)
	for day.Before(to) {
		if timeseries.DayTypeOf(day) == timeseries.Weekend {
			weekendDays++
		} else {
			workdays++
		}
		day = day.Add(24 * time.Hour)
	}
	return workdays, weekendDays
}

// ScheduleEntry is one mined habitual usage slot: "this appliance tends to
// run in this hour on this kind of day".
type ScheduleEntry struct {
	Appliance string
	DayType   timeseries.DayType
	Hour      int
	// Probability is the fraction of days of this type with a run starting
	// in this hour.
	Probability float64
	// MeanEnergy is the average run energy in this slot, in kWh.
	MeanEnergy float64
}

// MineSchedule derives the usage schedule of each appliance: hour-of-day ×
// day-type cells whose empirical start probability is at least minSupport.
// Entries are sorted by appliance, day type, hour.
func MineSchedule(events []Event, from, to time.Time, minSupport float64) ([]ScheduleEntry, error) {
	if minSupport <= 0 || minSupport > 1 {
		return nil, fmt.Errorf("%w: support %v outside (0, 1]", ErrInput, minSupport)
	}
	workdays, weekendDays := countDayTypes(from, to)
	if workdays+weekendDays == 0 {
		return nil, fmt.Errorf("%w: empty observation window", ErrInput)
	}

	type cell struct {
		count  int
		energy float64
	}
	cells := make(map[string]map[timeseries.DayType]map[int]*cell)
	for _, e := range events {
		if e.Start.Before(from) || !e.Start.Before(to) {
			continue
		}
		dt := timeseries.DayTypeOf(e.Start)
		h := e.Start.UTC().Hour()
		byDT := cells[e.Appliance]
		if byDT == nil {
			byDT = make(map[timeseries.DayType]map[int]*cell)
			cells[e.Appliance] = byDT
		}
		byHour := byDT[dt]
		if byHour == nil {
			byHour = make(map[int]*cell)
			byDT[dt] = byHour
		}
		c := byHour[h]
		if c == nil {
			c = &cell{}
			byHour[h] = c
		}
		c.count++
		c.energy += e.Energy
	}

	var out []ScheduleEntry
	for app, byDT := range cells {
		for dt, byHour := range byDT {
			denom := workdays
			if dt == timeseries.Weekend {
				denom = weekendDays
			}
			if denom == 0 {
				continue
			}
			for h, c := range byHour {
				p := float64(c.count) / float64(denom)
				if p >= minSupport {
					out = append(out, ScheduleEntry{
						Appliance:   app,
						DayType:     dt,
						Hour:        h,
						Probability: math.Min(p, 1),
						MeanEnergy:  c.energy / float64(c.count),
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Appliance != b.Appliance {
			return a.Appliance < b.Appliance
		}
		if a.DayType != b.DayType {
			return a.DayType < b.DayType
		}
		return a.Hour < b.Hour
	})
	return out, nil
}
