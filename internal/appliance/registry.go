package appliance

import (
	"fmt"
	"time"
)

// Registry is the appliance specification catalogue — the paper's "context
// information: the specification of the electricity usage of all appliances
// ever manufactured in the world" (§4.1), pragmatically reduced to the
// models the simulated households use. Iteration order is insertion order,
// so experiments are deterministic.
type Registry struct {
	byName map[string]*Appliance
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Appliance)}
}

// Add validates and registers an appliance. Duplicate names are rejected.
func (r *Registry) Add(a *Appliance) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if _, dup := r.byName[a.Name]; dup {
		return fmt.Errorf("%w: duplicate appliance %q", ErrInvalid, a.Name)
	}
	r.byName[a.Name] = a
	r.order = append(r.order, a.Name)
	return nil
}

// Get looks an appliance up by name.
func (r *Registry) Get(name string) (*Appliance, bool) {
	a, ok := r.byName[name]
	return a, ok
}

// Len reports the number of registered appliances.
func (r *Registry) Len() int { return len(r.order) }

// All returns every appliance in insertion order.
func (r *Registry) All() []*Appliance {
	out := make([]*Appliance, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.byName[name])
	}
	return out
}

// Flexible returns the appliances marked shiftable, in insertion order.
func (r *Registry) Flexible() []*Appliance {
	var out []*Appliance
	for _, a := range r.All() {
		if a.Flexible {
			out = append(out, a)
		}
	}
	return out
}

// rangeEnvelope builds an envelope whose feasible total-energy range is
// exactly [minE, maxE]: the nominal per-minute energy follows shape with
// total (minE+maxE)/2, and the relative band spread is chosen so that
// summing all minima gives minE and all maxima gives maxE.
func rangeEnvelope(shape []float64, minE, maxE float64) []Band {
	nominal := (minE + maxE) / 2
	spread := 0.0
	if nominal > 0 {
		spread = (maxE - minE) / (maxE + minE)
	}
	return ShapedEnvelope(shape, nominal, spread)
}

// flatShape returns n equal weights.
func flatShape(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// washShape models a washing-machine cycle: a heating phase up front, a long
// low drum phase, and spin spikes at the end.
func washShape(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch {
		case i < n/4: // heating
			s[i] = 5
		case i >= n-n/8: // spin
			s[i] = 3
		default: // drum
			s[i] = 1
		}
	}
	return s
}

// dishShape models a dishwasher cycle: two heating bumps (wash and dry).
func dishShape(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch {
		case i < n/5, i >= 3*n/5 && i < 4*n/5: // heat phases
			s[i] = 4
		default:
			s[i] = 1
		}
	}
	return s
}

// taperShape models battery charging: constant current then a taper.
func taperShape(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if i < 3*n/4 {
			s[i] = 4
		} else {
			// Linear taper over the last quarter.
			s[i] = 4 * float64(n-i) / float64(n-3*n/4)
		}
	}
	return s
}

// eveningHours weights starts into the 17:00–22:00 block.
func eveningHours() (w [24]float64) {
	for h := 17; h <= 22; h++ {
		w[h] = 1
	}
	return w
}

// nightHours weights starts into the 22:00–02:00 block (EV charging).
func nightHours() (w [24]float64) {
	w[22], w[23], w[0], w[1], w[2] = 3, 3, 2, 1, 1
	return w
}

// morningHours weights starts into the 08:00–12:00 block.
func morningHours() (w [24]float64) {
	for h := 8; h <= 12; h++ {
		w[h] = 1
	}
	return w
}

// Default builds the registry with the six Table 1 rows plus the common
// household appliances the simulator composes load curves from. All
// specifications validate; Default panics otherwise (a programming error).
func Default() *Registry {
	r := NewRegistry()
	add := func(a *Appliance) {
		if err := r.Add(a); err != nil {
			panic(fmt.Sprintf("appliance: default registry: %v", err))
		}
	}

	// --- Table 1 rows -------------------------------------------------
	add(&Appliance{
		Name: "vacuum cleaning robot X", Manufacturer: "Manufacturer X", Category: Cleaning,
		MinRunEnergy: 0.5, MaxRunEnergy: 1.0,
		Envelope: rangeEnvelope(taperShape(90), 0.5, 1.0), // 90-min charge
		Flexible: true, RunsPerDay: 1.0, TimeFlexibility: 22 * time.Hour,
		HourWeights: morningHours(), WeekendFactor: 1.0,
	})
	add(&Appliance{
		Name: "washing machine Y", Manufacturer: "Manufacturer Y", Category: Wet,
		MinRunEnergy: 1.2, MaxRunEnergy: 3.0,
		Envelope: rangeEnvelope(washShape(110), 1.2, 3.0),
		Flexible: true, RunsPerDay: 0.6, TimeFlexibility: 8 * time.Hour,
		HourWeights: eveningHours(), WeekendFactor: 1.5,
	})
	add(&Appliance{
		Name: "dishwasher Z", Manufacturer: "Manufacturer Z", Category: Wet,
		MinRunEnergy: 1.2, MaxRunEnergy: 2.0,
		Envelope: rangeEnvelope(dishShape(100), 1.2, 2.0),
		Flexible: true, RunsPerDay: 0.8, TimeFlexibility: 10 * time.Hour,
		HourWeights: eveningHours(), WeekendFactor: 1.4,
	})
	add(&Appliance{
		Name: "small electric vehicle", Category: Vehicle,
		MinRunEnergy: 30, MaxRunEnergy: 50,
		Envelope: rangeEnvelope(taperShape(360), 30, 50), // 6-h charge
		Flexible: true, RunsPerDay: 0.3, TimeFlexibility: 7 * time.Hour,
		HourWeights: nightHours(), WeekendFactor: 0.7,
	})
	add(&Appliance{
		Name: "medium electric vehicle", Category: Vehicle,
		MinRunEnergy: 50, MaxRunEnergy: 60,
		Envelope: rangeEnvelope(taperShape(420), 50, 60), // 7-h charge
		Flexible: true, RunsPerDay: 0.25, TimeFlexibility: 7 * time.Hour,
		HourWeights: nightHours(), WeekendFactor: 0.7,
	})
	add(&Appliance{
		Name: "large electric vehicle", Category: Vehicle,
		MinRunEnergy: 60, MaxRunEnergy: 70,
		Envelope: rangeEnvelope(taperShape(480), 60, 70), // 8-h charge
		Flexible: true, RunsPerDay: 0.2, TimeFlexibility: 6 * time.Hour,
		HourWeights: nightHours(), WeekendFactor: 0.7,
	})

	// --- Common household appliances beyond Table 1 --------------------
	add(&Appliance{
		Name: "tumble dryer", Category: Wet,
		MinRunEnergy: 2.0, MaxRunEnergy: 4.0,
		Envelope: rangeEnvelope(flatShape(80), 2.0, 4.0),
		Flexible: true, RunsPerDay: 0.4, TimeFlexibility: 6 * time.Hour,
		HourWeights: eveningHours(), WeekendFactor: 1.5,
	})
	add(&Appliance{
		Name: "water heater", Category: Heating,
		MinRunEnergy: 1.5, MaxRunEnergy: 2.5,
		Envelope: rangeEnvelope(flatShape(60), 1.5, 2.5),
		Flexible: true, RunsPerDay: 1.0, TimeFlexibility: 4 * time.Hour,
		HourWeights: morningHours(), WeekendFactor: 1.0,
	})
	add(&Appliance{
		Name: "oven", Category: Kitchen,
		MinRunEnergy: 0.8, MaxRunEnergy: 1.6,
		Envelope: rangeEnvelope(flatShape(45), 0.8, 1.6),
		Flexible: false, RunsPerDay: 0.7, TimeFlexibility: 0,
		HourWeights: eveningHours(), WeekendFactor: 1.3,
	})
	add(&Appliance{
		Name: "television", Category: Entertainment,
		MinRunEnergy: 0.2, MaxRunEnergy: 0.5,
		Envelope: rangeEnvelope(flatShape(180), 0.2, 0.5),
		Flexible: false, RunsPerDay: 1.2, TimeFlexibility: 0,
		HourWeights: eveningHours(), WeekendFactor: 1.2,
	})
	add(&Appliance{
		Name: "refrigerator", Category: Cold,
		MinRunEnergy: 0.03, MaxRunEnergy: 0.05,
		// One compressor cycle: ~15 min on.
		Envelope: rangeEnvelope(flatShape(15), 0.03, 0.05),
		Flexible: false, RunsPerDay: 30, TimeFlexibility: 0,
		WeekendFactor: 1.0,
	})
	return r
}
