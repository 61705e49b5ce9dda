package appliance

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func testAppliance() *Appliance {
	return &Appliance{
		Name:         "test washer",
		Category:     Wet,
		MinRunEnergy: 1.2,
		MaxRunEnergy: 3.0,
		Envelope:     rangeEnvelope(washShape(110), 1.2, 3.0),
		Flexible:     true,
		RunsPerDay:   0.6,
	}
}

func TestValidateOK(t *testing.T) {
	if err := testAppliance().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Appliance)
	}{
		{"empty name", func(a *Appliance) { a.Name = "" }},
		{"empty envelope", func(a *Appliance) { a.Envelope = nil }},
		{"negative min energy", func(a *Appliance) { a.MinRunEnergy = -1 }},
		{"max below min", func(a *Appliance) { a.MaxRunEnergy = a.MinRunEnergy - 1 }},
		{"band inverted", func(a *Appliance) { a.Envelope[0] = Band{Min: 2, Max: 1} }},
		{"band negative", func(a *Appliance) { a.Envelope[0] = Band{Min: -1, Max: 1} }},
		{"range outside envelope", func(a *Appliance) { a.MaxRunEnergy = 100 }},
		{"negative frequency", func(a *Appliance) { a.RunsPerDay = -1 }},
		{"negative time flexibility", func(a *Appliance) { a.TimeFlexibility = -time.Hour }},
	}
	for _, tc := range tests {
		a := testAppliance()
		tc.mutate(a)
		if err := a.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: Validate = %v, want ErrInvalid", tc.name, err)
		}
	}
}

func TestRangeEnvelopeCoversExactRange(t *testing.T) {
	env := rangeEnvelope(flatShape(60), 1.5, 2.5)
	var lo, hi float64
	for _, b := range env {
		lo += b.Min
		hi += b.Max
	}
	if !almostEqual(lo, 1.5, 1e-9) || !almostEqual(hi, 2.5, 1e-9) {
		t.Errorf("envelope range = [%v, %v], want [1.5, 2.5]", lo, hi)
	}
}

func TestNominalProfileAndEnergy(t *testing.T) {
	a := testAppliance()
	nom := a.NominalProfile()
	if len(nom) != len(a.Envelope) {
		t.Fatalf("profile len = %d", len(nom))
	}
	var sum float64
	for _, v := range nom {
		sum += v
	}
	if !almostEqual(sum, a.NominalEnergy(), 1e-9) {
		t.Errorf("NominalEnergy = %v, profile sum = %v", a.NominalEnergy(), sum)
	}
	if !almostEqual(a.NominalEnergy(), 2.1, 1e-9) {
		t.Errorf("NominalEnergy = %v, want 2.1 (midpoint of 1.2..3)", a.NominalEnergy())
	}
}

func TestRunDuration(t *testing.T) {
	a := testAppliance()
	if got := a.RunDuration(); got != 110*time.Minute {
		t.Errorf("RunDuration = %v, want 110m", got)
	}
}

func TestSignatureAt(t *testing.T) {
	a := testAppliance()
	sig, err := a.SignatureAt(15 * time.Minute)
	if err != nil {
		t.Fatalf("SignatureAt: %v", err)
	}
	// 110 minutes → 8 buckets of 15 min (last partial).
	if len(sig) != 8 {
		t.Errorf("signature buckets = %d, want 8", len(sig))
	}
	var sum float64
	for _, v := range sig {
		sum += v
	}
	if !almostEqual(sum, a.NominalEnergy(), 1e-9) {
		t.Errorf("signature total = %v, want %v", sum, a.NominalEnergy())
	}
	if _, err := a.SignatureAt(90 * time.Second); err == nil {
		t.Error("fractional-minute resolution accepted")
	}
	if _, err := a.SignatureAt(0); err == nil {
		t.Error("zero resolution accepted")
	}
}

func TestSampleRunWithinEnvelope(t *testing.T) {
	a := testAppliance()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		run := a.SampleRun(rng)
		if len(run) != len(a.Envelope) {
			t.Fatalf("run len = %d", len(run))
		}
		var total float64
		for i, v := range run {
			b := a.Envelope[i]
			if v < b.Min-1e-9 || v > b.Max+1e-9 {
				t.Fatalf("minute %d energy %v outside band [%v, %v]", i, v, b.Min, b.Max)
			}
			total += v
		}
		if total < a.MinRunEnergy-1e-9 || total > a.MaxRunEnergy+1e-9 {
			t.Fatalf("run total %v outside [%v, %v]", total, a.MinRunEnergy, a.MaxRunEnergy)
		}
	}
}

func TestRunWithEnergyClamps(t *testing.T) {
	a := testAppliance()
	low := a.runWithEnergy(0)
	var sum float64
	for _, v := range low {
		sum += v
	}
	if !almostEqual(sum, a.MinRunEnergy, 1e-9) {
		t.Errorf("clamped low run total = %v, want %v", sum, a.MinRunEnergy)
	}
	high := a.runWithEnergy(1000)
	sum = 0
	for _, v := range high {
		sum += v
	}
	if !almostEqual(sum, a.MaxRunEnergy, 1e-9) {
		t.Errorf("clamped high run total = %v, want %v", sum, a.MaxRunEnergy)
	}
}

func TestSampleStartHour(t *testing.T) {
	a := testAppliance()
	a.HourWeights = eveningHours()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		h := a.SampleStartHour(rng)
		if h < 17 || h > 22 {
			t.Fatalf("start hour %d outside weighted block", h)
		}
	}
	// Uniform fallback covers all hours eventually.
	var zero [24]float64
	a.HourWeights = zero
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		seen[a.SampleStartHour(rng)] = true
	}
	if len(seen) != 24 {
		t.Errorf("uniform fallback hit %d distinct hours, want 24", len(seen))
	}
}

func TestShapedEnvelopeNegativeEntries(t *testing.T) {
	env := ShapedEnvelope([]float64{1, -5, 1}, 2, 0)
	if env[1].Min != 0 || env[1].Max != 0 {
		t.Errorf("negative shape entry band = %+v, want zero", env[1])
	}
	if !almostEqual(env[0].Min+env[2].Min, 2, 1e-9) {
		t.Errorf("shape normalisation wrong: %+v", env)
	}
}

func TestCategoryString(t *testing.T) {
	cats := []Category{Wet, Cleaning, Vehicle, Kitchen, Cold, Entertainment, Heating, Category(99)}
	want := []string{"wet", "cleaning", "vehicle", "kitchen", "cold", "entertainment", "heating", "unknown"}
	for i, c := range cats {
		if c.String() != want[i] {
			t.Errorf("Category(%d).String() = %q, want %q", int(c), c.String(), want[i])
		}
	}
}

// Property: every sampled run stays within the envelope and the run-energy
// range, for arbitrary seeds.
func TestSampleRunProperty(t *testing.T) {
	a := testAppliance()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		run := a.SampleRun(rng)
		var total float64
		for i, v := range run {
			b := a.Envelope[i]
			if v < b.Min-1e-9 || v > b.Max+1e-9 {
				return false
			}
			total += v
		}
		return total >= a.MinRunEnergy-1e-9 && total <= a.MaxRunEnergy+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
