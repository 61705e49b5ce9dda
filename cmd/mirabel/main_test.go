package main

import (
	"bytes"
	"io"
	"testing"
)

// smallPipeline is the report of an 8-household, 2-day peak-based run.
// The simulation is seeded, so any change to it is a change in the
// pipeline's numbers.
const smallPipeline = `simulating 8 households x 2 days ...
population consumption: 321 kWh total, 1.7 kWh avg/interval peak-to-average 2.34
extracting flex-offers (peak, 5.0%) ...
extracted 16 offers carrying 16 kWh (5.00% of consumption)
aggregated into 8 offers (2.0 members each on average)
wind farm rated 10 kW produced 102 kWh

scenario                      unmatched kWh    spilled kWh       RMSE
no flexibility                          225              6       1.50
offers at earliest start                225              6       1.49
scheduled offers                        221              5       1.46

imbalance reduction vs no-flexibility: 1.7% (skipped offers: 0)
`

func TestRunSmallPipeline(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 8, 2, "peak", 0.05, 3, 1.5); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if out.String() != smallPipeline {
		t.Errorf("report changed:\n got:\n%s\nwant:\n%s", out.String(), smallPipeline)
	}
}

func TestRunUnknownApproach(t *testing.T) {
	if err := run(io.Discard, 4, 2, "nope", 0.05, 3, 1.5); err == nil {
		t.Error("unknown approach accepted")
	}
}
