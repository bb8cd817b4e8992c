package config_test

import (
	"context"
	"strings"
	"testing"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/sim"
)

func TestScenarioEndToEnd(t *testing.T) {
	// A loaded scenario must actually run and reproduce the Fig. 2c
	// outcome.
	s, err := config.Load(strings.NewReader(`{
  "name": "fig2",
  "policy": "mltcp",
  "jobs": [
    {"name": "J1", "profile": "gpt3"},
    {"name": "J", "profile": "gpt2", "count": 3}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&backend.Fluid{}).Run(context.Background(), &s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("ran %d jobs, want 4", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		const skip = 30
		if len(j.IterTimes) <= skip {
			t.Fatalf("%s: only %d iterations", j.Name, len(j.IterTimes))
		}
		var sum sim.Time
		for _, d := range j.IterTimes[skip:] {
			sum += d
		}
		avg := sum / sim.Time(len(j.IterTimes)-skip)
		if diff := avg.Seconds()/j.Ideal.Seconds() - 1; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s: %v vs ideal %v", j.Name, avg, j.Ideal)
		}
	}
}
