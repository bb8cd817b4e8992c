package backend

import (
	"context"
	"testing"

	"mltcp/internal/config"
)

func learnedBenchScenario() *config.Scenario {
	return &config.Scenario{Name: "bench-learned-two-gpt2", Policy: "mltcp", DurationSec: 120,
		Jobs: []config.Job{{Name: "A", Profile: "gpt2"}, {Name: "B", Profile: "gpt2"}}}
}

// BenchmarkLearnedCanonical is the learned serving hot path on the
// canonical scenario — the whole point of the tier is that this stays in
// single-digit microseconds, ≥100× under the fluid backend's wall time.
func BenchmarkLearnedCanonical(b *testing.B) {
	scn := learnedBenchScenario()
	lb := &Learned{}
	if _, err := lb.Run(context.Background(), scn, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.Run(context.Background(), scn, 1); err != nil {
			b.Fatal(err)
		}
	}
}
