package core

import (
	"testing"

	"anysim/internal/worldgen"
)

// BenchmarkRunCampaign measures one campaign — both DNS modes, a ping to
// every regional VIP and traceroutes to the returned VIPs — over every
// retained probe of the small world, for the Imperva-6 representative
// hostname. Its allocs/op and B/op are deterministic and gated by
// scripts/bench_diff.sh.
func BenchmarkRunCampaign(b *testing.B) {
	w, err := worldgen.Small(worldgen.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	probes := w.Platform.Retained()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunCampaign(w.Measurer, w.Auth, w.Imperva.IM6, worldgen.RepIM6, probes, DefaultCampaignConfig())
	}
	b.ReportMetric(float64(len(probes)), "probes")
}
