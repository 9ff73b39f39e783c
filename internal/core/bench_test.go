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

// BenchmarkAnalyzeCampaign measures a campaign's analysis on the small
// world, the step the paper campaign runs after each measurement: each
// iteration groups a fresh result over one campaign's measurements and
// computes Table 2 for every DNS mode of DefaultCampaignConfig. Its
// allocs/op and B/op are deterministic and gated by scripts/bench_diff.sh.
func BenchmarkAnalyzeCampaign(b *testing.B) {
	w, err := worldgen.Small(worldgen.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	camp := RunCampaign(w.Measurer, w.Auth, w.Imperva.IM6, worldgen.RepIM6, w.Platform.Retained(), DefaultCampaignConfig())
	modes := DefaultCampaignConfig().Modes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := &Result{Deployment: camp.Deployment, Host: camp.Host, Probes: camp.Probes}
		GroupMeasurements(res)
		for _, mode := range modes {
			AnalyzeDNSMapping(res, mode)
		}
	}
	b.ReportMetric(float64(len(camp.Probes)), "probes")
}
