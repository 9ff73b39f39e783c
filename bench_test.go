package anysim

// One benchmark per table and figure of the paper (DESIGN.md experiment
// index), plus ablation benchmarks for the design choices the simulator
// makes. Each experiment benchmark performs a warm-up run (building the
// world and the shared measurement campaigns) outside the timed region and
// then times regeneration of the table/figure from the memoized campaigns;
// shape metrics are attached via b.ReportMetric so a bench run doubles as a
// quick reproduction report.
//
// Run with: go test -bench=. -benchmem .

import (
	"sync"
	"testing"

	"anysim/internal/atlas"
	"anysim/internal/core"
	"anysim/internal/experiments"
	"anysim/internal/geo"
	"anysim/internal/geodb"
	"anysim/internal/reopt"
	"anysim/internal/stats"
	"anysim/internal/topo"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

// benchContext builds the canonical full-scale world once per process.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		var w *worldgen.World
		w, benchErr = worldgen.Default()
		if benchErr == nil {
			benchCtx = experiments.NewContext(w)
		}
	})
	if benchErr != nil {
		b.Fatalf("building world: %v", benchErr)
	}
	return benchCtx
}

// benchExperiment warms the experiment once, then times re-running it.
func benchExperiment(b *testing.B, id string) *experiments.Report {
	b.Helper()
	ctx := benchContext(b)
	var run func(*experiments.Context) (*experiments.Report, error)
	for _, ex := range experiments.All() {
		if ex.ID == id {
			run = ex.Run
		}
	}
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	report, err := run(ctx) // warm-up: campaigns, traces, sweeps
	if err != nil {
		b.Fatalf("%s warm-up: %v", id, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(ctx); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	b.StopTimer()
	return report
}

func BenchmarkTable1SiteCounts(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkTable2DNSMapping(b *testing.B) { benchExperiment(b, "T2") }

func BenchmarkTable3TailLatency(b *testing.B) {
	rep := benchExperiment(b, "T3")
	data := rep.Data.(*experiments.Table3Data)
	b.ReportMetric(data.Regional[geo.NA][90], "regional-NA-p90-ms")
	b.ReportMetric(data.Global[geo.NA][90], "global-NA-p90-ms")
}

func BenchmarkTable4SiteDistance(b *testing.B)   { benchExperiment(b, "T4") }
func BenchmarkTable5CDNSurvey(b *testing.B)      { benchExperiment(b, "T5") }
func BenchmarkTable6Generalization(b *testing.B) { benchExperiment(b, "T6") }

func BenchmarkFigure1Scenario(b *testing.B)    { benchExperiment(b, "F1") }
func BenchmarkFigure2Partitions(b *testing.B)  { benchExperiment(b, "F2") }
func BenchmarkFigure3Geolocation(b *testing.B) { benchExperiment(b, "F3") }
func BenchmarkFigure4CDFs(b *testing.B)        { benchExperiment(b, "F4") }
func BenchmarkFigure5Differences(b *testing.B) { benchExperiment(b, "F5") }

func BenchmarkFigure6Tangled(b *testing.B) {
	rep := benchExperiment(b, "F6")
	data := rep.Data.(*experiments.Figure6Data)
	for _, area := range geo.Areas {
		b.ReportMetric(data.P90ReductionPct[area], "p90-cut-"+area.String()+"-%")
	}
}

func BenchmarkFigure7Scenario(b *testing.B) { benchExperiment(b, "F7") }
func BenchmarkFigure8SameSite(b *testing.B) { benchExperiment(b, "F8") }

func BenchmarkExtensionBaselines(b *testing.B) {
	rep := benchExperiment(b, "X1")
	data := rep.Data.(*experiments.ExtensionsData)
	b.ReportMetric(data.GlobalP90, "global-p90-ms")
	b.ReportMetric(data.DailyCatch.Chosen().P90Ms, "dailycatch-p90-ms")
	b.ReportMetric(data.SiteOptP90, "siteopt-p90-ms")
	b.ReportMetric(data.RegionalP90, "regional-p90-ms")
}

func BenchmarkExtensionTraffic(b *testing.B) {
	rep := benchExperiment(b, "X3")
	data := rep.Data.(*experiments.TrafficData)
	b.ReportMetric(stats.Percentile(data.Regional.Inflations, 90), "regional-p90-inflation-ms")
	b.ReportMetric(stats.Percentile(data.Global.Inflations, 90), "global-p90-inflation-ms")
	b.ReportMetric(float64(data.Regional.OverloadsAfter), "regional-residual-overloads")
	b.ReportMetric(float64(data.Global.OverloadsAfter), "global-residual-overloads")
}

func BenchmarkSection54Causes(b *testing.B) {
	rep := benchExperiment(b, "S54")
	data := rep.Data.(*experiments.Section54Data)
	b.ReportMetric(data.Limited.Fraction(core.CauseASRelationship)*100, "AS-rel-%")
	b.ReportMetric(data.Limited.Fraction(core.CausePeeringType)*100, "peering-type-%")
}

// --- Ablation benchmarks (DESIGN.md §4) ---

// BenchmarkAblationECS varies the share of probes behind ECS-speaking
// public resolvers and reports the wrong-region mapping rate: ECS adoption
// is what keeps Local-DNS mapping close to Authoritative-DNS mapping.
func BenchmarkAblationECS(b *testing.B) {
	for _, tc := range []struct {
		name        string
		isp, ecsPub float64
	}{
		{"NoECS", 0.80, 0.0001},
		{"Default", 0.80, 0.16},
		{"AllPublicECS", 0.0001, 0.9999},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var wrong float64
			for i := 0; i < b.N; i++ {
				w, err := worldgen.New(worldgen.Config{
					Seed:  51,
					Scale: 0.05,
					Topo:  smallTopo(),
					Population: atlas.PopulationConfig{
						PISPResolver: tc.isp,
						PPublicECS:   tc.ecsPub,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				res := core.RunCampaign(w.Measurer, w.Auth, w.Imperva.IM6, worldgen.RepIM6,
					w.Platform.Retained(), core.CampaignConfig{Modes: []atlas.DNSMode{atlas.LDNS}})
				eff := core.AnalyzeDNSMapping(res, atlas.LDNS)
				wrong = 0
				var groups float64
				for _, area := range geo.Areas {
					wrong += eff.Fraction(area, core.MappingWrongRegion) * float64(eff.Groups[area])
					groups += float64(eff.Groups[area])
				}
				wrong /= groups
			}
			b.ReportMetric(wrong*100, "xRegion-%")
		})
	}
}

// BenchmarkAblationGeoDBError varies the operator database's error level
// and reports the wrong-region rate under Authoritative DNS, isolating
// IP-geolocation error as a cause of mapping inefficiency.
func BenchmarkAblationGeoDBError(b *testing.B) {
	// The operator database is built inside worldgen; the ablation
	// emulates better/worse databases by re-registering the hostname with
	// a mapper over a database built at the requested error level.
	for _, tc := range []struct {
		name             string
		country, transit float64
	}{
		{"Perfect", 0, 0},
		{"Default", 0.010, 0.15},
		{"Sloppy", 0.05, 0.50},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var wrong float64
			for i := 0; i < b.N; i++ {
				w, err := worldgen.New(worldgen.Config{Seed: 51, Scale: 0.05, Topo: smallTopo()})
				if err != nil {
					b.Fatal(err)
				}
				db := buildOperatorDB(w, tc.country, tc.transit)
				host := "ablation.example"
				if err := w.Auth.Register(host, w.Imperva.IM6.Mapper(db)); err != nil {
					b.Fatal(err)
				}
				res := core.RunCampaign(w.Measurer, w.Auth, w.Imperva.IM6, host,
					w.Platform.Retained(), core.CampaignConfig{Modes: []atlas.DNSMode{atlas.ADNS}})
				eff := core.AnalyzeDNSMapping(res, atlas.ADNS)
				wrong = 0
				var groups float64
				for _, area := range geo.Areas {
					wrong += eff.Fraction(area, core.MappingWrongRegion) * float64(eff.Groups[area])
					groups += float64(eff.Groups[area])
				}
				wrong /= groups
			}
			b.ReportMetric(wrong*100, "xRegion-%")
		})
	}
}

// BenchmarkAblationReOptK evaluates each region count of the ReOpt sweep,
// reporting mean client latency: the paper finds k=5 optimal on Tangled.
func BenchmarkAblationReOptK(b *testing.B) {
	ctx := benchContext(b)
	sweep := ctx.Sweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := reopt.Run(ctx.World.Engine, ctx.World.Measurer, ctx.World.Tangled,
			ctx.World.Platform.Retained(), reopt.Config{Seed: ctx.World.Config.Seed})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, cand := range sweep.Candidates {
		b.ReportMetric(cand.MeanLatencyMs, "mean-ms-k"+string(rune('0'+cand.K)))
	}
}

// BenchmarkDemandMatrix times materializing a full day of demand matrices
// from the seeded model — the inner product every load evaluation starts
// from.
func BenchmarkDemandMatrix(b *testing.B) {
	ctx := benchContext(b)
	model := traffic.NewModel(ctx.World.Platform, traffic.DemandConfig{Seed: ctx.World.Config.Seed})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mats := model.Matrices()
		if len(mats) != model.Buckets() {
			b.Fatalf("got %d matrices", len(mats))
		}
	}
}

// BenchmarkTrafficSteering times one full steering resolution of the X3
// flash crowd (LatAm demand scaled up at its peak bucket) on the regional
// deployment, including the restore. Reset returns the engine to the
// snapshot NewSteerer took, hints included, so every iteration repeats the
// same deterministic search and the same work: this tracks the cost of the
// fork-trial loop over the incremental routing solver.
func BenchmarkTrafficSteering(b *testing.B) {
	ev, flash := benchFlashSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var resolved bool
	for i := 0; i < b.N; i++ {
		st := traffic.NewSteerer(ev, traffic.SteeringConfig{
			MaxActions: 64, AllowSelective: true, AllowCrossAnnounce: true,
		})
		res, err := st.Resolve(flash)
		if err != nil {
			b.Fatal(err)
		}
		resolved = len(res.Final.Overloads()) == 0
		if err := st.Reset(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !resolved {
		b.Fatal("steering left overloads unresolved")
	}
}

// benchFlashSetup builds the X3 flash-crowd workload: evaluator over the
// default world's regional deployment plus the LatAm peak-bucket matrix
// scaled x2.8.
func benchFlashSetup(b *testing.B) (*traffic.Evaluator, traffic.Matrix) {
	b.Helper()
	ctx := benchContext(b)
	w := ctx.World
	model := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
	ev := traffic.NewEvaluator(w.Engine, w.Imperva.IM6, model, traffic.CapacityConfig{})
	return ev, model.FlashCrowd(model.Matrix(model.PeakBucket(geo.LatAm)), geo.LatAm, 2.8)
}

// BenchmarkSteeringRound isolates one round of the steering loop — generate
// candidates, trial them concurrently on engine forks, commit the winner —
// by resolving with a single-action budget and restoring. This is the unit
// the Workers pool parallelizes.
func BenchmarkSteeringRound(b *testing.B) {
	ev, flash := benchFlashSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := traffic.NewSteerer(ev, traffic.SteeringConfig{
			MaxActions: 1, AllowSelective: true, AllowCrossAnnounce: true,
		})
		res, err := st.Resolve(flash)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Actions) == 0 {
			b.Fatal("round committed no action")
		}
		if err := st.Reset(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorldBuild times constructing the full-scale paper world from
// scratch: topology, CDNs, routing convergence for 15 prefixes, address
// plan, probes, and DNS.
func BenchmarkWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := worldgen.Default(); err != nil {
			b.Fatal(err)
		}
	}
}

func smallTopo() topo.GenConfig {
	return topo.GenConfig{NumTier1: 5, NumTier2: 45, NumStub: 420, NumIXP: 14}
}

// buildOperatorDB builds an operator geolocation database over the world's
// ground truth at the requested error level.
func buildOperatorDB(w *worldgen.World, countryWrong, transitHome float64) *geodb.DB {
	return geodb.Build("ablation-db", w.Truth, geodb.ErrorModel{
		PCityWrong:    0.06,
		PCountryWrong: countryWrong,
		PTransitHome:  transitHome,
		PMiss:         0.01,
	}, 4242)
}
