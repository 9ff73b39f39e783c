// Flashcrowd: overload an anycast deployment with a regional demand spike
// and steer the load back under capacity with BGP-level knobs. The paper
// argues (§6) that regional anycast gives operators surgical control —
// prepending inside one region, announcing a regional prefix from spare
// sites elsewhere — where a global deployment can only prepend its single
// shared prefix and hope the catchments land well. This walkthrough builds
// the seeded demand model, applies the same flash crowd to Imperva-6
// (regional) and Imperva-NS (global), and compares what steering costs the
// clients in each case. Everything is restored afterwards: steering is as
// reversible as any fault.
//
// Run with: go run ./examples/flashcrowd
package main

import (
	"fmt"
	"log"
	"sort"

	"anysim"
)

func main() {
	world, err := anysim.SmallWorld(42)
	if err != nil {
		log.Fatal(err)
	}

	// The demand model is seeded from the world: Zipf-skewed group
	// popularity, area shares following Internet users rather than probe
	// density, and a diurnal cycle keyed to each group's longitude.
	model := anysim.NewDemandModel(world, anysim.DemandConfig{})
	fmt.Printf("demand model: %d probe groups, %.0f req/s day-mean, %d buckets\n",
		len(model.Groups), model.TotalBase(), model.Buckets())

	// Capacities are derived from the baseline routing state, so build
	// both evaluators before touching any announcements.
	evRegional := anysim.NewLoadEvaluator(world, world.Imperva.IM6, model, anysim.CapacityConfig{})
	evGlobal := anysim.NewLoadEvaluator(world, world.Imperva.NS, model, anysim.CapacityConfig{})

	// The crowd hits Latin America at its local evening peak: big enough
	// to overload the area's sites, regional enough that spare capacity
	// exists elsewhere — the situation steering is for.
	bucket := model.PeakBucket(anysim.LatAm)
	flash := model.FlashCrowd(model.Matrix(bucket), anysim.LatAm, 2.5)
	fmt.Printf("flash crowd: LatAm demand x2.5 at bucket %d\n\n", bucket)

	for _, tc := range []struct {
		name string
		ev   *anysim.LoadEvaluator
		cfg  anysim.SteeringConfig
	}{
		// The regional deployment gets the full knob set; the global one
		// shares a single prefix, so prepending is its only lever. Both
		// get the same action budget.
		{"regional (Imperva-6)", evRegional,
			anysim.SteeringConfig{MaxActions: 64, AllowSelective: true, AllowCrossAnnounce: true}},
		{"global (Imperva-NS)", evGlobal,
			anysim.SteeringConfig{MaxActions: 64}},
	} {
		baseline := tc.ev.Evaluate(model.Matrix(bucket))
		steerer := anysim.NewSteerer(tc.ev, tc.cfg)
		res, err := steerer.Resolve(flash)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%s:\n", tc.name)
		fmt.Printf("  overloaded sites %d -> %d, max utilization %.2f -> %.2f\n",
			len(res.Initial.Overloads()), len(res.Final.Overloads()),
			res.Initial.MaxUtilization(), res.Final.MaxUtilization())
		fmt.Printf("  %d steering actions:\n", len(res.Actions))
		for i, a := range res.Actions {
			if i == 6 {
				fmt.Printf("    … and %d more\n", len(res.Actions)-i)
				break
			}
			fmt.Printf("    %s (util %.2f -> %.2f, shed %.0f req/s at +%.1f ms)\n",
				a, a.UtilBefore, a.UtilAfter, a.ShedRate, a.RTTCostMs)
		}

		// What did steering cost the clients? Compare each group's
		// effective RTT (propagation + load penalty) against the
		// pre-crowd baseline.
		soft := tc.ev.Config().SoftUtil
		var p50, p90 float64
		var inflations []float64
		for i, a := range baseline.Assignments {
			if a.Site < 0 {
				continue
			}
			d := res.Final.EffectiveRTTMs(i, soft) - baseline.EffectiveRTTMs(i, soft)
			inflations = append(inflations, d)
		}
		p50, p90 = percentiles(inflations)
		fmt.Printf("  client RTT inflation vs no-crowd baseline: p50 %+.1f ms, p90 %+.1f ms, worst %+.1f ms\n",
			p50, p90, inflations[len(inflations)-1])

		// Steering is fully reversible: Reset reinstates the engine
		// snapshot NewSteerer took, so the catchments are back
		// bit-identically.
		if err := steerer.Reset(); err != nil {
			log.Fatal(err)
		}
		restored := tc.ev.Evaluate(model.Matrix(bucket))
		fmt.Printf("  after reset: max utilization back to %.2f\n\n", restored.MaxUtilization())
	}
}

// percentiles returns the p50 and p90 of a sample (sorted in place).
func percentiles(xs []float64) (p50, p90 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	return xs[len(xs)*50/100], xs[len(xs)*90/100]
}
