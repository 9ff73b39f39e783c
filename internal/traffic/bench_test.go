package traffic

import (
	"net/netip"
	"testing"

	"anysim/internal/geo"
	"anysim/internal/worldgen"
)

// x3Crowd builds the X3 flash crowd on the default world (LatAm demand
// x2.8 at its peak bucket, regional deployment) and returns its steerer,
// the base report and matrix, the most-loaded site and the prefix that
// carries most of that site's demand.
func x3Crowd(b *testing.B) (st *Steerer, base *LoadReport, mat Matrix, hot SiteLoad, p netip.Prefix) {
	b.Helper()
	w, err := worldgen.Default()
	if err != nil {
		b.Fatal(err)
	}
	m := NewModel(w.Platform, DemandConfig{Seed: w.Config.Seed})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	mat = m.FlashCrowd(m.Matrix(m.PeakBucket(geo.LatAm)), geo.LatAm, 2.8)
	base = ev.Evaluate(mat)
	hot = base.Sites[0]
	for _, sl := range base.Sites {
		if sl.Demand > hot.Demand {
			hot = sl
		}
	}
	st = NewSteerer(ev, SteeringConfig{})
	p, ok := st.hottestPrefix(base, hot.Site)
	if !ok {
		b.Fatalf("site %s carries no demand", hot.Site)
	}
	return st, base, mat, hot, p
}

// BenchmarkTrialEvaluate times the load evaluation of one steering trial of
// the X3 flash crowd: a fork with one more prepend on the most-loaded site.
// full is EvaluateOn of the fork; delta is the trial path, which
// re-looks-up only the groups whose rib the prepend changed and keeps the
// report as a delta against the parent's.
func BenchmarkTrialEvaluate(b *testing.B) {
	st, base, mat, hot, p := x3Crowd(b)
	ev := st.Eval
	ann, _ := annOf(ev.Engine.Announcements(p), hot.Site)
	fork := ev.Engine.Fork()
	if err := st.applyOn(fork, &Action{Kind: ActionPrepend, Prefix: p, Site: hot.Site, Prepend: ann.Prepend + 1}); err != nil {
		b.Fatal(err)
	}

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.EvaluateOn(fork, mat)
		}
	})
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		var tr *trialReport
		for i := 0; i < b.N; i++ {
			tr = ev.evaluateTrial(fork, ev.Engine, base, mat)
		}
		b.ReportMetric(float64(len(tr.changed)), "changed-groups")
	})
}

// BenchmarkTrialApply times the routing half of one steering trial of the
// X3 flash crowd: a fork of the default world's engine, which carries all
// of the deployment's prefixes, and applyOn of one action on it. prepend
// adds one prepend on the most-loaded site; wave prepends every in-region
// announcer of that site's hottest prefix in one batch.
func BenchmarkTrialApply(b *testing.B) {
	st, _, _, hot, p := x3Crowd(b)
	eng := st.Eval.Engine
	ann, _ := annOf(eng.Announcements(p), hot.Site)
	for _, bc := range []struct {
		name string
		act  *Action
	}{
		{"prepend", &Action{Kind: ActionPrepend, Prefix: p, Site: hot.Site, Prepend: ann.Prepend + 1}},
		{"wave", &Action{Kind: ActionPrependWave, Prefix: p}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			dirty := 0
			for i := 0; i < b.N; i++ {
				f := eng.Fork()
				if err := st.applyOn(f, bc.act); err != nil {
					b.Fatal(err)
				}
				dirty = f.LastReconvergeStats().Dirty
			}
			b.ReportMetric(float64(dirty), "dirty-ases")
		})
	}
}
