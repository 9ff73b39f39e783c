package traffic

import (
	"testing"

	"anysim/internal/geo"
	"anysim/internal/worldgen"
)

// BenchmarkTrialEvaluate times the load evaluation of one steering trial of
// the X3 flash crowd (LatAm demand x2.8 at its peak bucket, regional
// deployment, default world): a fork with one more prepend on the
// most-loaded site. full is EvaluateOn of the fork; delta is the trial
// path, which re-looks-up only the groups whose rib the prepend changed
// and keeps the report as a delta against the parent's.
func BenchmarkTrialEvaluate(b *testing.B) {
	w, err := worldgen.Default()
	if err != nil {
		b.Fatal(err)
	}
	m := NewModel(w.Platform, DemandConfig{Seed: w.Config.Seed})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	mat := m.FlashCrowd(m.Matrix(m.PeakBucket(geo.LatAm)), geo.LatAm, 2.8)
	base := ev.Evaluate(mat)
	hot := base.Sites[0]
	for _, sl := range base.Sites {
		if sl.Demand > hot.Demand {
			hot = sl
		}
	}
	st := NewSteerer(ev, SteeringConfig{})
	p, ok := st.hottestPrefix(base, hot.Site)
	if !ok {
		b.Fatalf("site %s carries no demand", hot.Site)
	}
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
