package traffic

import (
	"math"
	"testing"

	"anysim/internal/bgp"
	"anysim/internal/geo"
	"anysim/internal/worldgen"
)

// requireDeltaMatchesFull asserts that a trial's delta report equals a full
// evaluation of the same fork bit for bit: site sums, Unserved, the
// materialised assignments with their site ranks, and the shed cost
// against the base report.
func requireDeltaMatchesFull(t *testing.T, label string, base *LoadReport, tr *trialReport, full *LoadReport) {
	t.Helper()
	requireReportsEqual(t, label, base, tr.materialise(), full)
}

// requireReportsEqual asserts two load reports are equal bit for bit, the
// shed cost against base included.
func requireReportsEqual(t *testing.T, label string, base, got, full *LoadReport) {
	t.Helper()
	if len(got.Sites) != len(full.Sites) {
		t.Fatalf("%s: %d sites, full evaluation has %d", label, len(got.Sites), len(full.Sites))
	}
	for i, g := range got.Sites {
		w := full.Sites[i]
		if g.Site != w.Site || g.Groups != w.Groups || math.Float64bits(g.Demand) != math.Float64bits(w.Demand) ||
			math.Float64bits(g.Capacity) != math.Float64bits(w.Capacity) {
			t.Fatalf("%s: site %s is %+v, full evaluation %+v", label, w.Site, g, w)
		}
	}
	if math.Float64bits(got.Unserved) != math.Float64bits(full.Unserved) {
		t.Fatalf("%s: unserved %v, full evaluation %v", label, got.Unserved, full.Unserved)
	}
	for i, g := range got.Assignments {
		w := full.Assignments[i]
		if g.Site != w.Site || math.Float64bits(g.Rate) != math.Float64bits(w.Rate) ||
			math.Float64bits(g.RTTMs) != math.Float64bits(w.RTTMs) {
			t.Fatalf("%s: group %d is %+v, full evaluation %+v", label, i, g, w)
		}
	}
	gm, gc := shedCost(base, got)
	wm, wc := shedCost(base, full)
	if math.Float64bits(gm) != math.Float64bits(wm) || math.Float64bits(gc) != math.Float64bits(wc) {
		t.Fatalf("%s: shed cost %v/%v, full evaluation %v/%v", label, gm, gc, wm, wc)
	}
}

// resolveCheckingTrials resolves mat and holds every trial's delta report
// to a full EvaluateOn of its fork. It returns the trial count and how many
// of them re-looked-up fewer than all groups, then resets the steerer.
func resolveCheckingTrials(t *testing.T, ev *Evaluator, cfg SteeringConfig, mat Matrix) (trials, partial int) {
	t.Helper()
	testHookTrials = func(base *LoadReport, mat Matrix, outs []trialOutcome) {
		for _, o := range outs {
			requireDeltaMatchesFull(t, "trial", base, o.after, ev.EvaluateOn(o.fork, mat))
			trials++
			if len(o.after.changed) < len(ev.Model.Groups) {
				partial++
			}
		}
	}
	defer func() { testHookTrials = nil }()
	st := NewSteerer(ev, cfg)
	if _, err := st.Resolve(mat); err != nil {
		t.Fatal(err)
	}
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	return trials, partial
}

// checkForcedTrials evaluates two trials the steering walk may not reach as
// deltas against the engine's current report: a prepend wave on every
// region prefix (several sites' announcements changed in one batch) and a
// full recompute of each prefix, where every rib is fresh. It also holds
// each wave's load to that of a fork given the same announcements one
// AnnounceSite at a time.
func checkForcedTrials(t *testing.T, ev *Evaluator, mat Matrix) {
	t.Helper()
	st := NewSteerer(ev, SteeringConfig{})
	base := ev.Evaluate(mat)
	waves := 0
	for _, p := range ev.idx.prefixes {
		f := ev.Engine.Fork()
		if err := st.applyOn(f, &Action{Kind: ActionPrependWave, Prefix: p}); err == nil {
			label := "wave on " + p.String()
			full := ev.EvaluateOn(f, mat)
			requireDeltaMatchesFull(t, label, base, ev.evaluateTrial(f, ev.Engine, base, mat), full)
			seq := ev.Engine.Fork()
			_, inRegion := st.regionSites(p)
			for _, a := range seq.Announcements(p) {
				if !inRegion[a.Site] || a.Prepend >= bgp.MaxPrepend {
					continue
				}
				a.Prepend++
				if err := seq.AnnounceSite(p, a); err != nil {
					t.Fatal(err)
				}
			}
			requireReportsEqual(t, label+" one site at a time", base, ev.EvaluateOn(seq, mat), full)
			waves++
		}

		f = ev.Engine.Fork()
		if err := f.Announce(p, f.Announcements(p)); err != nil {
			t.Fatal(err)
		}
		if !f.LastReconvergeStats().Full {
			t.Fatalf("re-announcing %s was not a full recompute", p)
		}
		tr := ev.evaluateTrial(f, ev.Engine, base, mat)
		served := 0
		for gi, a := range base.Assignments {
			if a.Site >= 0 && ev.groupPrefix(gi) == p {
				served++
			}
		}
		if len(tr.changed) < served {
			t.Fatalf("full recompute of %s re-looked-up %d groups; %d are served over it", p, len(tr.changed), served)
		}
		requireDeltaMatchesFull(t, "full recompute of "+p.String(), base, tr, ev.EvaluateOn(f, mat))
	}
	if waves == 0 {
		t.Fatal("no region prefix took a prepend wave")
	}

	// A parent with one prefix dark leaves its groups unserved, and a trial
	// on another prefix must carry their demand over untouched.
	if len(ev.idx.prefixes) < 2 {
		t.Fatal("the deployment has one prefix; the unserved case needs two")
	}
	dark, lit := ev.idx.prefixes[0], ev.idx.prefixes[1]
	parent := ev.Engine.Fork()
	for _, a := range parent.Announcements(dark) {
		if err := parent.WithdrawSite(dark, a.Site); err != nil {
			t.Fatal(err)
		}
	}
	base = ev.EvaluateOn(parent, mat)
	if base.Unserved == 0 {
		t.Fatalf("withdrawing %s left no demand unserved", dark)
	}
	f := parent.Fork()
	ann := f.Announcements(lit)[0]
	ann.Prepend++
	if err := f.AnnounceSite(lit, ann); err != nil {
		t.Fatal(err)
	}
	requireDeltaMatchesFull(t, "trial beside dark "+dark.String(), base, ev.evaluateTrial(f, parent, base, mat), ev.EvaluateOn(f, mat))
}

// TestTrialDeltaMatchesFull is the oracle of delta load evaluation: every
// steering trial's report, computed from the groups its fork re-routed,
// equals a full EvaluateOn of the fork. It covers the shared EMEA x4
// pipeline on the small world at one and four workers, and the X3 LatAm
// resolve on the default world.
func TestTrialDeltaMatchesFull(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	mat := m.FlashCrowd(m.Matrix(0), geo.EMEA, 4)
	for _, workers := range []int{1, 4} {
		trials, partial := resolveCheckingTrials(t, ev, SteeringConfig{
			MaxActions: 8, AllowSelective: true, AllowCrossAnnounce: true, Workers: workers,
		}, mat)
		if trials == 0 || partial == 0 {
			t.Fatalf("workers=%d: %d trials, %d of them deltas; the test checks nothing", workers, trials, partial)
		}
	}
	checkForcedTrials(t, ev, mat)

	if testing.Short() {
		t.Skip("default world is expensive; skipped in -short mode")
	}
	dw, err := worldgen.Default()
	if err != nil {
		t.Fatal(err)
	}
	dm := NewModel(dw.Platform, DemandConfig{Seed: dw.Config.Seed})
	dev := NewEvaluator(dw.Engine, dw.Imperva.IM6, dm, CapacityConfig{})
	crowd := dm.FlashCrowd(dm.Matrix(dm.PeakBucket(geo.LatAm)), geo.LatAm, 2.8)
	trials, partial := resolveCheckingTrials(t, dev, SteeringConfig{
		MaxActions: 64, AllowSelective: true, AllowCrossAnnounce: true,
	}, crowd)
	if trials == 0 || partial == 0 {
		t.Fatalf("X3: %d trials, %d of them deltas; the test checks nothing", trials, partial)
	}
	t.Logf("X3 LatAm: %d trials checked, %d of them deltas", trials, partial)
	checkForcedTrials(t, dev, crowd)
}
