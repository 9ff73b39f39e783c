package traffic

import (
	"bytes"
	"runtime"
	"testing"

	"anysim/internal/geo"
	"anysim/internal/obs"
	"anysim/internal/policy"
)

var scopedPolicy = policy.MustParse("policy scope\nimport -> accept\n")

// TestScopedAnnounceApply: the scoped-announce action stamps the site's
// announcement with its own no-peer-metro community on the trial fork,
// without mutating the announcement slice the fork shares with its parent.
func TestScopedAnnounceApply(t *testing.T) {
	w := smallWorld(t)
	e := w.Engine.Fork()
	e.SetPolicy(scopedPolicy)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	st := NewSteerer(NewEvaluator(e, w.Imperva.IM6, m, CapacityConfig{}), SteeringConfig{})

	p := w.Imperva.IM6.Regions[0].Prefix
	anns := e.Announcements(p)
	if len(anns) == 0 {
		t.Fatalf("no announcements for %s", p)
	}
	ann := anns[0]
	scope, err := policy.NoPeerMetro(ann.City)
	if err != nil {
		t.Skipf("site city %s is not an IATA metro", ann.City)
	}
	f := e.Fork()
	act := &Action{Kind: ActionScopedAnnounce, Prefix: p, Site: ann.Site, Target: ann.Site}
	if err := st.applyOn(f, act); err != nil {
		t.Fatal(err)
	}
	got, ok := annOf(f.Announcements(p), ann.Site)
	if !ok || !hasCommunity(got.Communities, scope) {
		t.Fatalf("scoped announce did not add %s: %+v", scope, got)
	}
	// The parent's announcement set is untouched (fresh slice on the fork).
	if parent, _ := annOf(e.Announcements(p), ann.Site); len(parent.Communities) != 0 || len(anns[0].Communities) != 0 {
		t.Fatalf("parent announcement mutated: %+v", parent)
	}
	// Applying again on the already-scoped set is a no-op add.
	if err := st.applyOn(f, act); err != nil {
		t.Fatal(err)
	}
	got, _ = annOf(f.Announcements(p), ann.Site)
	n := 0
	for _, c := range got.Communities {
		if c == scope {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("scope community duplicated: %+v", got.Communities)
	}
}

// TestScopedSteeringDeterminism mirrors the parallel-walk determinism test
// on a policy-bearing fork, where scoped announcements are offered: the JSONL
// steering trace and the chosen actions must be byte-identical at Workers
// 1, 2, and GOMAXPROCS.
func TestScopedSteeringDeterminism(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	mat := m.FlashCrowd(m.Matrix(0), geo.EMEA, 10.0)

	type outcome struct {
		res   *SteeringResult
		trace string
	}
	runOnce := func(workers int) outcome {
		// Fork per run: smallWorld is shared across tests and the policy
		// must not leak onto its engine.
		e := w.Engine.Fork()
		e.SetPolicy(scopedPolicy)
		ev := NewEvaluator(e, w.Imperva.IM6, m, CapacityConfig{})
		var trace bytes.Buffer
		st := NewSteerer(ev, SteeringConfig{
			AllowSelective:     true,
			AllowCrossAnnounce: true,
			Workers:            workers,
			Tracer:             obs.NewTracer(&trace),
		})
		res, err := st.Resolve(mat)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outcome{res, trace.String()}
	}

	serial := runOnce(1)
	if len(serial.res.Initial.Overloads()) == 0 {
		t.Fatal("EMEA x10 did not overload the small world; the test steers nothing")
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		par := runOnce(workers)
		if par.trace != serial.trace {
			t.Fatalf("workers=%d: trace differs from serial walk:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial.trace, par.trace)
		}
		if len(par.res.Actions) != len(serial.res.Actions) {
			t.Fatalf("workers=%d: %d actions; serial took %d", workers, len(par.res.Actions), len(serial.res.Actions))
		}
		for i := range serial.res.Actions {
			if serial.res.Actions[i].String() != par.res.Actions[i].String() {
				t.Fatalf("workers=%d: action %d = %s; serial = %s",
					workers, i, par.res.Actions[i], serial.res.Actions[i])
			}
		}
	}
}
