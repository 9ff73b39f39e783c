package dynamics

import (
	"bytes"
	"testing"

	"anysim/internal/geo"
	"anysim/internal/obs/ts"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// runRecordedScenario drives a flash-crowd scenario with the flight
// recorder attached: an EMEA flash crowd overloads sites for two ticks
// (pending, then firing under the For=2 rule), then ends (resolved).
func runRecordedScenario(t *testing.T) *ts.DB {
	t.Helper()
	w, err := worldgen.New(worldgen.SmallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	dep := w.Imperva.IM6
	m := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: 1})
	ev := traffic.NewEvaluator(w.Engine, dep, m, traffic.CapacityConfig{})

	rule, err := ts.ParseRule("slo overload: load.max_util > 1 for 2 ticks")
	if err != nil {
		t.Fatal(err)
	}
	db := ts.New(ts.Config{Rules: []ts.Rule{rule}})
	r := NewRunner(w.Engine, dep)
	r.Series = db
	r.Eval = ev

	site := dep.Sites[0].ID
	sc := &Scenario{Name: "flash", Events: []Event{
		{At: 1, Kind: FlashBegin, Area: geo.EMEA, Factor: 8},
		{At: 2, Kind: Reannounce, Site: site},
		{At: 3, Kind: FlashEnd, Area: geo.EMEA},
	}}
	if _, err := r.Run(sc); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestScenarioRunAlertLifecycle is the acceptance check for trajectory
// verdicts: a `for 2 ticks` SLO rule demonstrably transitions
// pending -> firing -> resolved over a scenario run.
func TestScenarioRunAlertLifecycle(t *testing.T) {
	db := runRecordedScenario(t)

	hist := db.History()
	if len(hist) != 3 {
		t.Fatalf("alert history = %+v, want pending/firing/resolved", hist)
	}
	wantStates := []ts.State{ts.StatePending, ts.StateFiring, ts.StateResolved}
	wantTicks := []int64{1, 2, 3}
	for i, tr := range hist {
		if tr.State != wantStates[i] || tr.Tick != wantTicks[i] || tr.Rule != "overload" {
			t.Fatalf("transition %d = %+v, want %s at tick %d", i, tr, wantStates[i], wantTicks[i])
		}
	}
	if db.FiringCount() != 0 || len(db.ActiveAlerts()) != 0 {
		t.Fatal("alert still active after the flash crowd ended")
	}

	// The recorder holds the full load trajectory, not just alerts.
	for _, name := range []string{"load.max_util", "reconverge.dirty", "churn.moved", "region.latency.p90{region=EMEA}"} {
		if _, ok := db.Query(name, 0, 1<<62, 0); !ok {
			t.Errorf("scenario run did not record %q (have %v)", name, db.Names())
		}
	}
	pts, _ := db.Query("load.max_util", 0, 1<<62, 0)
	if len(pts) != 3 {
		t.Fatalf("load.max_util points = %+v, want one per tick", pts)
	}
	if pts[0].V <= 1 || pts[1].V <= 1 {
		t.Fatalf("flash ticks not overloaded: %+v", pts)
	}
	if pts[2].V > pts[0].V {
		t.Fatalf("flash-end did not reduce max utilization: %+v", pts)
	}
}

// TestScenarioRecordingDeterministic: two identical recorded runs dump
// byte-identical flight recordings.
func TestScenarioRecordingDeterministic(t *testing.T) {
	a := runRecordedScenario(t).AppendJSON(nil)
	b := runRecordedScenario(t).AppendJSON(nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("recordings differ across identical runs:\n%s\n%s", a, b)
	}
}
