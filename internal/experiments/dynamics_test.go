package experiments

import (
	"strings"
	"testing"
)

// TestDynamicsBlastRadius reads X2 from the shared run and checks the
// comparison is non-degenerate: every fault is measured against both
// deployments, at least one fault moves catchments in each, and the
// regional deployment's mean blast radius is reported alongside the
// global one.
func TestDynamicsBlastRadius(t *testing.T) {
	r := report(t, "X2")
	data, ok := r.Data.(*DynamicsData)
	if !ok {
		t.Fatalf("Data is %T", r.Data)
	}
	if len(data.Regional) == 0 || len(data.Regional) != len(data.Global) {
		t.Fatalf("%d regional vs %d global event results", len(data.Regional), len(data.Global))
	}
	churnedReg, churnedGlob := false, false
	for i := range data.Regional {
		if data.Regional[i].Event != data.Global[i].Event {
			t.Fatalf("event %d: schedules diverge: %q vs %q", i, data.Regional[i].Event, data.Global[i].Event)
		}
		if data.Regional[i].Churn.ChangedFraction() > 0 {
			churnedReg = true
		}
		if data.Global[i].Churn.ChangedFraction() > 0 {
			churnedGlob = true
		}
	}
	if !churnedReg || !churnedGlob {
		t.Fatalf("no churn observed (regional=%v global=%v)", churnedReg, churnedGlob)
	}
	if data.MeanBlastRegional <= 0 || data.MeanBlastGlobal <= 0 {
		t.Fatalf("degenerate mean blast radii: %v vs %v", data.MeanBlastRegional, data.MeanBlastGlobal)
	}
	if !strings.Contains(r.Text, "mean blast radius") {
		t.Fatalf("report text missing summary:\n%s", r.Text)
	}
	if len(r.Series["penalty-cdf-regional"]) == 0 {
		t.Fatal("no regional penalty CDF points")
	}
	// Trajectory verdict: two load samples per fault (held, repaired) were
	// recorded and judged by the overload SLO rule.
	wantSamples := 2 * len(data.Regional)
	if n := len(r.Series["max-util-regional"]); n != wantSamples {
		t.Fatalf("max-util-regional has %d points, want %d", n, wantSamples)
	}
	if data.PeakUtilRegional <= 0 || data.PeakUtilGlobal <= 0 {
		t.Fatalf("degenerate peak utilizations: %v vs %v", data.PeakUtilRegional, data.PeakUtilGlobal)
	}
	if !strings.Contains(r.Text, "trajectory verdict") {
		t.Fatalf("report text missing trajectory verdict:\n%s", r.Text)
	}
}
