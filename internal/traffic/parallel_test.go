package traffic

import (
	"reflect"
	"testing"

	"anysim/internal/geo"
)

// reportsIdentical compares two load reports bit-for-bit: per-site demand,
// group counts, unserved demand, and every assignment.
func reportsIdentical(t *testing.T, label string, a, b *LoadReport) {
	t.Helper()
	if len(a.Sites) != len(b.Sites) {
		t.Fatalf("%s: site counts differ: %d vs %d", label, len(a.Sites), len(b.Sites))
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("%s: site %s differs: %+v vs %+v", label, a.Sites[i].Site, a.Sites[i], b.Sites[i])
		}
	}
	if a.Unserved != b.Unserved {
		t.Fatalf("%s: unserved differs: %v vs %v", label, a.Unserved, b.Unserved)
	}
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatalf("%s: assignment counts differ: %d vs %d", label, len(a.Assignments), len(b.Assignments))
	}
	for i, av := range a.Assignments {
		if bv := b.Assignments[i]; av != bv {
			t.Fatalf("%s: assignment %d differs: %+v vs %+v", label, i, av, bv)
		}
	}
}

// TestEvaluateParallelBitIdentical pins the deterministic-reduction
// contract: the load report is bit-identical at any evaluation worker
// count, because the summation tree is defined by the fixed chunk count,
// not by scheduling.
func TestEvaluateParallelBitIdentical(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})

	for _, b := range []int{0, m.Buckets() / 2, m.Buckets() - 1} {
		mat := m.Matrix(b)
		ev.Workers = 1
		serial := ev.Evaluate(mat)
		for _, workers := range []int{2, 4, 8} {
			ev.Workers = workers
			reportsIdentical(t, "bucket eval", serial, ev.Evaluate(mat))
		}
	}
	ev.Workers = 0
}

// TestResolveOutcomeDeterministic resolves the same flash crowd twice: the
// action lists must be deeply equal, outcome fields included. MovedRate and
// RTTCostMs are float sums over every moved group, so they differ in their
// last bits unless the sum runs in a fixed order.
func TestResolveOutcomeDeterministic(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	mat := m.FlashCrowd(m.Matrix(0), geo.EMEA, 3)
	st := NewSteerer(ev, SteeringConfig{AllowSelective: true, AllowCrossAnnounce: true})
	var runs [][]Action
	for i := 0; i < 2; i++ {
		res, err := st.Resolve(mat)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Reset(); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res.Actions)
	}
	if len(runs[0]) == 0 {
		t.Fatal("EMEA x3 took no action on the small world; the test steers nothing")
	}
	moved := false
	for _, a := range runs[0] {
		moved = moved || a.MovedRate > 0
	}
	if !moved {
		t.Fatal("no action moved demand; the test does not cover the sums")
	}
	for i, r := range runs[1:] {
		if !reflect.DeepEqual(r, runs[0]) {
			t.Fatalf("resolve %d differs from the first:\n%+v\nvs\n%+v", i+2, r, runs[0])
		}
	}
}
