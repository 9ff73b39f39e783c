package traffic

import (
	"reflect"
	"testing"

	"anysim/internal/geo"
)

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
