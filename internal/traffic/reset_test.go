package traffic

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"anysim/internal/geo"
	"anysim/internal/obs"
)

// simCounts is the sim section of a metrics snapshot reduced to what
// accumulates: counters and histogram bucket counts.
type simCounts map[string][]int64

func decodeSimCounts(t *testing.T, snap []byte) simCounts {
	t.Helper()
	var f struct {
		Sim struct {
			Counters   map[string]int64 `json:"counters"`
			Histograms map[string]struct {
				Counts []int64 `json:"counts"`
				Count  int64   `json:"count"`
				Sum    int64   `json:"sum"`
			} `json:"histograms"`
		} `json:"sim"`
	}
	if err := json.Unmarshal(snap, &f); err != nil {
		t.Fatal(err)
	}
	out := simCounts{}
	for name, v := range f.Sim.Counters {
		out[name] = []int64{v}
	}
	for name, h := range f.Sim.Histograms {
		out[name] = append([]int64{h.Count, h.Sum}, h.Counts...)
	}
	return out
}

// minus returns the per-metric difference c - prev.
func (c simCounts) minus(prev simCounts) simCounts {
	out := simCounts{}
	for name, vs := range c {
		d := make([]int64, len(vs))
		for i, v := range vs {
			d[i] = v
			if i < len(prev[name]) {
				d[i] -= prev[name][i]
			}
		}
		out[name] = d
	}
	return out
}

// bgpOps lists the root engine's op events in a JSONL trace, without their
// op clock or span ids (which keep counting across cycles).
func bgpOps(t *testing.T, trace []byte) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Scope string          `json:"scope"`
			Event string          `json:"event"`
			Attrs json.RawMessage `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if ev.Scope == "bgp" && !bytes.Contains(ev.Attrs, []byte(`"span":`)) {
			out = append(out, ev.Event+" "+string(ev.Attrs))
		}
	}
	return out
}

// TestResetRepeatsWork: Reset restores the engine's failover hints along
// with its routes, so a second Resolve+Reset cycle on one steerer does
// exactly the work of the first — equal sim-class metric deltas and equal
// root-engine op events — not just the same routing.
func TestResetRepeatsWork(t *testing.T) {
	w := smallWorld(t)
	e := w.Engine.Fork()
	reg := obs.NewRegistry()
	var trace bytes.Buffer
	e.Instrument(reg, obs.NewTracer(&trace))
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(e, w.Imperva.IM6, m, CapacityConfig{})
	ev.Instrument(reg)
	st := NewSteerer(ev, SteeringConfig{MaxActions: 8, AllowSelective: true, AllowCrossAnnounce: true, Metrics: reg})
	mat := m.FlashCrowd(m.Matrix(0), geo.EMEA, 4)

	prev := decodeSimCounts(t, reg.AppendSnapshot(nil))
	var deltas []simCounts
	var ops [][]string
	var actions [][]Action
	for cycle := 0; cycle < 2; cycle++ {
		trace.Reset()
		res, err := st.Resolve(mat)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Reset(); err != nil {
			t.Fatal(err)
		}
		cur := decodeSimCounts(t, reg.AppendSnapshot(nil))
		deltas = append(deltas, cur.minus(prev))
		prev = cur
		ops = append(ops, bgpOps(t, trace.Bytes()))
		actions = append(actions, res.Actions)
	}
	if len(actions[0]) == 0 {
		t.Fatal("the steering loop committed no action")
	}
	if !reflect.DeepEqual(actions[1], actions[0]) {
		t.Fatalf("second resolve chose different actions:\n%+v\nvs\n%+v", actions[1], actions[0])
	}
	for name, d := range deltas[0] {
		if !reflect.DeepEqual(deltas[1][name], d) {
			t.Errorf("%s: second cycle added %v; first added %v", name, deltas[1][name], d)
		}
	}
	if !reflect.DeepEqual(ops[1], ops[0]) {
		t.Errorf("root engine ops differ between cycles:\n%v\nvs\n%v", ops[1], ops[0])
	}
}

// TestResetAfterLinkFlipFails: Reset's snapshot holds routing for the link
// state at NewSteerer, so after a link flip it refuses rather than
// installing routes the topology no longer supports.
func TestResetAfterLinkFlipFails(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine.Fork(), w.Imperva.IM6, m, CapacityConfig{})
	st := NewSteerer(ev, SteeringConfig{})
	tp := w.Engine.Topology()
	const li = 0
	if err := tp.SetLinkEnabled(li, false); err != nil {
		t.Fatal(err)
	}
	err := st.Reset()
	if err := tp.SetLinkEnabled(li, true); err != nil {
		t.Fatal(err)
	}
	if err == nil {
		t.Fatal("Reset succeeded after a link flip")
	}
	if err := st.Reset(); err != nil {
		t.Fatalf("Reset after restoring the link: %v", err)
	}
}
