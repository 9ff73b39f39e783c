package traffic

import (
	"bytes"
	"encoding/json"
	"testing"

	"anysim/internal/geo"
	"anysim/internal/obs"
	"anysim/internal/worldgen"
)

// runInstrumentedPipeline builds a fresh instrumented world and drives the
// full steering pipeline — world construction, capacity derivation, a
// flash-crowd Resolve, and a Reset — returning the metrics snapshot and the
// JSONL trace it produced.
func runInstrumentedPipeline(t *testing.T, workers int) (snapshot, trace []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)

	cfg := worldgen.SmallConfig(7)
	cfg.Metrics = reg
	cfg.Tracer = tr
	w, err := worldgen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	ev.Workers = workers
	ev.Instrument(reg)
	// Factor 4 overloads several EMEA sites in the seed-7 small world, so
	// the steering loop actually runs rounds and emits trial events.
	mat := m.FlashCrowd(m.Matrix(0), geo.EMEA, 4)
	st := NewSteerer(ev, SteeringConfig{
		MaxActions:         8, // enough rounds to exercise trials and commits
		AllowSelective:     true,
		AllowCrossAnnounce: true,
		Workers:            workers,
		Metrics:            reg,
		Tracer:             tr,
	})
	if _, err := st.Resolve(mat); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if err := st.Reset(); err != nil {
		t.Fatalf("workers=%d: reset: %v", workers, err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("workers=%d: tracer: %v", workers, err)
	}
	return reg.AppendSnapshot(nil), buf.Bytes()
}

// TestObsDeterminismAcrossWorkers is the observability acceptance check:
// the metrics snapshot and the JSONL trace of a full steering pipeline are
// byte-identical across Workers settings and across repeated runs at the
// same seed. Metrics survive concurrency because they are integer
// accumulations (addition commutes); traces survive it because forks never
// trace and steering events are emitted post-round in candidate order.
func TestObsDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several worlds")
	}
	serialSnap, serialTrace := runInstrumentedPipeline(t, 1)
	if !json.Valid(serialSnap) {
		t.Fatalf("snapshot is not valid JSON:\n%s", serialSnap)
	}
	if len(serialTrace) == 0 {
		t.Fatal("pipeline produced an empty trace")
	}
	// Span events are part of the deterministic stream: the pipeline must
	// emit begin/end pairs, and with wall metrics off they carry no
	// wall-clock coordinate at all.
	if !bytes.Contains(serialTrace, []byte(`"span":"begin"`)) ||
		!bytes.Contains(serialTrace, []byte(`"span":"end"`)) {
		t.Fatal("trace has no span events")
	}
	if bytes.Contains(serialTrace, []byte("wall_ns")) {
		t.Fatal("wall_ns leaked into a wall-off trace")
	}
	// Repeated run at the same worker count: rerun stability.
	rerunSnap, rerunTrace := runInstrumentedPipeline(t, 1)
	if !bytes.Equal(serialSnap, rerunSnap) {
		t.Fatalf("snapshot differs across reruns:\n--- first ---\n%s--- rerun ---\n%s", serialSnap, rerunSnap)
	}
	if !bytes.Equal(serialTrace, rerunTrace) {
		t.Fatalf("trace differs across reruns (first %d bytes vs %d bytes)", len(serialTrace), len(rerunTrace))
	}
	// Parallel runs: 0 means GOMAXPROCS.
	for _, workers := range []int{2, 0} {
		snap, trace := runInstrumentedPipeline(t, workers)
		if !bytes.Equal(serialSnap, snap) {
			t.Fatalf("workers=%d: snapshot differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serialSnap, snap)
		}
		if !bytes.Equal(serialTrace, trace) {
			t.Fatalf("workers=%d: trace differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serialTrace, trace)
		}
	}
}
