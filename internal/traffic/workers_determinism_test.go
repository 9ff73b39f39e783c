package traffic_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"anysim/internal/geo"
	"anysim/internal/glass"
	"anysim/internal/obs"
	"anysim/internal/obs/ts"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// workersRun is everything one Workers setting of the full pipeline
// produced.
type workersRun struct {
	snapshot, trace       []byte // metrics snapshot and JSONL trace
	before, after, diff   string // glass captures around the resolve
	dump, alerts          []byte // flight-recorder dump and SLO alert stream
	actions               []traffic.Action
	initial, final        *traffic.LoadReport
	restoredEqualsInitial bool
}

// runWorkersPipeline builds a provenance-on, instrumented seed-7 small
// world and drives every consumer of the Workers pool on it: one diurnal
// cycle of an EMEA x4 flash crowd through a flight recorder with the
// default SLO rules, a glass capture, a Resolve of the crowd at its first
// bucket, a second capture and their diff, and a Reset.
func runWorkersPipeline(t *testing.T, workers int) workersRun {
	t.Helper()
	reg := obs.NewRegistry()
	var trace, alerts bytes.Buffer
	tr := obs.NewTracer(&trace)
	cfg := worldgen.SmallConfig(7)
	cfg.Provenance = true
	cfg.Metrics = reg
	cfg.Tracer = tr
	w, err := worldgen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep := w.Imperva.IM6
	m := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: 1})
	ev := traffic.NewEvaluator(w.Engine, dep, m, traffic.CapacityConfig{})
	ev.Instrument(reg)

	// Factor 4 overloads several EMEA sites at peak buckets, so the default
	// overload rule transitions and the steering loop commits.
	db := ts.New(ts.Config{})
	atr := obs.NewTracer(&alerts)
	db.Instrument(reg, atr)
	for b := 0; b < m.Buckets(); b++ {
		db.SampleLoad(int64(b), m, ev.Evaluate(m.FlashCrowd(m.Matrix(b), geo.EMEA, 4)), ev.Config().SoftUtil)
		db.Eval(int64(b))
	}

	probes := w.Platform.Retained()
	capA, err := glass.Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	st := traffic.NewSteerer(ev, traffic.SteeringConfig{
		MaxActions:         8,
		AllowSelective:     true,
		AllowCrossAnnounce: true,
		Workers:            workers,
		Metrics:            reg,
		Tracer:             tr,
	})
	mat := m.FlashCrowd(m.Matrix(0), geo.EMEA, 4)
	res, err := st.Resolve(mat)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	capB, err := glass.Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	d, err := glass.Diff(capA, capB)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if err := st.Reset(); err != nil {
		t.Fatalf("workers=%d: reset: %v", workers, err)
	}
	restored := ev.Evaluate(mat)
	for _, tracer := range []*obs.Tracer{tr, atr} {
		if err := tracer.Err(); err != nil {
			t.Fatalf("workers=%d: tracer: %v", workers, err)
		}
	}
	run := workersRun{
		snapshot:              reg.AppendSnapshot(nil),
		trace:                 trace.Bytes(),
		dump:                  db.AppendJSON(nil),
		alerts:                alerts.Bytes(),
		actions:               res.Actions,
		initial:               res.Initial,
		final:                 res.Final,
		restoredEqualsInitial: reflect.DeepEqual(restored, res.Initial),
	}
	for _, c := range []struct {
		dst *string
		v   any
	}{{&run.before, capA}, {&run.after, capB}, {&run.diff, d}} {
		if *c.dst, err = glass.JSON(c.v); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// workersSettings are the Workers values every determinism test compares:
// Workers=1 twice is rerun stability; 0 means GOMAXPROCS.
var workersSettings = []int{1, 1, 2, 0}

// cachedWorkersRuns holds one run per entry of workersSettings. The four
// determinism tests read different parts of the same pipeline, so the
// worlds are built once per test binary rather than once per test.
var cachedWorkersRuns []workersRun

// workersRuns returns the pipeline runs for workersSettings, building them
// on first use. The tests are not parallel, so no lock is needed; a run
// that fails leaves the cache empty and the next caller rebuilds it.
func workersRuns(t *testing.T) []workersRun {
	t.Helper()
	if testing.Short() {
		t.Skip("builds several worlds")
	}
	if cachedWorkersRuns == nil {
		runs := make([]workersRun, 0, len(workersSettings))
		for _, workers := range workersSettings {
			runs = append(runs, runWorkersPipeline(t, workers))
		}
		cachedWorkersRuns = runs
	}
	return cachedWorkersRuns
}

// compareWorkersRuns byte-compares one output of every run against the
// first Workers=1 run.
func compareWorkersRuns(t *testing.T, what string, get func(workersRun) []byte) {
	t.Helper()
	runs := workersRuns(t)
	want := get(runs[0])
	for i, r := range runs[1:] {
		if got := get(r); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: %s differs from the Workers=1 run:\n--- want ---\n%s\n--- got ---\n%s",
				workersSettings[i+1], what, want, got)
		}
	}
}

// TestWorkersDeterminism is the acceptance check for the Workers pools of
// the steering trials and the chunked load evaluation: the committed
// actions and the final load report are identical across reruns and at
// Workers 1, 2 and GOMAXPROCS, and Reset restores the pre-steering load.
func TestWorkersDeterminism(t *testing.T) {
	runs := workersRuns(t)
	ref := runs[0]
	// The pipeline must exercise what it compares, or equality proves
	// nothing.
	if len(ref.initial.Overloads()) == 0 {
		t.Fatal("the flash crowd overloads no site; nothing is steered")
	}
	if len(ref.actions) == 0 {
		t.Fatal("the steering loop committed no action")
	}
	for i, got := range runs {
		workers := workersSettings[i]
		if !reflect.DeepEqual(got.actions, ref.actions) {
			t.Fatalf("workers=%d: actions differ:\n%+v\nvs\n%+v", workers, got.actions, ref.actions)
		}
		if !reflect.DeepEqual(got.final, ref.final) {
			t.Fatalf("workers=%d: final load report differs", workers)
		}
		if !got.restoredEqualsInitial {
			t.Fatalf("workers=%d: load after Reset differs from the load before steering", workers)
		}
	}
}

// TestObsDeterminismAcrossWorkers is the observability acceptance check:
// the metrics snapshot and the JSONL trace of the pipeline are
// byte-identical across reruns and Workers settings. Metrics survive
// concurrency because they are integer accumulations (addition commutes);
// traces survive it because forks never trace and steering events are
// emitted post-round in candidate order.
func TestObsDeterminismAcrossWorkers(t *testing.T) {
	ref := workersRuns(t)[0]
	if !json.Valid(ref.snapshot) {
		t.Fatalf("snapshot is not valid JSON:\n%s", ref.snapshot)
	}
	// Span events are part of the deterministic stream: the pipeline must
	// emit begin/end pairs, and with wall metrics off they carry no
	// wall-clock coordinate at all.
	for _, want := range []string{`"span":"begin"`, `"span":"end"`, `"event":"trial"`, `"event":"commit"`, `"event":"rewind"`} {
		if !bytes.Contains(ref.trace, []byte(want)) {
			t.Fatalf("trace has no %s event", want)
		}
	}
	if bytes.Contains(ref.trace, []byte("wall_ns")) {
		t.Fatal("wall_ns leaked into a wall-off trace")
	}
	compareWorkersRuns(t, "metrics snapshot", func(r workersRun) []byte { return r.snapshot })
	compareWorkersRuns(t, "trace", func(r workersRun) []byte { return r.trace })
}

// TestGlassDeterminismAcrossWorkers is the glass acceptance check:
// provenance-backed captures and catchment diffs around a parallel
// steering run are byte-identical across reruns and Workers settings.
// Provenance rides the same fork/apply path as the RIBs, so a
// workers-dependent result would mean the recorder leaked scheduling order.
func TestGlassDeterminismAcrossWorkers(t *testing.T) {
	ref := workersRuns(t)[0]
	if ref.before == ref.after {
		t.Fatal("steering changed no capture; the diff is not exercised")
	}
	compareWorkersRuns(t, "pre-steering capture", func(r workersRun) []byte { return []byte(r.before) })
	compareWorkersRuns(t, "post-steering capture", func(r workersRun) []byte { return []byte(r.after) })
	compareWorkersRuns(t, "catchment diff", func(r workersRun) []byte { return []byte(r.diff) })
}

// TestTSDeterminismAcrossWorkers extends the acceptance check to the
// time-series plane: the flight-recorder dump and the SLO alert stream of
// a full diurnal evaluation cycle are byte-identical across reruns and
// Workers settings.
func TestTSDeterminismAcrossWorkers(t *testing.T) {
	ref := workersRuns(t)[0]
	if !json.Valid(ref.dump) {
		t.Fatalf("recorder dump is not valid JSON:\n%s", ref.dump)
	}
	// The flash crowd must trip the default overload rule, or the
	// byte-compare proves nothing about alert determinism.
	if !bytes.Contains(ref.alerts, []byte(`"scope":"slo"`)) {
		t.Fatalf("no SLO transitions in the alert stream:\n%s", ref.alerts)
	}
	compareWorkersRuns(t, "recorder dump", func(r workersRun) []byte { return r.dump })
	compareWorkersRuns(t, "alert stream", func(r workersRun) []byte { return r.alerts })
}
