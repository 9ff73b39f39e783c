package main

// The twin workloads: `anysim serve` driven through its HTTP API. Requests
// go in-process through Server.Handler().ServeHTTP with an httptest
// recorder, so no socket or loopback is involved. Ingest is serialized
// under the server's mutex, so one closed-loop client measures service
// time, and the event rate is what the twin sustains.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"time"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/dynamics"
	"anysim/internal/geo"
	"anysim/internal/glass"
	"anysim/internal/obs"
	"anysim/internal/obs/ts"
	"anysim/internal/server"
	"anysim/internal/stats"
	"anysim/internal/topo"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// twinWorkload is twin-ops or twin-storm.
type twinWorkload struct {
	world worldgen.Config
	// mix weights the generated fault kinds; Seed, Start, Faults, Spacing
	// and RepairAfter are set per schedule episode.
	mix      dynamics.GenConfig
	batch    int  // events per POST /events body
	queries  bool // GET /diff and GET /explain after every body
	minSteps int  // steps every run completes (sets the tail percentile)
	setups   int  // set-ups per run (setup_s is their median)
}

// defaultTwinOps is the operator's loop: every event is followed by "what
// moved, and why".
func defaultTwinOps() *twinWorkload {
	return &twinWorkload{
		world:    serveWorld(),
		mix:      dynamics.GenConfig{PSite: 0.3, PLink: 0.3, PIXP: 0.1, PCrowd: 0.15, PFlap: 0.15},
		batch:    1,
		queries:  true,
		minSteps: 500,
		setups:   7,
	}
}

// defaultTwinStorm is a feed's write-only bursts: 16-event bodies from a
// link/site/flap-heavy schedule with no flash crowds, one GET /load after
// each, no glass queries.
func defaultTwinStorm() *twinWorkload {
	return &twinWorkload{
		world:    serveWorld(),
		mix:      dynamics.GenConfig{PSite: 0.35, PLink: 0.45, PFlap: 0.2},
		batch:    16,
		minSteps: 100,
		setups:   7,
	}
}

// serveWorld is the world `anysim -small serve` builds. The twins use the
// small world because a default-world twin's 128-state history of forks and
// memoized captures outgrows a 7 GB machine (README.md).
func serveWorld() worldgen.Config {
	c := worldgen.SmallConfig(worldgen.DefaultSeed)
	c.Provenance = true
	return c
}

// twin is one set-up: a world with a metrics registry attached (wall
// metrics off, as in `anysim serve`) and a server fronting IM6.
type twin struct {
	w *worldgen.World
	s *server.Server
}

func (tw *twinWorkload) setup(t *tracer) (twin, error) {
	c := tw.world
	c.Metrics = obs.NewRegistry()
	var (
		w   *worldgen.World
		s   *server.Server
		err error
	)
	t.timed("worldgen", "build", func() { w, err = worldgen.New(c) })
	if err != nil {
		return twin{}, err
	}
	t.timed("server", "new", func() { s, err = server.New(server.Config{World: w, Dep: w.Imperva.IM6}) })
	return twin{w: w, s: s}, err
}

func (tw *twinWorkload) run(rc runCfg, traced bool) *report {
	rep := newReport()
	if traced {
		tw.traced(rep, rc)
		return rep
	}
	tn, ok := setupRuns(rep, tw.setups, func() (twin, error) { return tw.setup(nil) })
	if !ok {
		return rep
	}
	dg := newDigest(tw.minSteps)
	ph := tw.httpPhase(rep, tn, rc.seed, rc.seconds, tw.minSteps, dg)
	if ph.wall > 0 {
		rep.set("work_per_s", float64(ph.events)/ph.wall.Seconds(), ph.events, "events/s")
		stepMetrics(rep, ph.steps, tw.minSteps)
		tail := tailPercentile(tw.minSteps)
		rep.notef("POST /events p50 %.3f ms, p%g %.3f ms (n=%d)", stats.Percentile(ph.writes, 50), tail, stats.Percentile(ph.writes, tail), len(ph.writes))
		if len(ph.diffs) > 0 {
			rep.notef("GET /diff p50 %.3f ms, p%g %.3f ms (n=%d)", stats.Percentile(ph.diffs, 50), tail, stats.Percentile(ph.diffs, tail), len(ph.diffs))
		}
	}
	ph.rss.report(rep)
	rep.digest = dg.String()
	return rep
}

// schedule streams seeded dynamics.Generate episodes back to back. Generate
// repairs every fault before the next one begins and episodes follow each
// other in tick order, so after each repair or flap the routing state is
// the initial one again and no flash crowd is active.
type schedule struct {
	mix     dynamics.GenConfig
	seed    int64
	tp      *topo.Topology
	dep     *cdn.Deployment
	episode int
	pending []dynamics.Event
	open    int // faults begun and not yet repaired
}

// Episode shape: 64 faults, one every 10 ticks, each repaired 5 ticks later.
const (
	episodeFaults = 64
	faultSpacing  = 10
	faultRepair   = 5
)

func newSchedule(mix dynamics.GenConfig, seed int64, w *worldgen.World) *schedule {
	return &schedule{mix: mix, seed: seed, tp: w.Topo, dep: w.Imperva.IM6}
}

func (s *schedule) next() (dynamics.Event, error) {
	if len(s.pending) == 0 {
		cfg := s.mix
		cfg.Seed = s.seed*1000 + int64(s.episode)
		cfg.Faults = episodeFaults
		cfg.Spacing = faultSpacing
		cfg.RepairAfter = faultRepair
		cfg.Start = s.episode*episodeFaults*faultSpacing + 1
		sc, err := dynamics.Generate(cfg, s.tp, s.dep)
		if err != nil {
			return dynamics.Event{}, err
		}
		s.pending = sc.Events
		s.episode++
	}
	ev := s.pending[0]
	s.pending = s.pending[1:]
	switch ev.Kind {
	case dynamics.SiteDown, dynamics.LinkDown, dynamics.IXPDown, dynamics.FlashBegin:
		s.open++
	case dynamics.SiteUp, dynamics.LinkUp, dynamics.IXPUp, dynamics.FlashEnd:
		s.open--
	}
	return ev, nil
}

// restored reports whether every fault handed out so far has been repaired.
func (s *schedule) restored() bool { return s.open == 0 }

// body takes the next n events and renders them as a JSONL POST body.
func (s *schedule) body(n int) ([]byte, error) {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		ev, err := s.next()
		if err != nil {
			return nil, err
		}
		line, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes(), nil
}

// explainGroups draws the seeded sequence of probe groups /explain asks
// about.
type explainGroups struct {
	rng  *rand.Rand
	keys []string
}

func newExplainGroups(seed int64, m *traffic.Model) *explainGroups {
	keys := make([]string, len(m.Groups))
	for i, g := range m.Groups {
		keys[i] = g.Key
	}
	return &explainGroups{rng: rand.New(rand.NewSource(seed)), keys: keys}
}

func (g *explainGroups) next() string { return g.keys[g.rng.Intn(len(g.keys))] }

// phase is what a measured loop observed.
type phase struct {
	steps, writes, diffs []float64 // milliseconds
	events               int
	wall                 time.Duration
	rss                  rssMark
}

// httpPhase runs the closed loop against the server for at least budget
// and floor steps, then until the schedule has restored the world, and
// checks that the final catchment equals the initial one. Each step posts
// one body of tw.batch events and reads GET /load, then (twin-ops) GET
// /diff since the tick before the post and GET /explain for a seeded group.
// A step's latency is the sum of its requests' service times.
func (tw *twinWorkload) httpPhase(rep *report, tn twin, seed int64, budget time.Duration, floor int, dg *digest) phase {
	var ph phase
	h := tn.s.Handler()
	sched := newSchedule(tw.mix, seed, tn.w)
	groups := newExplainGroups(seed, tn.s.Model())
	initial, err := tn.s.Current().Catchment()
	if !rep.ok(err) {
		return ph
	}
	tick := int64(0)
	rt := startPhase()
	t0 := time.Now()
	for n := 0; n < floor || time.Since(t0) < budget || !sched.restored(); n++ {
		body, err := sched.body(tw.batch)
		if !rep.ok(err) {
			return ph
		}
		since := tick
		code, out, write := serve(h, http.MethodPost, "/events", body)
		if !rep.op(checkApplied(code, out, tw.batch, &tick)) {
			return ph
		}
		code, out, load := serve(h, http.MethodGet, "/load", nil)
		if !rep.op(checkStatus("GET /load", code, out)) {
			return ph
		}
		if dg != nil {
			dg.step(out)
		}
		step := write + load
		if tw.queries {
			code, out, diff := serve(h, http.MethodGet, "/diff?since="+strconv.FormatInt(since, 10), nil)
			if !rep.op(checkStatus("GET /diff", code, out)) {
				return ph
			}
			code, out, explain := serve(h, http.MethodGet, "/explain?group="+url.QueryEscape(groups.next()), nil)
			if !rep.op(checkStatus("GET /explain", code, out)) {
				return ph
			}
			step += diff + explain
			ph.diffs = append(ph.diffs, ms(diff))
		}
		ph.steps = append(ph.steps, ms(step))
		ph.writes = append(ph.writes, ms(write))
		ph.events += tw.batch
		if n+1 == floor {
			ph.rss.take()
		}
	}
	ph.wall = time.Since(t0)
	runtimeMetrics(rep, rt, ph.events)
	final, err := tn.s.Current().Catchment()
	rep.op(checkRestored(initial, final, err))
	return ph
}

// serve sends one request through the handler and times its service.
func serve(h http.Handler, method, target string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(t0)
}

func checkStatus(what string, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", what, code, bytes.TrimSpace(body))
	}
	return nil
}

// checkApplied checks a POST /events answer: 200 and one applied result per
// event sent. It advances *tick to the last applied event's tick.
func checkApplied(code int, body []byte, sent int, tick *int64) error {
	if err := checkStatus("POST /events", code, body); err != nil {
		return err
	}
	var v struct {
		Applied []server.ApplyResult `json:"applied"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("POST /events: %w", err)
	}
	if len(v.Applied) != sent {
		return fmt.Errorf("POST /events: applied %d of %d events", len(v.Applied), sent)
	}
	*tick = v.Applied[sent-1].Tick
	return nil
}

// checkRestored checks that the schedule, which repairs every fault it
// causes, left no probe group on another site than at the start.
func checkRestored(initial, final glass.CatchmentSet, err error) error {
	if err != nil {
		return err
	}
	d, err := glass.Diff(initial, final)
	if err != nil {
		return err
	}
	if d.Moved != 0 {
		return fmt.Errorf("schedule restored every fault but %d groups moved", d.Moved)
	}
	return nil
}

// replay applies a schedule through the calls the server's ingest path and
// query handlers make, in the server's order, so a traced run can time each
// call; the traced twin cannot see inside Server.Apply. It mirrors
// Server.Apply and publishLocked, and the /load, /diff and /explain
// handlers. TestReplayMatchesServer holds its loads, captures and /load
// bodies equal to the server's, event by event.
type replay struct {
	w      *worldgen.World
	dep    *cdn.Deployment
	model  *traffic.Model
	eval   *traffic.Evaluator
	runner *dynamics.Runner
	tsdb   *ts.DB
	probes []*atlas.Probe

	tick, seq int64
	cur       replayState
	capture   glass.CatchmentSet // of the last queried state
	stats     []bgp.ReconvergeStats
}

// replayState is one published state (server.State).
type replayState struct {
	seq, tick int64
	bucket    int
	eng       *bgp.Engine
	load      *traffic.LoadReport
	flash     map[geo.Area]float64
}

// newReplay sets up what server.New sets up on a fresh start, and publishes
// the initial state.
func newReplay(w *worldgen.World) *replay {
	r := &replay{w: w, dep: w.Imperva.IM6, probes: w.Platform.Retained()}
	r.model = traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
	r.tsdb = ts.New(ts.Config{})
	r.tsdb.Instrument(w.Config.Metrics, nil)
	r.eval = traffic.NewEvaluator(w.Engine, r.dep, r.model, traffic.CapacityConfig{})
	r.eval.Instrument(w.Config.Metrics)
	r.runner = dynamics.NewRunner(w.Engine, r.dep)
	r.runner.Measurer = w.Measurer
	r.runner.Probes = r.probes
	r.publish(nil)
	return r
}

// decode parses a POST /events body as the server does.
func decode(t *tracer, body []byte) ([]dynamics.Event, error) {
	var (
		evs []dynamics.Event
		err error
	)
	t.timed("dynamics", "decode", func() {
		d := dynamics.NewDecoder(bytes.NewReader(body))
		for {
			var ev dynamics.Event
			if ev, err = d.Next(); err != nil {
				break
			}
			evs = append(evs, ev)
		}
		if errors.Is(err, io.EOF) {
			err = nil
		}
	})
	return evs, err
}

// apply is Server.Apply.
func (r *replay) apply(t *tracer, ev dynamics.Event) error {
	if int64(ev.At) > r.tick {
		r.tick = int64(ev.At)
	}
	var err error
	t.timed("dynamics", "apply", func() { err = r.runner.Apply(ev) })
	if err != nil {
		return err
	}
	var st bgp.ReconvergeStats
	if ev.Kind != dynamics.FlashBegin && ev.Kind != dynamics.FlashEnd {
		st = r.w.Engine.LastReconvergeStats()
		r.stats = append(r.stats, st)
	}
	t.timed("ts", "reconverge", func() { r.tsdb.SampleReconverge(r.tick, st.Dirty, st.Passes) })
	r.publish(t)
	return nil
}

// publish is Server.publishLocked.
func (r *replay) publish(t *tracer) {
	bucket := int(r.tick % int64(r.model.Buckets()))
	flash := r.runner.ActiveFlash()
	var mat traffic.Matrix
	t.timed("traffic", "matrix", func() {
		mat = r.model.Matrix(bucket)
		for _, a := range sortedAreas(flash) {
			mat = r.model.FlashCrowd(mat, a, flash[a])
		}
	})
	r.seq++
	st := replayState{seq: r.seq, tick: r.tick, bucket: bucket, flash: flash}
	t.timed("bgp", "fork", func() { st.eng = r.w.Engine.Fork() })
	t.timed("traffic", "evaluate", func() { st.load = r.eval.EvaluateOn(st.eng, mat) })
	t.timed("ts", "sample", func() {
		r.tsdb.SampleLoad(r.tick, r.model, st.load, r.eval.Config().SoftUtil)
		r.tsdb.Eval(r.tick)
	})
	r.cur = st
}

// sortedAreas is the server's deterministic flash-fold order.
func sortedAreas(m map[geo.Area]float64) []geo.Area {
	out := make([]geo.Area, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// loadView and siteView mirror the server's GET /load body field for field.
type siteView struct {
	Site        string  `json:"site"`
	City        string  `json:"city"`
	Tier        string  `json:"tier"`
	Capacity    float64 `json:"capacity"`
	Demand      float64 `json:"demand"`
	Utilization float64 `json:"utilization"`
	Groups      int     `json:"groups"`
	Overloaded  bool    `json:"overloaded,omitempty"`
}

type loadView struct {
	Seq            int64              `json:"seq"`
	Tick           int64              `json:"tick"`
	Bucket         int                `json:"bucket"`
	MaxUtilization float64            `json:"max_utilization"`
	Unserved       float64            `json:"unserved"`
	Flash          map[string]float64 `json:"flash,omitempty"`
	Sites          []siteView         `json:"sites"`
}

// loadBody renders GET /load for the current state, as the server does.
func (r *replay) loadBody(t *tracer) (string, error) {
	var (
		body string
		err  error
	)
	t.timed("server", "load", func() {
		st := r.cur
		v := loadView{Seq: st.seq, Tick: st.tick, Bucket: st.bucket, MaxUtilization: st.load.MaxUtilization(), Unserved: st.load.Unserved}
		if len(st.flash) > 0 {
			v.Flash = make(map[string]float64, len(st.flash))
			for a, f := range st.flash {
				v.Flash[a.String()] = f
			}
		}
		for _, sl := range st.load.Sites {
			v.Sites = append(v.Sites, siteView{
				Site: sl.Site, City: sl.City, Tier: sl.Tier.String(), Capacity: sl.Capacity, Demand: sl.Demand,
				Utilization: sl.Utilization(), Groups: sl.Groups, Overloaded: sl.Overloaded(),
			})
		}
		body, err = glass.JSON(v)
	})
	return body, err
}

// captureCurrent is State.Catchment for the current state.
func (r *replay) captureCurrent(t *tracer) (glass.CatchmentSet, error) {
	var (
		set glass.CatchmentSet
		err error
	)
	t.timed("glass", "capture", func() { set, err = glass.Capture(r.cur.eng, r.dep, r.w.Measurer, r.probes) })
	return set, err
}

// queries is what the /diff (since the previous state) and /explain
// handlers compute after an event: a capture of the new state, its diff
// against the last one, one group's explanation, and the JSON encodings.
func (r *replay) queries(t *tracer, group string) error {
	after, err := r.captureCurrent(t)
	if err != nil {
		return err
	}
	var d glass.DiffReport
	t.timed("glass", "diff", func() { d, err = glass.Diff(r.capture, after) })
	if err != nil {
		return err
	}
	t.timed("server", "encode", func() { _, err = glass.JSON(d) })
	if err != nil {
		return err
	}
	r.capture = after
	var ce glass.CatchmentExplanation
	t.timed("glass", "explain", func() { ce, err = glass.ExplainCatchment(r.cur.eng, r.dep, r.w.Measurer, r.probes, group) })
	if err != nil {
		return err
	}
	t.timed("server", "encode", func() { _, err = glass.JSON(ce) })
	return err
}

// traced is the traced run: half the budget on the untraced HTTP loop (for
// the runtime metrics and the untraced baseline of the trace overhead),
// then half on the layer replay of the same schedule with every call
// spanned.
func (tw *twinWorkload) traced(rep *report, rc runCfg) {
	t := newTracer(rc.seed, tw.world.Hash())
	sp := t.begin(rootScope, setupName)
	tn, err := tw.setup(t)
	sp.end()
	if !rep.ok(err) {
		return
	}
	a := tw.httpPhase(rep, tn, rc.seed, rc.seconds/2, 1, nil)
	tn = twin{}
	runtime.GC()

	sp = t.begin(rootScope, setupName)
	c := tw.world
	c.Metrics = obs.NewRegistry()
	var w *worldgen.World
	t.timed("worldgen", "build", func() { w, err = worldgen.New(c) })
	if !rep.ok(err) {
		sp.end()
		return
	}
	r := newReplay(w)
	initial, err := r.captureCurrent(nil)
	r.capture = initial
	sp.end()
	if !rep.ok(err) {
		return
	}
	sched := newSchedule(tw.mix, rc.seed, w)
	groups := newExplainGroups(rc.seed, r.model)
	events := 0
	t0 := time.Now()
	for n := 0; n < 1 || time.Since(t0) < rc.seconds/2 || !sched.restored(); n++ {
		body, err := sched.body(tw.batch)
		if !rep.ok(err) {
			return
		}
		step := t.begin(rootScope, "step")
		err = r.step(t, body, tw.queries, groups)
		step.end()
		if !rep.op(err) {
			return
		}
		events += tw.batch
	}
	final, err := r.captureCurrent(nil)
	rep.op(checkRestored(initial, final, err))

	f, err := t.fold()
	if !rep.ok(err) {
		return
	}
	rep.ok(t.write(rc.traceFile))
	f.pct(rep, "worldgen.build_s", "worldgen/build", 50, time.Second)
	f.pct(rep, "server.new_s", "server/new", 50, time.Second)
	if events > 0 {
		rep.set("dynamics.decode_us_per_event", float64(f.total("dynamics/decode"))/float64(events)/1e3, events, "per event")
	}
	f.pct(rep, "dynamics.apply_ms_p50", "dynamics/apply", 50, time.Millisecond)
	f.pct(rep, "dynamics.apply_ms_p98", "dynamics/apply", 98, time.Millisecond)
	f.pct(rep, "bgp.fork_us_p50", "bgp/fork", 50, time.Microsecond)
	f.pct(rep, "traffic.matrix_ms_p50", "traffic/matrix", 50, time.Millisecond)
	f.pct(rep, "traffic.evaluate_ms_p50", "traffic/evaluate", 50, time.Millisecond)
	f.pct(rep, "ts.sample_us_p50", "ts/sample", 50, time.Microsecond)
	f.pct(rep, "server.load_ms_p50", "server/load", 50, time.Millisecond)
	f.pct(rep, "server.encode_ms_p50", "server/encode", 50, time.Millisecond)
	f.pct(rep, "glass.capture_ms_p50", "glass/capture", 50, time.Millisecond)
	f.pct(rep, "glass.diff_ms_p50", "glass/diff", 50, time.Millisecond)
	f.pct(rep, "glass.explain_ms_p50", "glass/explain", 50, time.Millisecond)
	reconvergeStats(rep, r.stats)
	if a.events > 0 && events > 0 {
		untraced := sum(a.steps) / float64(a.events)
		traced := ms(f.total(rootScope+"/step")) / float64(events)
		rep.set("bench.trace_overhead_frac", traced/untraced-1, events, "traced replay ms/event over untraced HTTP ms/event, minus 1")
	}
	f.cover(rep)
}

// step is one traced client step: decode the body, apply its events, render
// GET /load, and (twin-ops) the /diff and /explain work.
func (r *replay) step(t *tracer, body []byte, queries bool, groups *explainGroups) error {
	evs, err := decode(t, body)
	if err != nil {
		return err
	}
	for _, ev := range evs {
		if err := r.apply(t, ev); err != nil {
			return err
		}
	}
	if _, err := r.loadBody(t); err != nil {
		return err
	}
	if queries {
		return r.queries(t, groups.next())
	}
	return nil
}

// reconvergeStats reports the BGP engine's work per routing event.
func reconvergeStats(rep *report, sts []bgp.ReconvergeStats) {
	if len(sts) == 0 {
		return
	}
	var dirty, passes, full float64
	for _, s := range sts {
		dirty += float64(s.Dirty)
		passes += float64(s.Passes)
		if s.Full {
			full++
		}
	}
	n := float64(len(sts))
	rep.set("bgp.dirty_ases_mean", dirty/n, len(sts), "per routing event")
	rep.set("bgp.passes_mean", passes/n, len(sts), "per routing event")
	rep.set("bgp.full_fallbacks", full, len(sts), "routing events that fell back to full recompute")
}
