// Package server is the always-on face of the simulator: where the
// subcommands in cmd/anysim build a world, run one experiment, and exit,
// `anysim serve` keeps a world resident and turns it into a live digital
// twin of an anycast deployment. Routing events (the dynamics DSL) stream
// in over stdin or HTTP and are applied through the BGP engine's
// incremental reconvergence; a virtual clock advances demand through the
// diurnal time buckets; and a query API answers catchment, load, and
// explain questions about the current state without ever blocking ingest.
//
// The concurrency design leans entirely on Engine.Fork: every published
// state holds a copy-on-write fork of the engine (microseconds to make),
// so queries read an immutable snapshot while the one ingest goroutine
// mutates the real engine. A query that arrives mid-event sees the
// pre-event world, never a half-converged one. Recent states are retained
// in a ring so /diff can attribute catchment moves to the events between
// two ticks.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/dynamics"
	"anysim/internal/geo"
	"anysim/internal/glass"
	"anysim/internal/obs"
	"anysim/internal/obs/ts"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// DefaultHistory is the number of published states retained for /diff.
const DefaultHistory = 128

// Config assembles a server over a built world.
type Config struct {
	// World is the simulated Internet; it must have been built with
	// Provenance on (explain queries and catchment classification need the
	// engine's decision records). The world's Metrics and Tracer, if any,
	// observe the server too.
	World *worldgen.World
	// Dep is the deployment the server fronts (events and queries are
	// scoped to it).
	Dep *cdn.Deployment
	// History bounds the retained state ring; DefaultHistory when 0.
	History int
	// Series configures the time-series flight recorder: every published
	// state is sampled into tick-keyed ring buffers and evaluated against
	// the SLO rules. Zero value takes the ts defaults (ts.DefaultCapacity,
	// ts.DefaultRules). Series are not checkpointed; a restored server
	// records from the restore tick onward.
	Series ts.Config
	// CheckpointPath is the default target of POST /checkpoint.
	CheckpointPath string
	// Restore, when set, resumes from a checkpoint instead of starting at
	// tick 0: routing, link states, flash crowds, clock, capacities, and
	// the metrics registry are all reinstated bit-identically. The world
	// must match the checkpoint's compatibility header (seed, world-config
	// hash, schema) and deployment.
	Restore *Checkpoint
}

// Server owns one world and applies events to it. All mutation goes
// through the mutex-serialized ingest path (ApplyBatch, AdvanceTo, Checkpoint);
// queries never take that lock — they read the last published State.
type Server struct {
	cfg   Config
	w     *worldgen.World
	dep   *cdn.Deployment
	model *traffic.Model
	eval  *traffic.Evaluator

	mu     sync.Mutex
	runner *dynamics.Runner
	tick   int64
	events int64 // events applied (ingest clock)
	seq    int64 // states published
	hist   []*State

	cur atomic.Pointer[State]

	// watch fans state deltas out to SSE /watch subscribers; lastApplyNs is
	// the wall time of the last ingest (UnixNano; 0 before the first), from
	// which /healthz derives its ingest lag.
	watch       watchHub
	lastApplyNs atomic.Int64

	// tsdb is the flight recorder behind /timeseries and /alerts, sampled
	// on the serial publish path so its contents are a pure function of the
	// event history.
	tsdb *ts.DB

	sobs serverObs
}

// serverObs bundles the server's observability handles. Ingest-side
// metrics are sim-class (the event stream determines them); query counts
// are wall-class, since no two runs see the same queries.
type serverObs struct {
	events *obs.Counter   // serve.ingest.events
	ticks  *obs.Counter   // serve.ticks
	dirty  *obs.Histogram // serve.ingest.dirty
	passes *obs.Histogram // serve.ingest.passes

	queries *obs.Counter   // serve.queries (wall)
	queryNs *obs.Histogram // serve.query.ns (wall)

	tracer *obs.Tracer
}

// State is one published snapshot: an immutable view of the world at a
// (seq, tick) instant. Engine is a copy-on-write fork — later ingest never
// mutates it — so any number of queries can read one State concurrently.
type State struct {
	Seq    int64
	Tick   int64
	Bucket int
	Engine *bgp.Engine
	Load   *traffic.LoadReport
	Flash  map[geo.Area]float64

	srv *Server
	// pred is the state published just before this one, whose finished
	// capture is the base of this state's delta capture. publishLocked
	// clears it when it publishes the next state, and this state's capture
	// clears it too, so no state keeps a chain of predecessors alive.
	pred     atomic.Pointer[State]
	capOnce  sync.Once
	captured atomic.Pointer[capture]
}

// capture is a State's finished catchment capture.
type capture struct {
	set glass.CatchmentSet
	err error
}

// Catchment returns the deployment's full captured catchment at this
// state, computed on first use and memoized (/catchment and /diff share one
// capture per state). It captures the groups of the platform's group table
// (atlas.Platform.Groups), which the world builds once. When the predecessor's capture is already done, it is
// a delta against that capture (glass.CaptureFrom): only the groups whose
// routing changed are walked, and the rest share the predecessor's views.
// Otherwise it is a full capture; it never forces or waits for another
// state's capture.
func (st *State) Catchment() (glass.CatchmentSet, error) {
	st.capOnce.Do(func() {
		var base *glass.CatchmentSet
		var baseEng *bgp.Engine
		if p := st.pred.Load(); p != nil {
			if c := p.captured.Load(); c != nil && c.err == nil {
				base, baseEng = &c.set, p.Engine
			}
		}
		set, err := glass.CaptureFrom(st.Engine, st.srv.dep, st.srv.w.Measurer, st.srv.w.Platform.Groups(), base, baseEng)
		st.captured.Store(&capture{set: set, err: err})
		st.pred.Store(nil)
	})
	c := st.captured.Load()
	return c.set, c.err
}

// New assembles a server, deriving site capacities from the world's
// baseline routing (or reinstating checkpointed ones — see Config.Restore)
// and publishing the initial state.
func New(cfg Config) (*Server, error) {
	if cfg.World == nil || cfg.Dep == nil {
		return nil, fmt.Errorf("server: Config.World and Config.Dep are required")
	}
	w := cfg.World
	if !w.Engine.ProvenanceEnabled() {
		return nil, fmt.Errorf("server: world must be built with Provenance on (worldgen.Config.Provenance)")
	}
	if cfg.History == 0 {
		cfg.History = DefaultHistory
	}
	s := &Server{cfg: cfg, w: w, dep: cfg.Dep}
	s.model = traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})

	reg, tr := w.Config.Metrics, w.Config.Tracer
	s.tsdb = ts.New(cfg.Series)
	s.tsdb.Instrument(reg, tr)
	s.sobs = serverObs{
		events:  reg.Counter("serve.ingest.events"),
		ticks:   reg.Counter("serve.ticks"),
		dirty:   reg.Histogram("serve.ingest.dirty", obs.Pow2Bounds(20)),
		passes:  reg.Histogram("serve.ingest.passes", obs.Pow2Bounds(6)),
		queries: reg.WallCounter("serve.queries"),
		queryNs: reg.WallHistogram("serve.query.ns", obs.Pow2Bounds(34)),
		tracer:  tr,
	}

	if cp := cfg.Restore; cp != nil {
		if err := s.restore(cp); err != nil {
			return nil, err
		}
		s.eval.Instrument(reg)
		s.mu.Lock()
		s.publishLocked()
		s.mu.Unlock()
		// The metrics snapshot is reinstated last: rebuilding routing and
		// publishing the initial state count work the checkpointed run
		// already counted, and the restore must erase that double count.
		if reg != nil && len(cp.Metrics) > 0 {
			if err := reg.RestoreSnapshot(cp.Metrics); err != nil {
				return nil, fmt.Errorf("server: restore metrics: %w", err)
			}
		}
		s.emitTrace("restore", obs.Str("dep", s.dep.Name), obs.Int("events", s.events))
		return s, nil
	}

	// Fresh start: capacities derive from the baseline diurnal peak, so the
	// evaluator must be built before any event perturbs the catchments.
	s.eval = traffic.NewEvaluator(w.Engine, s.dep, s.model, traffic.CapacityConfig{})
	s.eval.Instrument(reg)
	s.newRunner()
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	return s, nil
}

// newRunner wires the ingest runner over the world's engine. Its Load step
// is the publish path's tick pipeline, sampling into the server's flight
// recorder, so it needs s.eval and s.tsdb in place.
func (s *Server) newRunner() {
	s.runner = dynamics.NewRunner(s.w.Engine, s.dep)
	s.runner.Eval = s.eval
	s.runner.Series = s.tsdb
}

// Model returns the demand model (read-only).
func (s *Server) Model() *traffic.Model { return s.model }

// Dep returns the deployment the server fronts.
func (s *Server) Dep() *cdn.Deployment { return s.dep }

// Current returns the last published state. Never nil after New.
func (s *Server) Current() *State { return s.cur.Load() }

// StateAt returns the newest retained state with Tick <= tick, or nil when
// the history ring no longer reaches back that far.
func (s *Server) StateAt(tick int64) *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.hist) - 1; i >= 0; i-- {
		if s.hist[i].Tick <= tick {
			return s.hist[i]
		}
	}
	return nil
}

// EventsApplied returns the ingest clock: events applied so far.
func (s *Server) EventsApplied() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// OldestTick returns the earliest tick the history ring still covers.
func (s *Server) OldestTick() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hist[0].Tick
}

// ApplyResult reports one ingested event. The events of one batch share
// the Seq of the one state it published, and the batch's reconvergence
// work rides on its last result.
type ApplyResult struct {
	Seq    int64  `json:"seq"`
	Tick   int64  `json:"tick"`
	Event  string `json:"event"`
	Dirty  int    `json:"dirty"`
	Passes int    `json:"passes"`
	Full   bool   `json:"full,omitempty"`
}

// Apply ingests one event: a batch of one (see ApplyBatch).
func (s *Server) Apply(ev dynamics.Event) (ApplyResult, error) {
	res, err := s.ApplyBatch([]dynamics.Event{ev})
	if err != nil {
		return ApplyResult{}, err
	}
	return res[0], nil
}

// ApplyBatch ingests a batch of events under one lock: the runner checks
// every event and reconverges the batch's net change once
// (dynamics.Runner.ApplyBatch), the clock advances to the batch's latest
// event tick (an event timed before the current tick applies "now" — the
// server's clock only runs forward), and one new state is published. A bad
// event fails the batch with nothing applied: clock, routing, links and
// flash crowds stay as they were. The results come one per event, in order.
func (s *Server) ApplyBatch(evs []dynamics.Event) ([]ApplyResult, error) {
	if len(evs) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	stats, err := s.runner.ApplyBatch(evs)
	if err != nil {
		return nil, err
	}
	res := make([]ApplyResult, len(evs))
	for i, ev := range evs {
		s.tick = max(s.tick, int64(ev.At))
		res[i] = ApplyResult{Tick: s.tick, Event: ev.String()}
	}
	last := &res[len(res)-1]
	last.Dirty, last.Passes, last.Full = stats.Dirty, stats.Passes, stats.Full
	prev := s.cur.Load()
	s.tsdb.SampleReconverge(s.tick, stats.Dirty, stats.Passes)
	st, trs := s.publishLocked()
	s.lastApplyNs.Store(time.Now().UnixNano())
	s.sobs.events.Add(int64(len(evs)))
	s.sobs.dirty.Observe(int64(stats.Dirty))
	s.sobs.passes.Observe(int64(stats.Passes))
	for i := range res {
		res[i].Seq = st.Seq
		s.events++
		s.emitAt("ingest", s.events, res[i].Tick,
			obs.Str("event", res[i].Event),
			obs.Int("dirty", int64(res[i].Dirty)),
			obs.Int("passes", int64(res[i].Passes)),
			obs.Bool("full", res[i].Full),
		)
	}
	s.notifyWatchers("ingest", prev, st, *last)
	s.notifyAlerts(st, trs)
	return res, nil
}

// AdvanceTo moves the virtual clock to tick (strictly forward), re-binning
// demand into the tick's time bucket and publishing the re-evaluated load.
func (s *Server) AdvanceTo(tick int64) (*State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tick <= s.tick {
		return nil, fmt.Errorf("server: clock runs forward: at tick %d, cannot advance to %d", s.tick, tick)
	}
	s.tick = tick
	prev := s.cur.Load()
	st, trs := s.publishLocked()
	s.lastApplyNs.Store(time.Now().UnixNano())
	s.sobs.ticks.Inc()
	s.emitTrace("advance")
	s.notifyWatchers("advance", prev, st, ApplyResult{})
	s.notifyAlerts(st, trs)
	return st, nil
}

// publishLocked publishes a new immutable state for the current tick: a
// fork of the engine and the runner's tick pipeline run on it (load
// evaluated, sampled into the flight recorder, SLO rules advanced). It
// returns the state and any alert transitions this publish caused. Caller
// holds s.mu.
func (s *Server) publishLocked() (*State, []ts.Transition) {
	s.seq++
	st := &State{
		Seq:    s.seq,
		Tick:   s.tick,
		Engine: s.w.Engine.Fork(),
		Flash:  s.runner.ActiveFlash(),
		srv:    s,
	}
	// Load is evaluated on the fork: the report is pinned to exactly the
	// routing state the queries against this State will see.
	var trs []ts.Transition
	st.Load, trs = s.runner.Load(s.tick, st.Engine)
	st.Bucket = st.Load.Bucket
	if prev := s.cur.Load(); prev != nil {
		prev.pred.Store(nil)
		st.pred.Store(prev)
	}
	s.cur.Store(st)
	s.hist = append(s.hist, st)
	// Clear evicted slots: the backing array would keep their states alive.
	if n := len(s.hist) - s.cfg.History; n > 0 {
		clear(s.hist[:n])
		s.hist = s.hist[n:]
	}
	return st, trs
}

// Series returns the time-series flight recorder. Never nil after New.
func (s *Server) Series() *ts.DB { return s.tsdb }

// emitTrace emits one server event clocked by the current (event, tick).
func (s *Server) emitTrace(name string, attrs ...obs.Attr) {
	s.emitAt(name, s.events, s.tick, attrs...)
}

// emitAt emits one server event clocked by (event, tick).
func (s *Server) emitAt(name string, event, tick int64, attrs ...obs.Attr) {
	if !s.sobs.tracer.Enabled() {
		return
	}
	s.sobs.tracer.Emit(obs.Event{
		Scope: "serve",
		Name:  name,
		Clock: []obs.Coord{{Key: "event", V: event}, {Key: "tick", V: tick}},
		Attrs: attrs,
	})
}
