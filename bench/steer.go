package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"time"

	"anysim/internal/bgp"
	"anysim/internal/geo"
	"anysim/internal/obs"
	"anysim/internal/stats"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// steerWorkload is steer-flash: the X3 flash crowd resolved by the
// steering loop, whose every trial is a fork, an incremental reconverge and
// an EvaluateOn.
type steerWorkload struct {
	world      worldgen.Config
	factor     func(seed int64) float64 // the crowd's demand multiplier
	maxActions int
	minSteps   int // rounds every run completes (sets the tail percentile)
	minRepeats int // resolves every run completes, so repeats can be compared
	setups     int // set-ups per run (setup_s is their median)
}

func defaultSteerFlash() *steerWorkload {
	return &steerWorkload{
		world:      worldgen.Config{Seed: worldgen.DefaultSeed},
		factor:     flashFactor,
		maxActions: 64,
		minSteps:   100,
		minRepeats: 2,
		setups:     3,
	}
}

// flashArea is where the X3 crowd hits.
const flashArea = geo.LatAm

// flashFactor is the seed's crowd size, 2.87 to 2.99 times LatAm's demand.
// Across that band the default world's steering loop takes the same path as
// for X3's 2.8 (31 actions, 55 rounds, 330 trials, 3 rewinds), so seeds vary
// the input without varying the work; from 2.5 to 3.0 the work varies
// twofold and would swamp the run-to-run spread.
func flashFactor(seed int64) float64 {
	return 2.87 + 0.01*float64((seed%13+13)%13)
}

// flash is one set-up: the default world, IM6's evaluator (capacities
// derived from baseline routing, as in `anysim load`), and the crowd's
// demand matrix at LatAm's peak bucket.
type flash struct {
	w   *worldgen.World
	ev  *traffic.Evaluator
	mat traffic.Matrix
}

func (sw *steerWorkload) setup(t *tracer, seed int64) (flash, error) {
	var (
		w   *worldgen.World
		err error
	)
	t.timed("worldgen", "build", func() { w, err = worldgen.New(sw.world) })
	if err != nil {
		return flash{}, err
	}
	var fl flash
	t.timed("traffic", "setup", func() {
		model := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
		ev := traffic.NewEvaluator(w.Engine, w.Imperva.IM6, model, traffic.CapacityConfig{})
		mat := model.FlashCrowd(model.Matrix(peakBucket(model, flashArea)), flashArea, sw.factor(seed))
		fl = flash{w: w, ev: ev, mat: mat}
	})
	return fl, nil
}

// peakBucket is the time bucket where an area's demand is highest.
func peakBucket(m *traffic.Model, area geo.Area) int {
	best, bestRate := 0, -1.0
	for b := 0; b < m.Buckets(); b++ {
		mat := m.Matrix(b)
		rate := 0.0
		for _, g := range m.Groups {
			if g.Area == area {
				rate += mat.Rates[g.Key]
			}
		}
		if rate > bestRate {
			best, bestRate = b, rate
		}
	}
	return best
}

func (sw *steerWorkload) config(reg *obs.Registry, tr *obs.Tracer) traffic.SteeringConfig {
	return traffic.SteeringConfig{MaxActions: sw.maxActions, AllowSelective: true, AllowCrossAnnounce: true, Metrics: reg, Tracer: tr}
}

// roundClock is the sink of the steerer's own event stream. It timestamps
// each committed round as its commit event is written and counts trial
// events, so rounds are timed without a hook inside the steering loop. The
// steerer emits only from the goroutine that called Resolve.
type roundClock struct {
	last    time.Time
	rounds  []float64 // milliseconds
	trials  int
	commit  []byte
	trialEv []byte
}

func newRoundClock() *roundClock {
	return &roundClock{commit: []byte(`"event":"commit"`), trialEv: []byte(`"event":"trial"`)}
}

func (c *roundClock) Write(p []byte) (int, error) {
	now := time.Now()
	switch {
	case bytes.Contains(p, c.commit):
		c.rounds = append(c.rounds, ms(now.Sub(c.last)))
		c.last = now
	case bytes.Contains(p, c.trialEv):
		c.trials++
	}
	return len(p), nil
}

func (c *roundClock) start() { c.last = time.Now() }

// actionList renders the routing decisions of a resolve, one per line. It
// leaves out MovedRate and RTTCostMs: they are sums over a map in iteration
// order, so their last bits differ between identical resolves.
func actionList(acts []traffic.Action) string {
	var b strings.Builder
	for _, a := range acts {
		fmt.Fprintf(&b, "%s %s %s %s %d %s %x %x %x\n", a.Kind, a.Prefix, a.Site, a.Target, a.Prepend, a.Detail,
			math.Float64bits(a.UtilBefore), math.Float64bits(a.UtilAfter), math.Float64bits(a.ShedRate))
	}
	return b.String()
}

// resolveChecked runs one Resolve and Reset and checks their outputs: the
// crowd is resolved, the action list equals the first repeat's (want, when
// set), and after Reset the load evaluates exactly as before steering.
func resolveChecked(t *tracer, st *traffic.Steerer, fl flash, want string) (*traffic.SteeringResult, error) {
	var (
		res *traffic.SteeringResult
		err error
	)
	t.timed("traffic", "resolve", func() { res, err = st.Resolve(fl.mat) })
	if err != nil {
		return nil, err
	}
	if !res.Resolved {
		return res, fmt.Errorf("steering left %d sites overloaded", len(res.Final.Overloads()))
	}
	if got := actionList(res.Actions); want != "" && got != want {
		return res, fmt.Errorf("a repeat's %d actions differ from the first repeat's", len(res.Actions))
	}
	t.timed("traffic", "reset", func() { err = st.Reset() })
	if err != nil {
		return res, err
	}
	var after *traffic.LoadReport
	t.timed("traffic", "evaluate", func() { after = st.Eval.Evaluate(fl.mat) })
	if !reflect.DeepEqual(after, res.Initial) {
		return res, fmt.Errorf("load after Reset differs from the load before steering")
	}
	return res, nil
}

func (sw *steerWorkload) run(rc runCfg, traced bool) *report {
	rep := newReport()
	if traced {
		sw.traced(rep, rc)
		return rep
	}
	fl, ok := setupRuns(rep, sw.setups, func() (flash, error) { return sw.setup(nil, rc.seed) })
	if !ok {
		return rep
	}
	ph := sw.phase(rep, fl, rc.seconds, sw.minSteps, sw.minRepeats)
	if ph.wall > 0 {
		rep.set("work_per_s", float64(ph.trials)/ph.wall.Seconds(), ph.trials, "steering trials/s")
		stepMetrics(rep, ph.rounds, sw.minSteps)
		rep.notef("flash factor %.2f: %d actions, %d rounds and %d trials per resolve; resolve median %.3f s (n=%d)",
			sw.factor(rc.seed), ph.nActions, len(ph.rounds)/len(ph.resolves), ph.trials/len(ph.resolves),
			stats.Median(ph.resolves), len(ph.resolves))
	}
	ph.rss.report(rep)
	h := fnv.New64a()
	fmt.Fprintf(h, "%g\n%s", sw.factor(rc.seed), ph.actions)
	rep.digest = fmt.Sprintf("%016x (FNV-64a of the action list)", h.Sum64())
	return rep
}

// steerPhase is what a measured steering loop observed.
type steerPhase struct {
	rounds   []float64 // milliseconds per committed round
	resolves []float64 // seconds per Resolve
	trials   int
	actions  string // the first resolve's actionList
	nActions int
	wall     time.Duration
	rss      rssMark
}

// phase resolves the crowd and resets, over and over, for at least budget,
// floor rounds and minRepeats resolves.
func (sw *steerWorkload) phase(rep *report, fl flash, budget time.Duration, floor, minRepeats int) steerPhase {
	var ph steerPhase
	clock := newRoundClock()
	st := traffic.NewSteerer(fl.ev, sw.config(nil, obs.NewTracer(clock)))
	rt := startPhase()
	t0 := time.Now()
	for len(ph.resolves) < minRepeats || len(clock.rounds) < floor || time.Since(t0) < budget {
		clock.start()
		r0 := time.Now()
		res, err := resolveChecked(nil, st, fl, ph.actions)
		if !rep.op(err) {
			return ph
		}
		ph.resolves = append(ph.resolves, time.Since(r0).Seconds())
		if ph.actions == "" {
			ph.actions, ph.nActions = actionList(res.Actions), len(res.Actions)
		}
		if len(ph.resolves) >= minRepeats && len(clock.rounds) >= floor {
			ph.rss.take()
		}
	}
	ph.wall = time.Since(t0)
	ph.rounds, ph.trials = clock.rounds, clock.trials
	runtimeMetrics(rep, rt, ph.trials)
	return ph
}

// trialsPerCycle is how many trial units the traced run times from outside
// after each resolve.
const trialsPerCycle = 12

// traced is the traced run: half the budget on the untraced loop (runtime
// metrics, untraced baseline), then resolves with a metrics registry
// attached to the engine, evaluator and steerer (their sim-class counters
// give the work counts), each followed by trial units timed from outside:
// Fork, AnnounceSite with one more prepend on the most-loaded site, and
// EvaluateOn(fork, crowd).
func (sw *steerWorkload) traced(rep *report, rc runCfg) {
	t := newTracer(rc.seed, sw.world.Hash())
	sp := t.begin(rootScope, setupName)
	fl, err := sw.setup(t, rc.seed)
	sp.end()
	if !rep.ok(err) {
		return
	}
	a := sw.phase(rep, fl, rc.seconds/2, 1, 1)
	if len(a.resolves) == 0 {
		return
	}

	reg := obs.NewRegistry()
	fl.w.Engine.Instrument(reg, nil)
	fl.ev.Instrument(reg)
	st := traffic.NewSteerer(fl.ev, sw.config(reg, nil))
	counters := []struct{ metric, name string }{
		{"traffic.trials", "steer.trials"},
		{"traffic.rounds", "steer.rounds"},
		{"traffic.actions", "steer.actions"},
		{"traffic.eval_reports", "traffic.eval.reports"},
		{"bgp.forks", "bgp.fork.count"},
		{"bgp.site_ops", "bgp.op.site"},
	}
	sums := make([]int64, len(counters))
	resolves := 0
	tr, err := mostLoadedTrial(fl)
	if !rep.ok(err) {
		return
	}
	t0 := time.Now()
	for resolves < 1 || time.Since(t0) < rc.seconds/2 {
		before := make([]int64, len(counters))
		for i, c := range counters {
			before[i] = reg.Counter(c.name).Value()
		}
		step := t.begin(rootScope, "resolve")
		_, err := resolveChecked(t, st, fl, a.actions)
		step.end()
		if !rep.op(err) {
			return
		}
		resolves++
		for i, c := range counters {
			sums[i] += reg.Counter(c.name).Value() - before[i]
		}
		for i := 0; i < trialsPerCycle; i++ {
			if !rep.op(trialUnit(t, fl, tr)) {
				return
			}
		}
	}

	f, err := t.fold()
	if !rep.ok(err) {
		return
	}
	rep.ok(t.write(rc.traceFile))
	f.pct(rep, "worldgen.build_s", "worldgen/build", 50, time.Second)
	f.pct(rep, "traffic.setup_s", "traffic/setup", 50, time.Second)
	f.pct(rep, "traffic.resolve_s", "traffic/resolve", 50, time.Second)
	f.pct(rep, "traffic.trial_ms_p50", rootScope+"/trial", 50, time.Millisecond)
	f.pct(rep, "bgp.site_reconverge_ms_p50", "bgp/announce_site", 50, time.Millisecond)
	f.pct(rep, "bgp.fork_us_p50", "bgp/fork", 50, time.Microsecond)
	f.pct(rep, "traffic.evaluate_ms_p50", "traffic/evaluate_on", 50, time.Millisecond)
	perResolve := func(i int) float64 { return float64(sums[i]) / float64(resolves) }
	for i, c := range counters {
		rep.set(c.metric, perResolve(i), resolves, "per resolve, "+c.name)
	}
	resolveS := f.total("traffic/resolve").Seconds() / float64(resolves)
	if trials := perResolve(0); trials > 0 && a.trials > 0 {
		untraced := sum(a.resolves) / float64(a.trials)
		rep.set("bench.trace_overhead_frac", resolveS/trials/untraced-1, resolves, "traced resolve s/trial over untraced, minus 1")
		if d := f.durs[rootScope+"/trial"]; len(d) > 0 {
			trialMs, workers := stats.Median(d)/1e6, runtime.GOMAXPROCS(0)
			rep.notef("sanity: trials x trial_ms / workers = %.0f x %.2f ms / %d = %.2f s against a %.2f s resolve",
				trials, trialMs, workers, trials*trialMs/1e3/float64(workers), resolveS)
		}
	}
	f.cover(rep)
}

// trial is the action a trial unit tries: one more prepend on an
// announcement of the site carrying the most crowd demand.
type trial struct {
	prefix netip.Prefix
	ann    bgp.SiteAnnouncement
}

// mostLoadedTrial picks the trial for the engine's current routing.
func mostLoadedTrial(fl flash) (trial, error) {
	best, bestDemand := "", -1.0
	for _, sl := range fl.ev.Evaluate(fl.mat).Sites {
		if sl.Demand > bestDemand {
			best, bestDemand = sl.Site, sl.Demand
		}
	}
	for _, r := range fl.ev.Dep.Regions {
		for _, a := range fl.w.Engine.Announcements(r.Prefix) {
			if a.Site == best {
				a.Prepend++
				return trial{prefix: r.Prefix, ann: a}, nil
			}
		}
	}
	return trial{}, fmt.Errorf("no announcement from the most-loaded site %q", best)
}

// trialUnit is one steering trial done from outside the steerer: fork the
// live engine, re-announce the trial's site with one more prepend on the
// fork, and evaluate the crowd's load there.
func trialUnit(t *tracer, fl flash, tr trial) error {
	step := t.begin(rootScope, "trial")
	defer step.end()
	var (
		fork *bgp.Engine
		err  error
	)
	t.timed("bgp", "fork", func() { fork = fl.w.Engine.Fork() })
	t.timed("bgp", "announce_site", func() { err = fork.AnnounceSite(tr.prefix, tr.ann) })
	if err != nil {
		return fmt.Errorf("trial on %s: %w", tr.ann.Site, err)
	}
	t.timed("traffic", "evaluate_on", func() { fl.ev.EvaluateOn(fork, fl.mat) })
	return nil
}
