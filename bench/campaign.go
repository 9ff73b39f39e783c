package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/core"
	"anysim/internal/dnssim"
	"anysim/internal/geo"
	"anysim/internal/worldgen"
)

// campaignWorkload is paper-campaign: the paper's RIPE-Atlas-style
// methodology, BGP's read path only. Each step measures one regional
// hostname from every retained probe (core.RunCampaign with both DNS modes
// and traceroutes) and analyzes it (core.GroupMeasurements,
// core.AnalyzeDNSMapping per mode).
type campaignWorkload struct {
	world    worldgen.Config
	minSteps int // campaigns every run completes
	setups   int // set-ups per run (setup_s is their median)
}

func defaultPaperCampaign() *campaignWorkload {
	return &campaignWorkload{world: worldgen.Config{Seed: worldgen.DefaultSeed}, minSteps: 6, setups: 3}
}

// hostnames draws the seeded hostname sequence. Campaigns cycle through the
// EG3, EG4 and IM6 regional sets (3, 4 and 6 VIPs to ping), so every run
// measures the same deployment mix and only the names the seed picks
// differ.
type hostnames struct {
	rng  *rand.Rand
	sets [][]string
	n    int
}

func newHostnames(seed int64, w *worldgen.World) *hostnames {
	return &hostnames{rng: rand.New(rand.NewSource(seed)), sets: [][]string{w.Hostnames.EG3, w.Hostnames.EG4, w.Hostnames.IM6}}
}

func (h *hostnames) next() string {
	set := h.sets[h.n%len(h.sets)]
	h.n++
	return set[h.rng.Intn(len(set))]
}

// campaign is one step's inputs.
type campaign struct {
	host   string
	dep    *cdn.Deployment
	probes []*atlas.Probe
}

func (cw *campaignWorkload) setup(t *tracer) (*worldgen.World, error) {
	var (
		w   *worldgen.World
		err error
	)
	t.timed("worldgen", "build", func() { w, err = worldgen.New(cw.world) })
	return w, err
}

// analyze is the per-campaign analysis the paper's tables start from.
func analyze(t *tracer, res *core.Result) (groups []*core.Group, eff []*core.MappingEfficiency) {
	t.timed("core", "analyze", func() {
		groups = core.GroupMeasurements(res)
		for _, mode := range core.DefaultCampaignConfig().Modes {
			eff = append(eff, core.AnalyzeDNSMapping(res, mode))
		}
	})
	return groups, eff
}

// checkResult checks that a campaign produced one measurement per probe, in
// probe order.
func checkResult(c campaign, res *core.Result) error {
	if len(res.Probes) != len(c.probes) {
		return fmt.Errorf("campaign %s: %d measurements for %d probes", c.host, len(res.Probes), len(c.probes))
	}
	for i, m := range res.Probes {
		if m.Probe != c.probes[i] {
			return fmt.Errorf("campaign %s: measurement %d is of probe %d, want %d", c.host, i, m.Probe.ID, c.probes[i].ID)
		}
	}
	return nil
}

func (cw *campaignWorkload) run(rc runCfg, traced bool) *report {
	rep := newReport()
	if traced {
		cw.traced(rep, rc)
		return rep
	}
	w, ok := setupRuns(rep, cw.setups, func() (*worldgen.World, error) { return cw.setup(nil) })
	if !ok {
		return rep
	}
	h := fnv.New64a()
	ph := cw.phase(rep, w, rc.seed, rc.seconds, cw.minSteps, h)
	if ph.wall > 0 {
		rep.set("work_per_s", float64(ph.probes)/ph.wall.Seconds(), ph.probes, "probes measured/s")
		stepMetrics(rep, ph.steps, cw.minSteps)
	}
	ph.rss.report(rep)
	rep.digest = fmt.Sprintf("%016x (FNV-64a over the first %d campaigns)", h.Sum64(), cw.minSteps)
	return rep
}

type campaignPhase struct {
	steps  []float64 // milliseconds per campaign, analysis included
	probes int
	wall   time.Duration
	rss    rssMark
}

// phase runs campaigns for at least budget and floor campaigns, hashing the
// results of the first floor into h (nil: no digest).
func (cw *campaignWorkload) phase(rep *report, w *worldgen.World, seed int64, budget time.Duration, floor int, h hash.Hash) campaignPhase {
	var ph campaignPhase
	hosts := newHostnames(seed, w)
	probes := w.Platform.Retained()
	rt := startPhase()
	t0 := time.Now()
	for n := 0; n < floor || time.Since(t0) < budget; n++ {
		host := hosts.next()
		c := campaign{host: host, dep: w.DeploymentOfHostname(host), probes: probes}
		s0 := time.Now()
		res := core.RunCampaign(w.Measurer, w.Auth, c.dep, c.host, c.probes, core.DefaultCampaignConfig())
		groups, eff := analyze(nil, res)
		ph.steps = append(ph.steps, ms(time.Since(s0)))
		if !rep.op(checkResult(c, res)) {
			return ph
		}
		if h != nil && n < floor {
			hashCampaign(h, res, len(groups), eff)
		}
		ph.probes += len(probes)
		if n+1 == floor {
			ph.rss.take()
		}
	}
	ph.wall = time.Since(t0)
	runtimeMetrics(rep, rt, ph.probes)
	return ph
}

// hashCampaign folds a campaign's results into h: per probe the returned
// VIPs, RTTs and catchment sites per VIP, and each traceroute's hop count
// and penultimate hop; then the Table-2 mapping fractions.
func hashCampaign(h hash.Hash, res *core.Result, groups int, eff []*core.MappingEfficiency) {
	fmt.Fprintf(h, "%s %s %d\n", res.Deployment.Name, res.Host, groups)
	vips := res.Deployment.VIPs()
	for _, m := range res.Probes {
		fmt.Fprintf(h, "%d", m.Probe.ID)
		for _, mode := range core.DefaultCampaignConfig().Modes {
			fmt.Fprintf(h, " %s", m.Returned[mode])
		}
		for _, vip := range vips {
			if rtt, ok := m.RTT[vip]; ok {
				fmt.Fprintf(h, " %x %s", math.Float64bits(rtt), m.Fwd[vip].Site)
			}
			if tr, ok := m.Trace[vip]; ok {
				ph, _ := tr.PHop()
				fmt.Fprintf(h, " %t/%d/%s", tr.Reached, len(tr.Hops), ph.Addr)
			}
		}
		fmt.Fprintln(h)
	}
	for _, e := range eff {
		for _, area := range geo.Areas {
			fmt.Fprintf(h, "%s %d %d", area, e.Mode, e.Groups[area])
			classes := make([]core.MappingClass, 0, len(e.Fractions[area]))
			for c := range e.Fractions[area] {
				classes = append(classes, c)
			}
			slices.Sort(classes)
			for _, c := range classes {
				fmt.Fprintf(h, " %v=%x", c, math.Float64bits(e.Fractions[area][c]))
			}
			fmt.Fprintln(h)
		}
	}
}

// layerAcc accumulates the time of one layer's per-probe calls across a
// campaign; they are too short (microseconds) to span one by one.
type layerAcc struct {
	total time.Duration
	calls int64
}

func (a *layerAcc) add(since time.Time) {
	a.total += time.Since(since)
	a.calls++
}

// campaignLayers are the accumulated per-probe call sites, in span order,
// with the per-layer metric of each.
var campaignLayers = [...]struct{ scope, name, metric string }{
	{"atlas", "resolve", "atlas.resolve_us_mean"},
	{"bgp", "forward", "bgp.forward_us_mean"},
	{"atlas", "rtt", "atlas.rtt_us_mean"},
	{"atlas", "traceroute", "atlas.traceroute_us_mean"},
}

// replayCampaign is core.RunCampaign's call sequence with each per-probe
// call timed: ResolveHost per DNS mode, Forward and RTTSalted per VIP, and
// a Traceroute per distinct returned VIP. Each layer's calls are folded
// into one span per campaign inside a core/campaign span, whose self time
// is RunCampaign's own loop. TestReplayCampaignMatchesRunCampaign holds
// the Result equal to RunCampaign's. It returns the per-layer accumulators.
func replayCampaign(t *tracer, m *atlas.Measurer, auth *dnssim.Authoritative, dep *cdn.Deployment, host string, probes []*atlas.Probe, cfg core.CampaignConfig) (*core.Result, [len(campaignLayers)]layerAcc) {
	var acc [len(campaignLayers)]layerAcc
	sp := t.begin("core", "campaign")
	res := &core.Result{Deployment: dep, Host: host}
	vips := dep.VIPs()
	for _, p := range probes {
		mm := &core.Measurement{
			Probe:    p,
			Returned: make(map[atlas.DNSMode]netip.Addr, len(cfg.Modes)),
			RTT:      make(map[netip.Addr]float64, len(vips)),
			Fwd:      make(map[netip.Addr]bgp.Forward, len(vips)),
			Trace:    make(map[netip.Addr]*atlas.Trace),
		}
		for _, mode := range cfg.Modes {
			t0 := time.Now()
			a, ok := m.ResolveHost(auth, host, p, mode)
			acc[0].add(t0)
			if ok {
				mm.Returned[mode] = a
			}
		}
		for _, vip := range vips {
			region, ok := dep.RegionOfVIP(vip)
			if !ok {
				continue
			}
			t0 := time.Now()
			fwd, ok := m.Forward(p, region.Prefix)
			acc[1].add(t0)
			if !ok {
				continue
			}
			mm.Fwd[vip] = fwd
			t0 = time.Now()
			mm.RTT[vip] = m.RTTSalted(p, fwd, host)
			acc[2].add(t0)
		}
		if cfg.Traceroute {
			for _, mode := range cfg.Modes {
				vip, ok := mm.Returned[mode]
				if !ok || !vip.IsValid() {
					continue
				}
				if _, done := mm.Trace[vip]; done {
					continue
				}
				t0 := time.Now()
				tr, ok := m.Traceroute(p, vip)
				acc[3].add(t0)
				if ok {
					mm.Trace[vip] = tr
				}
			}
		}
		res.Probes = append(res.Probes, mm)
	}
	if t != nil {
		// The folded spans are laid end to end from the campaign's start;
		// only their durations carry meaning.
		at := time.Since(t.epoch)
		for i, l := range campaignLayers {
			at -= acc[i].total
			t.folded(l.scope, l.name, at, acc[i].total, acc[i].calls)
		}
	}
	sp.end()
	return res, acc
}

// traced is the traced run: half the budget on untraced campaigns (runtime
// metrics, untraced baseline), then replayed campaigns with every layer's
// calls timed.
func (cw *campaignWorkload) traced(rep *report, rc runCfg) {
	t := newTracer(rc.seed, cw.world.Hash())
	sp := t.begin(rootScope, setupName)
	w, err := cw.setup(t)
	sp.end()
	if !rep.ok(err) {
		return
	}
	a := cw.phase(rep, w, rc.seed, rc.seconds/2, 1, nil)
	if a.wall == 0 {
		return
	}

	hosts := newHostnames(rc.seed, w)
	probes := w.Platform.Retained()
	var totals [len(campaignLayers)]layerAcc
	n := 0
	t0 := time.Now()
	for n < 1 || time.Since(t0) < rc.seconds/2 {
		host := hosts.next()
		c := campaign{host: host, dep: w.DeploymentOfHostname(host), probes: probes}
		step := t.begin(rootScope, "campaign")
		res, acc := replayCampaign(t, w.Measurer, w.Auth, c.dep, c.host, c.probes, core.DefaultCampaignConfig())
		analyze(t, res)
		step.end()
		if !rep.op(checkResult(c, res)) {
			return
		}
		for i := range acc {
			totals[i].total += acc[i].total
			totals[i].calls += acc[i].calls
		}
		n++
	}

	f, err := t.fold()
	if !rep.ok(err) {
		return
	}
	rep.ok(t.write(rc.traceFile))
	f.pct(rep, "worldgen.build_s", "worldgen/build", 50, time.Second)
	for i, l := range campaignLayers {
		if c := totals[i].calls; c > 0 {
			rep.set(l.metric, float64(totals[i].total)/float64(c)/1e3, int(c), "mean per call")
		}
	}
	rep.set("core.campaign_self_ms", ms(time.Duration(f.entry["core/campaign"].SelfNs))/float64(n), n, "RunCampaign's own loop per campaign")
	f.pct(rep, "core.analyze_ms", "core/analyze", 50, time.Millisecond)
	if a.probes > 0 {
		untraced := sum(a.steps) / float64(a.probes)
		traced := ms(f.total(rootScope+"/campaign")) / float64(n*len(probes))
		rep.set("bench.trace_overhead_frac", traced/untraced-1, n, "traced ms/probe over untraced, minus 1")
	}
	f.cover(rep)
}
