package traffic

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sort"
	"time"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/geo"
	"anysim/internal/obs"
)

// CapacityConfig derives per-site serving capacity. A site is provisioned
// for Headroom times its peak baseline catchment demand (operators build
// sites out to the worst diurnal hour they observe), with a floor
// apportioned by the site's Table-1 tier so thin-catchment sites still
// have the build-out their tier implies — those floors are what
// cross-announcement taps.
type CapacityConfig struct {
	// Headroom scales each site's capacity over its peak-bucket baseline
	// demand. Default 2.0: every site rides out its own diurnal peak at
	// half utilization; a regional flash crowd does not fit.
	Headroom float64
	// TierWeight apportions the tier floors across sites. Defaults:
	// hub 4, metro 2, edge 1.
	TierWeight map[cdn.SiteTier]float64
	// FloorFrac sizes the tier floors: they sum to FloorFrac times the
	// model's day-mean aggregate rate. Default 0.3.
	FloorFrac float64
	// SoftUtil is the utilization where queueing delay becomes visible.
	// Default 0.75.
	SoftUtil float64
}

func (c CapacityConfig) withDefaults() CapacityConfig {
	if c.Headroom == 0 {
		c.Headroom = 2.0
	}
	if c.TierWeight == nil {
		c.TierWeight = map[cdn.SiteTier]float64{
			cdn.TierHubSite:   4,
			cdn.TierMetroSite: 2,
			cdn.TierEdgeSite:  1,
		}
	}
	if c.FloorFrac == 0 {
		c.FloorFrac = 0.3
	}
	if c.SoftUtil == 0 {
		c.SoftUtil = 0.75
	}
	return c
}

// kneePenaltyMs is the excess latency at exactly full utilization.
const kneePenaltyMs = 40

// PenaltyMs converts a site's utilization into the excess serving latency
// its clients see: zero below softUtil, a convex rise to kneePenaltyMs at
// u=1 (queueing), then a linear blow-up beyond capacity (drops/retries).
func PenaltyMs(u, softUtil float64) float64 {
	switch {
	case u <= softUtil:
		return 0
	case u <= 1:
		x := (u - softUtil) / (1 - softUtil)
		return kneePenaltyMs * x * x
	default:
		return kneePenaltyMs + 200*(u-1)
	}
}

// SiteLoad is one site's load state in a bucket.
type SiteLoad struct {
	Site     string
	City     string
	Tier     cdn.SiteTier
	Capacity float64
	Demand   float64
	Groups   int // probe groups in the site's catchment
}

// Utilization returns demand over capacity.
func (s SiteLoad) Utilization() float64 {
	if s.Capacity == 0 {
		return math.Inf(1)
	}
	return s.Demand / s.Capacity
}

// Overloaded reports whether demand exceeds capacity.
func (s SiteLoad) Overloaded() bool { return s.Demand > s.Capacity }

// Assignment records where one probe group's demand lands, without a
// pointer: its site is a rank into LoadReport.Sites, negative (rankIdle or
// rankUnserved) when no site serves the group.
type Assignment struct {
	Site  int32
	Rate  float64 // 0 unless a site serves the group
	RTTMs float64 // propagation RTT to the site, excluding load penalty
}

// LoadReport is the catchment × demand product for one matrix.
type LoadReport struct {
	Bucket int
	Sites  []SiteLoad // in Deployment.Sites order
	// Assignments holds where each probe group's demand went, indexed by
	// the group's rank in Model.Groups. A negative Site marks a group with
	// no demand or no route.
	Assignments []Assignment
	// Unserved is demand from groups with no route to their prefix.
	Unserved float64

	// idx is the group index of the evaluator that computed the report.
	idx *groupIndex
}

// Site ranks (Assignment.Site) of groups no site serves.
const (
	rankIdle     int32 = -1 // no demand in the matrix
	rankUnserved int32 = -2 // demand, but no region or no route
)

// SiteLoadByID returns one site's load.
func (r *LoadReport) SiteLoadByID(id string) (SiteLoad, bool) {
	for _, s := range r.Sites {
		if s.Site == id {
			return s, true
		}
	}
	return SiteLoad{}, false
}

// Overloads returns the overloaded sites, worst utilization first.
func (r *LoadReport) Overloads() []SiteLoad {
	var out []SiteLoad
	for _, s := range r.Sites {
		if s.Overloaded() {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ui, uj := out[i].Utilization(), out[j].Utilization()
		if ui != uj {
			return ui > uj
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// MaxUtilization returns the worst site utilization.
func (r *LoadReport) MaxUtilization() float64 {
	max := 0.0
	for _, s := range r.Sites {
		if u := s.Utilization(); u > max {
			max = u
		}
	}
	return max
}

// EffectiveRTTMs returns the served latency of the group at rank i in
// Model.Groups: propagation plus the load penalty of its serving site.
// Unserved groups get +Inf.
func (r *LoadReport) EffectiveRTTMs(i int, softUtil float64) float64 {
	a := r.Assignments[i]
	if a.Site < 0 {
		return math.Inf(1)
	}
	return a.RTTMs + PenaltyMs(r.Sites[a.Site].Utilization(), softUtil)
}

// Evaluator computes load reports: it resolves each probe group to its
// regional prefix, asks the BGP engine for the group's catchment site, and
// accumulates the demand matrix onto sites.
type Evaluator struct {
	Engine *bgp.Engine
	Dep    *cdn.Deployment
	Model  *Model
	cfg    CapacityConfig
	// Caps is the derived per-site capacity.
	Caps map[string]float64

	idx  groupIndex
	tobs evalObs
}

// groupIndex is what the evaluator resolves once per probe group instead of
// once per evaluation. The model, the deployment and the topology are
// immutable, so it never goes stale.
type groupIndex struct {
	prefixes []netip.Prefix // the deployment's distinct region prefixes
	groups   []groupRef     // by group rank
	byAS     [][]int32      // per dense AS index: the ranks of the groups in that AS
	// siteRank maps a site's bgp.Symbol to its rank in the deployment's
	// Sites, and so in a report's; -1 for a name outside the deployment.
	siteRank []int32
}

// groupRef is what a lookup reads of one probe group: its table and the
// rib read's coordinates.
type groupRef struct {
	pfx  int32 // index into prefixes, -1 when no region serves the group
	as   int32 // dense AS index, -1 when the topology lacks the AS
	city geo.CityID
}

// newGroupIndex resolves every group's region prefix, dense AS index and
// city id, and every deployment site's symbol.
func newGroupIndex(e *bgp.Engine, dep *cdn.Deployment, m *Model) groupIndex {
	tp := e.Topology()
	gx := groupIndex{
		groups: make([]groupRef, len(m.Groups)),
		byAS:   make([][]int32, tp.NumASes()),
	}
	for i, s := range dep.Sites {
		sym := int(bgp.Intern(s.ID))
		for len(gx.siteRank) <= sym {
			gx.siteRank = append(gx.siteRank, -1)
		}
		gx.siteRank[sym] = int32(i)
	}
	rank := map[netip.Prefix]int32{}
	for gi, g := range m.Groups {
		ref := groupRef{pfx: -1, as: -1}
		if region, ok := dep.RegionForCountry(g.Country); ok {
			pi, seen := rank[region.Prefix]
			if !seen {
				pi = int32(len(gx.prefixes))
				rank[region.Prefix] = pi
				gx.prefixes = append(gx.prefixes, region.Prefix)
			}
			ref.pfx = pi
		}
		if ai, ok := tp.ASIndex(g.ASN); ok {
			ref.as = int32(ai)
			gx.byAS[ai] = append(gx.byAS[ai], int32(gi))
		}
		ref.city, _ = geo.CityIDOf(g.City) // NewModel admits only known cities
		gx.groups[gi] = ref
	}
	return gx
}

// groupPrefix returns the regional prefix of the group of rank gi, or the
// zero prefix when no region serves its country.
func (ev *Evaluator) groupPrefix(gi int) netip.Prefix {
	if pi := ev.idx.groups[gi].pfx; pi >= 0 {
		return ev.idx.prefixes[pi]
	}
	return netip.Prefix{}
}

// evalObs bundles the evaluator's observability handles; the zero value is
// the disabled state. The report counter is deterministic ("sim" class);
// the report timing is a wall-clock measurement and therefore wall-class —
// it stays out of the default snapshot so metric output is byte-identical
// across runs (see obs.Registry.EnableWall).
type evalObs struct {
	reports *obs.Counter   // traffic.eval.reports
	totalNs *obs.Histogram // traffic.eval.report_ns (wall)
}

// Instrument attaches a metrics registry to the evaluator. A nil registry
// disables collection. Not synchronized with concurrent Evaluate calls.
func (ev *Evaluator) Instrument(reg *obs.Registry) {
	ev.tobs = evalObs{
		reports: reg.Counter("traffic.eval.reports"),
		totalNs: reg.WallHistogram("traffic.eval.report_ns", obs.Pow2Bounds(34)),
	}
}

// rttInflation is the measurement model's great-circle-to-fiber path
// stretch, read from its default so the stretch is set in one place.
var rttInflation = atlas.DefaultLatencyModel().Inflation

// NewEvaluator derives site capacities against the engine's current
// (baseline) routing state and returns an evaluator: each site gets
// Headroom times its peak-bucket baseline demand, floored by its tier
// share. Build the evaluator before steering or faults perturb the
// catchments.
func NewEvaluator(e *bgp.Engine, dep *cdn.Deployment, m *Model, cfg CapacityConfig) *Evaluator {
	cfg = cfg.withDefaults()
	ev := &Evaluator{Engine: e, Dep: dep, Model: m, cfg: cfg, Caps: map[string]float64{}, idx: newGroupIndex(e, dep, m)}

	// Peak baseline demand per site over the day, under current routing.
	peak := map[string]float64{}
	for b := 0; b < m.Buckets(); b++ {
		rep := ev.Evaluate(m.Matrix(b))
		for _, s := range rep.Sites {
			if s.Demand > peak[s.Site] {
				peak[s.Site] = s.Demand
			}
		}
	}
	sumW := 0.0
	for _, s := range dep.Sites {
		sumW += cfg.TierWeight[s.Tier()]
	}
	floorTotal := cfg.FloorFrac * m.TotalBase()
	for _, s := range dep.Sites {
		c := cfg.Headroom * peak[s.ID]
		if floor := floorTotal * cfg.TierWeight[s.Tier()] / sumW; c < floor {
			c = floor
		}
		ev.Caps[s.ID] = c
	}
	return ev
}

// NewEvaluatorWithCaps returns an evaluator that uses externally supplied
// per-site capacities instead of deriving them from the baseline diurnal
// peak. This is the checkpoint-restore path of `anysim serve`: capacities
// were derived once against the original baseline routing and must survive
// a restart bit-identically, even though the restored engine's current
// routing state is no longer that baseline.
func NewEvaluatorWithCaps(e *bgp.Engine, dep *cdn.Deployment, m *Model, cfg CapacityConfig, caps map[string]float64) *Evaluator {
	cfg = cfg.withDefaults()
	cp := make(map[string]float64, len(caps))
	for site, c := range caps {
		cp[site] = c
	}
	return &Evaluator{Engine: e, Dep: dep, Model: m, cfg: cfg, Caps: cp, idx: newGroupIndex(e, dep, m)}
}

// Config returns the capacity configuration in effect.
func (ev *Evaluator) Config() CapacityConfig { return ev.cfg }

// Evaluate computes the load report for one demand matrix against the
// engine's current routing state.
func (ev *Evaluator) Evaluate(mat Matrix) *LoadReport {
	return ev.EvaluateOn(ev.Engine, mat)
}

// evalChunks is the fixed number of probe-group ranges a report's float
// sums reduce over: each range sums its groups left to right, and the
// ranges' sums are then added in range order. A flat sum would move the
// sums' last bits, and with them steering decisions and the archived
// results.
const evalChunks = 32

// groupResult is one probe group's rank in Model.Groups and assignment.
type groupResult struct {
	group int32
	a     Assignment
}

// EvaluateOn computes the load report for one demand matrix against an
// arbitrary engine's routing state — the real engine, or a steering-trial
// fork.
func (ev *Evaluator) EvaluateOn(eng *bgp.Engine, mat Matrix) *LoadReport {
	return ev.evaluate(eng, mat, nil)
}

// EvaluateFrom computes the same report as EvaluateOn(eng, mat), as a delta
// against base: this evaluator's report on baseEng, an engine over the same
// topology that nothing mutates any more (a fork). Only the groups whose
// rib differs between the two engines are looked up again (see
// bgp.Engine.RibsChangedFrom); every other group keeps base's site and RTT
// and takes its rate from mat. With no base, or a base another evaluator
// computed, it evaluates in full.
func (ev *Evaluator) EvaluateFrom(eng *bgp.Engine, mat Matrix, base *LoadReport, baseEng *bgp.Engine) *LoadReport {
	if base == nil || baseEng == nil || base.idx != &ev.idx {
		return ev.EvaluateOn(eng, mat)
	}
	return ev.evaluate(eng, mat, &evalDelta{base: base, dirty: ev.changedGroups(eng, baseEng)})
}

// evalDelta is what a delta evaluation reads besides its engine: base, the
// evaluator's full report on the base engine, and the groups whose AS
// holds a different rib for their prefix than on the base engine. A trial
// delta leaves the report's assignments unset and collects the groups it
// looked up in changed instead, in rank order (see trialReport).
type evalDelta struct {
	base    *LoadReport
	dirty   []bool // by group rank
	trial   bool
	changed []groupResult
}

// changedGroups marks, by group rank, the groups whose AS holds a
// different rib for the group's prefix on eng than on base.
func (ev *Evaluator) changedGroups(eng, base *bgp.Engine) []bool {
	dirty := make([]bool, len(ev.Model.Groups))
	for pi, p := range ev.idx.prefixes {
		for _, ai := range eng.RibsChangedFrom(base, p) {
			for _, gi := range ev.idx.byAS[ai] {
				if ev.idx.groups[gi].pfx == int32(pi) {
					dirty[gi] = true
				}
			}
		}
	}
	return dirty
}

// trialReport is a steering trial's load report kept as a delta: the site
// sums and unserved demand in rep, whose Assignments stay nil, and the
// groups the trial re-looked-up, in rank order. Only a committed trial pays
// for the full report (see materialise).
type trialReport struct {
	rep     *LoadReport
	base    *LoadReport
	changed []groupResult
}

// evaluateTrial computes the load report of a steering trial: mat on fork,
// a fork of parent, whose report on mat is base. It is EvaluateFrom's
// delta, kept as a delta until materialised: on base's own matrix, every
// group the trial does not look up again holds base's assignment.
func (ev *Evaluator) evaluateTrial(fork, parent *bgp.Engine, base *LoadReport, mat Matrix) *trialReport {
	d := &evalDelta{base: base, dirty: ev.changedGroups(fork, parent), trial: true}
	rep := ev.evaluate(fork, mat, d)
	return &trialReport{rep: rep, base: base, changed: d.changed}
}

// materialise returns the trial's full load report: the base report's
// assignments with the re-looked-up groups' results written over them.
func (t *trialReport) materialise() *LoadReport {
	t.rep.Assignments = slices.Clone(t.base.Assignments)
	for _, c := range t.changed {
		t.rep.Assignments[c.group] = c.a
	}
	return t.rep
}

// evaluate is the one evaluation loop behind EvaluateOn, EvaluateFrom and
// evaluateTrial. Without a delta it looks every group up. With one, a group
// d does not mark keeps its base result where that needs no lookup (see
// keep), and every other group is looked up; on a trial, those results are
// appended to d.changed. Unless d is a trial, every group's assignment
// goes in the report. The sums follow evalChunks' tree.
func (ev *Evaluator) evaluate(eng *bgp.Engine, mat Matrix, d *evalDelta) *LoadReport {
	groups := ev.Model.Groups
	if len(mat.rates) != len(groups) {
		panic(fmt.Sprintf("traffic: a matrix of %d groups for a model of %d", len(mat.rates), len(groups)))
	}
	ev.tobs.reports.Inc()
	var t0 time.Time
	if ev.tobs.totalNs != nil {
		t0 = time.Now()
	}
	rep := &LoadReport{Bucket: mat.Bucket, idx: &ev.idx}
	if d == nil || !d.trial {
		rep.Assignments = make([]Assignment, len(groups))
	}
	rep.Sites = make([]SiteLoad, len(ev.Dep.Sites))
	for i, s := range ev.Dep.Sites {
		rep.Sites[i] = SiteLoad{
			Site:     s.ID,
			City:     s.City,
			Tier:     s.Tier(),
			Capacity: ev.Caps[s.ID],
		}
	}
	// One table per region prefix, in a stack array while a deployment has
	// at most 8: every lookup of the call reads the engine state these
	// were taken from.
	var buf [8]bgp.Table
	tabs := buf[:0]
	for _, p := range ev.idx.prefixes {
		tabs = append(tabs, eng.Table(p))
	}
	n, nc := len(groups), min(evalChunks, len(groups))
	demand := make([]float64, len(rep.Sites)) // one range's per-site sums
	for ci := 0; ci < nc; ci++ {
		clear(demand)
		unserved := 0.0
		for gi := ci * n / nc; gi < (ci+1)*n/nc; gi++ {
			a, kept := Assignment{}, false
			if d != nil && !d.dirty[gi] {
				a, kept = d.keep(gi, mat.rates[gi])
			}
			if !kept {
				a = ev.evalGroup(tabs, mat, gi)
				if d != nil && d.trial {
					d.changed = append(d.changed, groupResult{group: int32(gi), a: a})
				}
			}
			if rep.Assignments != nil {
				rep.Assignments[gi] = a
			}
			switch {
			case a.Site >= 0:
				demand[a.Site] += a.Rate
				rep.Sites[a.Site].Groups++
			case a.Site == rankUnserved:
				unserved += mat.rates[gi]
			}
		}
		for i := range rep.Sites {
			rep.Sites[i].Demand += demand[i]
		}
		rep.Unserved += unserved
	}
	if ev.tobs.totalNs != nil {
		ev.tobs.totalNs.Observe(time.Since(t0).Nanoseconds())
	}
	return rep
}

// keep returns, without a lookup, the assignment at its new rate of the
// group of rank gi, whose rib the delta left unchanged: idle at rate 0,
// else the base's site and RTT. It reports false for a group the base left
// idle or unserved, since the base holds no site for those.
func (d *evalDelta) keep(gi int, rate float64) (Assignment, bool) {
	if rate == 0 {
		return Assignment{Site: rankIdle}, true
	}
	a := d.base.Assignments[gi]
	if a.Site < 0 {
		return Assignment{}, false
	}
	a.Rate = rate
	return a, true
}

// evalGroup looks up where the group of rank gi sends its demand in tabs,
// the tables of the index's prefixes: its site rank and, for a served
// group, its rate and RTT; rankIdle or rankUnserved for a group no site
// serves.
func (ev *Evaluator) evalGroup(tabs []bgp.Table, mat Matrix, gi int) Assignment {
	rate := mat.rates[gi]
	if rate == 0 {
		return Assignment{Site: rankIdle}
	}
	g := ev.idx.groups[gi]
	if g.pfx < 0 || g.as < 0 {
		return Assignment{Site: rankUnserved}
	}
	r, _, distKm, ok := tabs[g.pfx].Route(int(g.as), g.city)
	if !ok {
		return Assignment{Site: rankUnserved}
	}
	sym := int(r.SiteSymbol())
	if sym >= len(ev.idx.siteRank) || ev.idx.siteRank[sym] < 0 {
		// A cross-announced site outside the deployment's static site
		// list cannot happen (sites are deployment-wide), so this is a
		// consistency bug worth failing loudly on.
		panic(fmt.Sprintf("traffic: catchment site %q not in deployment %s", r.Site(), ev.Dep.Name))
	}
	return Assignment{Site: ev.idx.siteRank[sym], Rate: rate, RTTMs: geo.FiberRTTMs(distKm * rttInflation)}
}
