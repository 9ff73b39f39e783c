package traffic

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"sync"
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
	i, ok := r.idx.siteIdx[id]
	if !ok {
		return SiteLoad{}, false
	}
	return r.Sites[i], true
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
	// Workers bounds the probe-group evaluation pool; 0 means GOMAXPROCS.
	// Reports are bit-identical at any worker count (see EvaluateOn).
	Workers int

	idx  groupIndex
	tobs evalObs
}

// groupIndex is what the evaluator resolves once per probe group instead of
// once per evaluation. The model, the deployment and the topology are
// immutable, so it never goes stale.
type groupIndex struct {
	prefixes []netip.Prefix // the deployment's distinct region prefixes
	pfx      []int32        // per group: index into prefixes, -1 when no region serves it
	byAS     [][]int32      // per dense AS index: the ranks of the groups in that AS
	siteIdx  map[string]int // site ID -> index into a report's Sites
}

// newGroupIndex resolves every group's region prefix and dense AS index.
func newGroupIndex(e *bgp.Engine, dep *cdn.Deployment, m *Model) groupIndex {
	tp := e.Topology()
	gx := groupIndex{
		pfx:     make([]int32, len(m.Groups)),
		byAS:    make([][]int32, tp.NumASes()),
		siteIdx: make(map[string]int, len(dep.Sites)),
	}
	for i, s := range dep.Sites {
		gx.siteIdx[s.ID] = i
	}
	rank := map[netip.Prefix]int32{}
	for gi, g := range m.Groups {
		gx.pfx[gi] = -1
		if region, ok := dep.RegionForCountry(g.Country); ok {
			pi, seen := rank[region.Prefix]
			if !seen {
				pi = int32(len(gx.prefixes))
				rank[region.Prefix] = pi
				gx.prefixes = append(gx.prefixes, region.Prefix)
			}
			gx.pfx[gi] = pi
		}
		if ai, ok := tp.ASIndex(g.ASN); ok {
			gx.byAS[ai] = append(gx.byAS[ai], int32(gi))
		}
	}
	return gx
}

// groupPrefix returns the regional prefix of the group of rank gi, or the
// zero prefix when no region serves its country.
func (ev *Evaluator) groupPrefix(gi int) netip.Prefix {
	if pi := ev.idx.pfx[gi]; pi >= 0 {
		return ev.idx.prefixes[pi]
	}
	return netip.Prefix{}
}

// evalObs bundles the evaluator's observability handles; the zero value is
// the disabled state. The report counter is deterministic ("sim" class);
// the chunk and report timings are wall-clock measurements and therefore
// wall-class — they stay out of the default snapshot so metric output is
// byte-identical across runs (see obs.Registry.EnableWall).
type evalObs struct {
	reports *obs.Counter   // traffic.eval.reports
	chunkNs *obs.Histogram // traffic.eval.chunk_ns (wall)
	totalNs *obs.Histogram // traffic.eval.report_ns (wall)
}

// Instrument attaches a metrics registry to the evaluator. A nil registry
// disables collection. Not synchronized with concurrent Evaluate calls.
func (ev *Evaluator) Instrument(reg *obs.Registry) {
	ev.tobs = evalObs{
		reports: reg.Counter("traffic.eval.reports"),
		chunkNs: reg.WallHistogram("traffic.eval.chunk_ns", obs.Pow2Bounds(30)),
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

// evalChunks is the fixed number of probe-group partitions Evaluate reduces
// over. The chunk count — not the worker count — defines the summation
// tree: each chunk accumulates left to right and chunks merge in index
// order, so floating-point results are bit-identical whether one worker
// processes all chunks or eight process four each.
const evalChunks = 32

// evalPartial is one chunk's contribution to a load report's sums, plus,
// on the trial path, the results of the groups the chunk re-looked-up.
type evalPartial struct {
	demand   []float64
	groups   []int
	unserved float64
	changed  []groupResult
}

// groupResult is one probe group's rank in Model.Groups and assignment.
type groupResult struct {
	group int32
	a     Assignment
}

// EvaluateOn computes the load report for one demand matrix against an
// arbitrary engine's routing state — the real engine, or a steering-trial
// fork. Probe groups are evaluated in parallel over a worker pool bounded
// by ev.Workers (GOMAXPROCS when 0); see evalChunks for why the result does
// not depend on the worker count.
func (ev *Evaluator) EvaluateOn(eng *bgp.Engine, mat Matrix) *LoadReport {
	rep, _ := ev.evaluate(eng, mat, nil)
	return rep
}

// EvaluateFrom computes the same report as EvaluateOn(eng, mat), as a delta
// against base: this evaluator's report on baseEng, an engine over the same
// topology that nothing mutates any more (a fork). Only the groups whose
// rib differs between the two engines are looked up again (see
// bgp.Engine.RibsChangedFrom); every other group keeps base's site and RTT
// and takes its rate from mat. The chunks run on the calling goroutine: a
// delta looks up too few groups to pay for the pool's handoffs. With no
// base, or a base another evaluator computed, it evaluates in full.
func (ev *Evaluator) EvaluateFrom(eng *bgp.Engine, mat Matrix, base *LoadReport, baseEng *bgp.Engine) *LoadReport {
	if base == nil || baseEng == nil || base.idx != &ev.idx {
		return ev.EvaluateOn(eng, mat)
	}
	rep, _ := ev.evaluate(eng, mat, &evalDelta{base: base, dirty: ev.changedGroups(eng, baseEng)})
	return rep
}

// evalDelta is what a delta evaluation reads besides its engine: base, the
// evaluator's full report on the base engine, and the groups whose AS
// holds a different rib for their prefix than on the base engine. A trial
// delta leaves the report's assignments unset and collects the groups it
// looked up instead (see trialReport).
type evalDelta struct {
	base  *LoadReport
	dirty []bool // by group rank
	trial bool
}

// changedGroups marks, by group rank, the groups whose AS holds a
// different rib for the group's prefix on eng than on base.
func (ev *Evaluator) changedGroups(eng, base *bgp.Engine) []bool {
	dirty := make([]bool, len(ev.Model.Groups))
	for pi, p := range ev.idx.prefixes {
		for _, ai := range eng.RibsChangedFrom(base, p) {
			for _, gi := range ev.idx.byAS[ai] {
				if ev.idx.pfx[gi] == int32(pi) {
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
	rep, parts := ev.evaluate(fork, mat, &evalDelta{base: base, dirty: ev.changedGroups(fork, parent), trial: true})
	t := &trialReport{rep: rep, base: base}
	for _, p := range parts {
		t.changed = append(t.changed, p.changed...)
	}
	return t
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
// evaluateTrial. With d nil it evaluates every group over the worker pool;
// with a delta it runs the chunks inline. It fills the report's
// assignments unless d is a trial delta, whose looked-up groups are in the
// returned chunk partials' changed lists.
func (ev *Evaluator) evaluate(eng *bgp.Engine, mat Matrix, d *evalDelta) (*LoadReport, []evalPartial) {
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
	if len(groups) == 0 {
		return rep, nil
	}
	nc := evalChunks
	if nc > len(groups) {
		nc = len(groups)
	}
	// The partials' sums share two backing arrays: one allocation each per
	// evaluation instead of two per chunk.
	ns := len(rep.Sites)
	demand, counts := make([]float64, nc*ns), make([]int, nc*ns)
	parts := make([]evalPartial, nc)
	chunk := func(ci int) {
		var c0 time.Time
		if ev.tobs.chunkNs != nil {
			c0 = time.Now()
		}
		p := &parts[ci]
		p.demand, p.groups = demand[ci*ns:(ci+1)*ns], counts[ci*ns:(ci+1)*ns]
		ev.evalChunk(eng, mat, ci*len(groups)/nc, (ci+1)*len(groups)/nc, rep, d, p)
		if ev.tobs.chunkNs != nil {
			ev.tobs.chunkNs.Observe(time.Since(c0).Nanoseconds())
		}
	}
	workers := ev.Workers
	if d != nil {
		workers = 1
	}
	forEach(workers, nc, chunk)
	// Merge partials in chunk order — the deterministic reduction.
	for _, p := range parts {
		for i := range rep.Sites {
			rep.Sites[i].Demand += p.demand[i]
			rep.Sites[i].Groups += p.groups[i]
		}
		rep.Unserved += p.unserved
	}
	if ev.tobs.totalNs != nil {
		ev.tobs.totalNs.Observe(time.Since(t0).Nanoseconds())
	}
	return rep, parts
}

// forEach calls fn(0), …, fn(n-1) over a pool of at most workers
// goroutines (GOMAXPROCS when workers <= 0), inline when the pool would be
// a single worker. Callers write results by index, so nothing they produce
// depends on scheduling.
func forEach(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// evalChunk accumulates the probe groups of ranks [lo, hi) into p, left to
// right. Without a delta it looks every group up. With one, a group d does
// not mark keeps its base result where that needs no lookup (see keep),
// and every other group is looked up; on a trial, those results are
// recorded in p. Unless d is a trial, every group's assignment goes in rep.
func (ev *Evaluator) evalChunk(eng *bgp.Engine, mat Matrix, lo, hi int, rep *LoadReport, d *evalDelta, p *evalPartial) {
	for gi := lo; gi < hi; gi++ {
		a, kept := Assignment{}, false
		if d != nil && !d.dirty[gi] {
			a, kept = d.keep(gi, mat.rates[gi])
		}
		if !kept {
			a = ev.evalGroup(eng, mat, gi)
			if d != nil && d.trial {
				p.changed = append(p.changed, groupResult{group: int32(gi), a: a})
			}
		}
		if rep.Assignments != nil {
			rep.Assignments[gi] = a
		}
		switch {
		case a.Site >= 0:
			p.demand[a.Site] += a.Rate
			p.groups[a.Site]++
		case a.Site == rankUnserved:
			p.unserved += mat.rates[gi]
		}
	}
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

// evalGroup looks up where the group of rank gi sends its demand on eng:
// its site rank and, for a served group, its rate and RTT; rankIdle or
// rankUnserved for a group no site serves.
func (ev *Evaluator) evalGroup(eng *bgp.Engine, mat Matrix, gi int) Assignment {
	g := &ev.Model.Groups[gi]
	rate := mat.rates[gi]
	if rate == 0 {
		return Assignment{Site: rankIdle}
	}
	pi := ev.idx.pfx[gi]
	if pi < 0 {
		return Assignment{Site: rankUnserved}
	}
	site, distKm, ok := eng.LookupSite(ev.idx.prefixes[pi], g.ASN, g.City)
	if !ok {
		return Assignment{Site: rankUnserved}
	}
	i, ok := ev.idx.siteIdx[site]
	if !ok {
		// A cross-announced site outside the deployment's static site
		// list cannot happen (sites are deployment-wide), so this is a
		// consistency bug worth failing loudly on.
		panic(fmt.Sprintf("traffic: catchment site %q not in deployment %s", site, ev.Dep.Name))
	}
	return Assignment{Site: int32(i), Rate: rate, RTTMs: geo.FiberRTTMs(distKm * rttInflation)}
}
