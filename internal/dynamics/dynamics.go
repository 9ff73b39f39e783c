// Package dynamics turns the simulator's one-shot routing snapshot into a
// timeline of routing events. The paper (§5–§6) evaluates regional anycast
// statically, but its operational-viability question hinges on behaviour
// under churn: regional deployments have fewer fallback sites per prefix
// than a global one, so a site outage or link failure moves (or strands)
// more of a prefix's catchment. This package provides the event model —
// site withdrawal/restore, single-link failure/repair, IXP outage, per-site
// re-announcement — a scenario DSL and seeded generator for schedules of
// such events, and the catchment snapshot/diff machinery the churn,
// failover-penalty, and blast-radius analyses are built on. Events are
// applied through the BGP engine's incremental reconvergence API, so a
// step costs work proportional to the event's blast radius, not to the
// size of the Internet.
package dynamics

import (
	"fmt"
	"maps"
	"net/netip"
	"sort"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/geo"
	"anysim/internal/glass"
	"anysim/internal/obs"
	"anysim/internal/obs/ts"
	"anysim/internal/topo"
	"anysim/internal/traffic"
)

// Kind enumerates routing event types.
type Kind int

const (
	// SiteDown withdraws a site's announcements from every prefix it
	// originates.
	SiteDown Kind = iota
	// SiteUp restores a previously withdrawn site.
	SiteUp
	// LinkDown fails a single inter-AS link.
	LinkDown
	// LinkUp repairs a failed link.
	LinkUp
	// IXPDown fails every peering link of one IXP (a facility outage).
	IXPDown
	// IXPUp repairs an IXP.
	IXPUp
	// Reannounce withdraws and immediately re-announces a site's prefixes
	// (a maintenance flap); routing returns to the pre-event state.
	Reannounce
	// FlashBegin starts a flash crowd: demand in one paper area scales by
	// Factor. Routing is untouched; internal/traffic reads the runner's
	// active flash state when evaluating load.
	FlashBegin
	// FlashEnd ends the flash crowd in an area.
	FlashEnd
)

var kindNames = map[Kind]string{
	SiteDown:   "site-down",
	SiteUp:     "site-up",
	LinkDown:   "link-down",
	LinkUp:     "link-up",
	IXPDown:    "ixp-down",
	IXPUp:      "ixp-up",
	Reannounce: "reannounce",
	FlashBegin: "flash-begin",
	FlashEnd:   "flash-end",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one routing event at a virtual tick. Exactly the fields the
// Kind needs are set: Site for site events and re-announcements, A/B for
// link events, IXP for IXP events, Area (and Factor for FlashBegin) for
// flash-crowd events.
type Event struct {
	At     int
	Kind   Kind
	Site   string
	A, B   topo.ASN
	IXP    string
	Area   geo.Area
	Factor float64
}

func (ev Event) String() string {
	switch ev.Kind {
	case LinkDown, LinkUp:
		return fmt.Sprintf("at %d %s %d %d", ev.At, ev.Kind, ev.A, ev.B)
	case IXPDown, IXPUp:
		return fmt.Sprintf("at %d %s %s", ev.At, ev.Kind, ev.IXP)
	case FlashBegin:
		return fmt.Sprintf("at %d %s %s %g", ev.At, ev.Kind, ev.Area, ev.Factor)
	case FlashEnd:
		return fmt.Sprintf("at %d %s %s", ev.At, ev.Kind, ev.Area)
	default:
		return fmt.Sprintf("at %d %s %s", ev.At, ev.Kind, ev.Site)
	}
}

// Scenario is a named, time-ordered event schedule.
type Scenario struct {
	Name   string
	Events []Event
}

// sorted returns the events in application order: by tick, declaration
// order within a tick.
func (s *Scenario) sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Snapshot is the per-AS serving site for each of a deployment's prefixes
// at one instant.
type Snapshot map[netip.Prefix]map[topo.ASN]string

// Runner applies events for one deployment against a BGP engine. The
// deployment's resolved announcement plan is captured at construction so
// withdrawn sites are restored with their exact original announcements
// (including OnlyNeighbors allowlists).
type Runner struct {
	Engine *bgp.Engine
	Dep    *cdn.Deployment

	// Measurer and Probes enable the probe-level analyses (ProbeViews);
	// nil/empty leaves the AS-level machinery fully functional.
	Measurer *atlas.Measurer
	Probes   []*atlas.Probe

	// ExplainMoves enables classified churn reports: every Run step then
	// carries a glass.DiffReport attributing a provenance-backed cause to
	// each moved probe group, and per-move events are emitted on the trace.
	// Requires Measurer/Probes and an engine with provenance recording on;
	// Run fails fast otherwise rather than silently skipping the analysis.
	ExplainMoves bool

	// Series, when set, turns a scenario run into a flight recording: every
	// Run step samples reconvergence cost, catchment churn, and the full
	// load plane (see Load) into the tick-keyed ring buffers and evaluates
	// the recorder's SLO rules, so experiments get trajectory verdicts from
	// the same plane the live server exposes. Run with Series requires
	// Eval, whose Model supplies the demand. Run is serial, so the
	// recording is deterministic.
	Series *ts.DB
	Eval   *traffic.Evaluator

	prefixes []netip.Prefix                                   // sorted deployment prefixes
	siteAnns map[string]map[netip.Prefix]bgp.SiteAnnouncement // site ID -> prefix -> announcement
	flash    map[geo.Area]float64                             // active flash-crowd factors

	// baseEng and baseRep are the last Load's engine and report, the base
	// of the next Load's delta evaluation (traffic.Evaluator.EvaluateFrom).
	baseEng *bgp.Engine
	baseRep *traffic.LoadReport

	dobs runnerObs
}

// runnerObs bundles the runner's observability handles; the zero value is
// the disabled state. Run is serial, so every handle (and the tracer) sees
// deterministic values in deterministic order.
type runnerObs struct {
	steps  *obs.Counter   // dynamics.steps
	dirty  *obs.Histogram // dynamics.step.dirty (reconverged ASes per step)
	passes *obs.Histogram // dynamics.step.passes
	moved  *obs.Histogram // dynamics.step.moved (catchment pairs that changed site)
	lost   *obs.Histogram // dynamics.step.lost

	// Span site for one scenario step; reg carries the wall gate.
	reg    *obs.Registry
	stepTm obs.SpanTimer // dynamics.step

	tracer *obs.Tracer
	seq    int64 // steps applied across all Run calls (the scenario clock)
}

// spanActive reports whether step spans record anything on this runner.
func (r *Runner) spanActive() bool {
	return r.dobs.tracer.Enabled() || r.dobs.reg.WallEnabled()
}

// Instrument attaches a metrics registry and tracer to the runner. Either
// may be nil. Call before Run; not synchronized with a concurrent Run.
func (r *Runner) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	r.dobs = runnerObs{
		steps:  reg.Counter("dynamics.steps"),
		dirty:  reg.Histogram("dynamics.step.dirty", obs.Pow2Bounds(20)),
		passes: reg.Histogram("dynamics.step.passes", obs.Pow2Bounds(6)),
		moved:  reg.Histogram("dynamics.step.moved", obs.Pow2Bounds(20)),
		lost:   reg.Histogram("dynamics.step.lost", obs.Pow2Bounds(20)),
		reg:    reg,
		stepTm: reg.SpanTimer("dynamics.step"),
		tracer: tr,
		seq:    r.dobs.seq,
	}
}

// NewRunner captures the deployment's announcement plan. The deployment is
// assumed to be announced on the engine already (Deployment.Announce).
func NewRunner(e *bgp.Engine, dep *cdn.Deployment) *Runner {
	r := &Runner{Engine: e, Dep: dep, siteAnns: map[string]map[netip.Prefix]bgp.SiteAnnouncement{}, flash: map[geo.Area]float64{}}
	plan := dep.ResolvedAnnouncements(e.Topology())
	for prefix, anns := range plan {
		r.prefixes = append(r.prefixes, prefix)
		for _, a := range anns {
			m := r.siteAnns[a.Site]
			if m == nil {
				m = map[netip.Prefix]bgp.SiteAnnouncement{}
				r.siteAnns[a.Site] = m
			}
			m[prefix] = a
		}
	}
	sort.Slice(r.prefixes, func(i, j int) bool { return r.prefixes[i].String() < r.prefixes[j].String() })
	return r
}

// Prefixes returns the deployment's announced prefixes in sorted order.
func (r *Runner) Prefixes() []netip.Prefix { return r.prefixes }

// sitePrefixes returns the prefixes a site announces, in sorted order.
func (r *Runner) sitePrefixes(site string) []netip.Prefix {
	m := r.siteAnns[site]
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Apply executes one event against the engine and topology: a batch of
// one (see ApplyBatch).
func (r *Runner) Apply(ev Event) error {
	_, err := r.ApplyBatch([]Event{ev})
	return err
}

// ApplyBatch executes a batch of events as one routing change and returns
// its reconvergence work (zero for flash crowds alone, which leave routing
// untouched). Every event is checked, in order, against the state the
// events before it leave, by the rules of one-at-a-time application; a bad
// event fails the batch with nothing applied. The engine then reconverges
// the batch's net change once (bgp.Engine.ApplyBatch), so a fault opened
// and repaired inside the batch costs nothing. Routing, announcement order,
// link states and flash crowds end as applying the events one at a time
// leaves them.
func (r *Runner) ApplyBatch(evs []Event) (bgp.ReconvergeStats, error) {
	b := r.Engine.NewBatch()
	flash := maps.Clone(r.flash)
	routing := false
	for _, ev := range evs {
		if err := r.stage(b, flash, ev); err != nil {
			return bgp.ReconvergeStats{}, err
		}
		routing = routing || ev.Kind != FlashBegin && ev.Kind != FlashEnd
	}
	var st bgp.ReconvergeStats
	if routing {
		if err := r.Engine.ApplyBatch(b); err != nil {
			return st, err
		}
		st = r.Engine.LastReconvergeStats()
	}
	r.flash = flash
	return st, nil
}

// stage checks one event and stages its change: routing changes on b,
// flash crowds on flash.
func (r *Runner) stage(b *bgp.Batch, flash map[geo.Area]float64, ev Event) error {
	tp := r.Engine.Topology()
	switch ev.Kind {
	case SiteDown:
		return r.siteDown(b, ev.Site)
	case SiteUp:
		return r.siteUp(b, ev.Site)
	case Reannounce:
		if err := r.siteDown(b, ev.Site); err != nil {
			return err
		}
		return r.siteUp(b, ev.Site)
	case LinkDown, LinkUp:
		li, ok := tp.LinkIndexBetween(ev.A, ev.B)
		if !ok {
			return fmt.Errorf("dynamics: no link between %d and %d", ev.A, ev.B)
		}
		return b.SetLink(li, ev.Kind == LinkUp)
	case FlashBegin:
		if ev.Factor <= 0 {
			return fmt.Errorf("dynamics: flash-begin %s with non-positive factor %g", ev.Area, ev.Factor)
		}
		flash[ev.Area] = ev.Factor
		return nil
	case FlashEnd:
		if _, ok := flash[ev.Area]; !ok {
			return fmt.Errorf("dynamics: flash-end %s with no active flash crowd", ev.Area)
		}
		delete(flash, ev.Area)
		return nil
	case IXPDown, IXPUp:
		lis := tp.LinksOfIXP(ev.IXP)
		if len(lis) == 0 {
			return fmt.Errorf("dynamics: IXP %q has no links", ev.IXP)
		}
		for _, li := range lis {
			if err := b.SetLink(li, ev.Kind == IXPUp); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("dynamics: unknown event kind %v", ev.Kind)
	}
}

func (r *Runner) siteDown(b *bgp.Batch, site string) error {
	if _, ok := r.siteAnns[site]; !ok {
		return fmt.Errorf("dynamics: deployment %s has no site %q", r.Dep.Name, site)
	}
	for _, p := range r.sitePrefixes(site) {
		if err := b.WithdrawSite(p, site); err != nil {
			return fmt.Errorf("dynamics: site-down %s: %w", site, err)
		}
	}
	return nil
}

func (r *Runner) siteUp(b *bgp.Batch, site string) error {
	anns, ok := r.siteAnns[site]
	if !ok {
		return fmt.Errorf("dynamics: deployment %s has no site %q", r.Dep.Name, site)
	}
	for _, p := range r.sitePrefixes(site) {
		if err := b.AnnounceSite(p, anns[p]); err != nil {
			return fmt.Errorf("dynamics: site-up %s: %w", site, err)
		}
	}
	return nil
}

// ActiveFlash returns the in-effect flash-crowd demand factors per area.
// The returned map is a copy.
func (r *Runner) ActiveFlash() map[geo.Area]float64 {
	out := make(map[geo.Area]float64, len(r.flash))
	for a, f := range r.flash {
		out[a] = f
	}
	return out
}

// Snapshot captures the per-AS catchment of every deployment prefix.
func (r *Runner) Snapshot() Snapshot {
	out := make(Snapshot, len(r.prefixes))
	for _, p := range r.prefixes {
		out[p] = r.Engine.Catchments(p)
	}
	return out
}

// Step is the outcome of applying one event.
type Step struct {
	Event Event
	// Churn aggregates per-AS catchment changes across all prefixes.
	Churn ChurnStats
	// Stats reports the event's reconvergence work, summed over the
	// prefixes it touched (see Runner.ApplyBatch).
	Stats bgp.ReconvergeStats
	// Moves is the classified probe-group churn report of this step (nil
	// unless the runner's ExplainMoves mode is on).
	Moves *glass.DiffReport
}

// Run applies a scenario in time order, diffing catchments around every
// event. The returned steps are in application order.
func (r *Runner) Run(sc *Scenario) ([]Step, error) {
	if r.Series != nil && r.Eval == nil {
		return nil, fmt.Errorf("dynamics: Series requires Eval")
	}
	explain := r.ExplainMoves
	if explain {
		if r.Measurer == nil || len(r.Probes) == 0 {
			return nil, fmt.Errorf("dynamics: ExplainMoves requires Measurer and Probes")
		}
		if !r.Engine.ProvenanceEnabled() {
			return nil, fmt.Errorf("dynamics: ExplainMoves requires an engine with provenance recording on (bgp.EngineConfig.Provenance)")
		}
	}
	steps := make([]Step, 0, len(sc.Events))
	pre := r.Snapshot()
	var groups *atlas.GroupTable
	var preCap glass.CatchmentSet
	if explain {
		var err error
		groups = atlas.GroupProbes(r.Probes)
		if preCap, err = glass.CaptureFrom(r.Engine, r.Dep, r.Measurer, groups, nil, nil); err != nil {
			return nil, fmt.Errorf("dynamics: capture: %w", err)
		}
	}
	for _, ev := range sc.sorted() {
		// Each step is spanned, clocked by the scenario step it will become
		// (seq+1 — observeStep advances the clock when it emits the step
		// event) and its simulated tick. The engine's reconvergence spans
		// nest inside it.
		var ssp obs.SpanScope
		if r.spanActive() {
			ssp = obs.StartSpan(r.dobs.tracer, r.dobs.reg, r.dobs.stepTm, "dynamics", "step",
				obs.Coord{Key: "step", V: r.dobs.seq + 1}, obs.Coord{Key: "tick", V: int64(ev.At)})
		}
		if err := r.Apply(ev); err != nil {
			ssp.End()
			return steps, fmt.Errorf("dynamics: %s (scenario %s): %w", ev, sc.Name, err)
		}
		post := r.Snapshot()
		step := Step{
			Event: ev,
			Churn: Diff(pre, post),
			Stats: r.Engine.LastReconvergeStats(),
		}
		if explain {
			postCap, err := glass.CaptureFrom(r.Engine, r.Dep, r.Measurer, groups, nil, nil)
			if err != nil {
				ssp.End()
				return steps, fmt.Errorf("dynamics: capture after %s: %w", ev, err)
			}
			rep, err := glass.Diff(preCap, postCap)
			if err != nil {
				ssp.End()
				return steps, fmt.Errorf("dynamics: diff after %s: %w", ev, err)
			}
			step.Moves = &rep
			preCap = postCap
		}
		steps = append(steps, step)
		r.observeStep(sc, step)
		r.recordSeries(step)
		if ssp.Active() {
			ssp.End(obs.Str("event", step.Event.String()), obs.Int("dirty", int64(step.Stats.Dirty)))
		}
		pre = post
	}
	return steps, nil
}

// Load is the tick pipeline: it evaluates the tick's demand, with the
// active flash crowds folded in, on eng (the runner's engine or a fork of
// it), samples the report into Series, and advances the SLO rules,
// returning the report and the alert transitions. Requires Eval; a nil
// Series records nothing. The server's publish path and a scenario run
// both call it, so a served replay and a scenario run of the same events
// record identical load series.
//
// The load is evaluated as a delta against the previous Load's, so it
// costs what the routing between the two changed. The runner's own engine
// keeps changing, so it is no base: Load evaluates a fork of it instead.
func (r *Runner) Load(tick int64, eng *bgp.Engine) (*traffic.LoadReport, []ts.Transition) {
	if eng == r.Engine {
		eng = eng.Fork()
	}
	rep := r.Eval.EvaluateFrom(eng, r.Eval.Model.Demand(tick, r.flash), r.baseRep, r.baseEng)
	r.baseEng, r.baseRep = eng, rep
	r.Series.SampleLoad(tick, r.Eval.Model, rep, r.Eval.Config().SoftUtil)
	return rep, r.Series.Eval(tick)
}

// recordSeries samples one applied step into the flight recorder: its
// reconvergence cost and churn, then the tick's load (see Runner.Series).
func (r *Runner) recordSeries(st Step) {
	if r.Series == nil {
		return
	}
	tick := int64(st.Event.At)
	r.Series.SampleReconverge(tick, st.Stats.Dirty, st.Stats.Passes)
	r.Series.SampleChurn(tick, st.Churn.Moved, st.Churn.Lost)
	r.Load(tick, r.Engine)
}

// observeStep records one applied event's reconvergence cost and catchment
// churn, and emits the step on the trace clocked by (step, tick).
func (r *Runner) observeStep(sc *Scenario, st Step) {
	r.dobs.steps.Inc()
	r.dobs.dirty.Observe(int64(st.Stats.Dirty))
	r.dobs.passes.Observe(int64(st.Stats.Passes))
	r.dobs.moved.Observe(int64(st.Churn.Moved))
	r.dobs.lost.Observe(int64(st.Churn.Lost))
	if !r.dobs.tracer.Enabled() {
		return
	}
	r.dobs.seq++
	r.dobs.tracer.Emit(obs.Event{
		Scope: "dynamics",
		Name:  "step",
		Clock: []obs.Coord{{Key: "step", V: r.dobs.seq}, {Key: "tick", V: int64(st.Event.At)}},
		Attrs: []obs.Attr{
			obs.Str("scenario", sc.Name),
			obs.Str("event", st.Event.String()),
			obs.Int("dirty", int64(st.Stats.Dirty)),
			obs.Int("passes", int64(st.Stats.Passes)),
			obs.Bool("full", st.Stats.Full),
			obs.Int("moved", int64(st.Churn.Moved)),
			obs.Int("lost", int64(st.Churn.Lost)),
			obs.Int("gained", int64(st.Churn.Gained)),
		},
	})
	if st.Moves == nil {
		return
	}
	// Per-move classified churn: one event per moved probe group, in the
	// report's (group-sorted) order, on the same scenario clock.
	for _, m := range st.Moves.Moves {
		r.dobs.tracer.Emit(obs.Event{
			Scope: "glass",
			Name:  "move",
			Clock: []obs.Coord{{Key: "step", V: r.dobs.seq}, {Key: "tick", V: int64(st.Event.At)}},
			Attrs: []obs.Attr{
				obs.Str("group", m.Group),
				obs.Str("prefix", m.Prefix),
				obs.Str("from", m.FromSite),
				obs.Str("to", m.ToSite),
				obs.Float("delta-ms", m.DeltaRTT),
				obs.Str("cause", string(m.Cause)),
				obs.Int("pivot", int64(m.PivotASN)),
			},
		})
	}
}
