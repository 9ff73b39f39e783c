package traffic

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"anysim/internal/bgp"
	"anysim/internal/obs"
	"anysim/internal/policy"
	"anysim/internal/topo"
)

// ActionKind is a BGP-level steering knob.
type ActionKind uint8

// The Tangled testbed's traffic-engineering levers, mildest first.
const (
	// ActionPrepend escalates AS-path prepending on the overloaded site's
	// announcement, deterring length-comparing neighbours toward siblings.
	ActionPrepend ActionKind = iota
	// ActionSelective restricts the overloaded site to transit-only
	// announcement (the dailycatch configuration, generalized): peers stop
	// hearing the site and fail over along their other routes.
	ActionSelective
	// ActionCrossAnnounce announces the crowded regional prefix from an
	// underloaded site outside the region — the regional-anycast-only move
	// that adds serving capacity to the prefix.
	ActionCrossAnnounce
	// ActionPrependWave prepends every in-region announcer of the prefix
	// one level deeper in a single coordinated step. Relative path lengths
	// within the region are preserved, so the region's load balance is
	// undisturbed, but every cross-announced helper outside the region
	// becomes one hop more attractive to length-comparing clients. This is
	// the only way to drain a saturated region: pushing sites one at a
	// time just floods the overloaded siblings first. Like cross-announce
	// it needs a prefix owned by one region, so a global deployment's
	// shared prefix cannot express it.
	ActionPrependWave
	// ActionScopedAnnounce re-announces the overloaded site's prefix with
	// the well-known no-peer-metro community for the site's own metro:
	// same-metro public-peer and route-server sessions stop hearing the
	// route, shedding exactly the local peering catchment while transit
	// keeps carrying it — the communities-driven mild sibling of the
	// transit-only knob. Requires an engine with a policy layer configured
	// (the scope community is inert without one).
	ActionScopedAnnounce
)

var actionNames = map[ActionKind]string{
	ActionPrepend:        "prepend",
	ActionSelective:      "transit-only",
	ActionCrossAnnounce:  "cross-announce",
	ActionPrependWave:    "prepend-wave",
	ActionScopedAnnounce: "scoped-announce",
}

// String returns the knob's name.
func (k ActionKind) String() string {
	if s, ok := actionNames[k]; ok {
		return s
	}
	return "unknown"
}

// Action is one applied steering step and its measured outcome.
type Action struct {
	Kind    ActionKind
	Prefix  netip.Prefix
	Site    string // the site whose announcement changed
	Target  string // overloaded site being relieved (== Site except cross-announce)
	Prepend int    // resulting prepend count (ActionPrepend)
	Detail  string

	// Outcome, filled after the routing system reconverges.
	UtilBefore float64 // target site utilization before the action
	UtilAfter  float64
	ShedRate   float64 // demand moved off the target site
	MovedRate  float64 // total demand that changed serving site
	// RTTCostMs is the demand-weighted mean propagation-RTT increase over
	// the groups the action moved: the latency price of the shed.
	RTTCostMs float64
}

// String renders the action for reports.
func (a Action) String() string {
	s := fmt.Sprintf("%-14s %s", a.Kind, a.Site)
	if a.Kind == ActionPrepend {
		s = fmt.Sprintf("%s x%d", s, a.Prepend)
	}
	if a.Kind != ActionPrependWave && a.Target != a.Site {
		s = fmt.Sprintf("%s (relieving %s)", s, a.Target)
	}
	return s
}

// SteeringConfig bounds the greedy resolution loop.
type SteeringConfig struct {
	// MaxActions caps the number of steering steps per Resolve call.
	// Default 32.
	MaxActions int
	// AllowSelective enables transit-only announcement configs.
	AllowSelective bool
	// AllowCrossAnnounce enables regional cross-announcement shifts. Only
	// meaningful for regional deployments: with a single global prefix
	// every site already announces it.
	AllowCrossAnnounce bool
	// Workers bounds the candidate-trial worker pool: each round's
	// candidates are applied and evaluated concurrently on per-candidate
	// engine forks. 0 means GOMAXPROCS. Results are bit-identical at any
	// worker count — the winner is selected deterministically (lowest
	// excess, ties broken by candidate order) and only the winner touches
	// the real engine.
	Workers int
	// Metrics, when set, receives the steering loop's counters and
	// histograms (rounds, trials, commits, tabu hits, rewinds).
	Metrics *obs.Registry
	// Tracer, when set, receives structured steering events (trial, commit,
	// rewind) clocked by (resolve, round, trial) — the steering loop's
	// debugging channel. Events are emitted from the serial Resolve loop in
	// candidate order, so streams are deterministic at any Workers setting.
	Tracer *obs.Tracer
}

func (c SteeringConfig) withDefaults() SteeringConfig {
	if c.MaxActions == 0 {
		c.MaxActions = 32
	}
	return c
}

// SteeringResult is the outcome of one Resolve run.
type SteeringResult struct {
	Actions []Action
	// Initial and Final are the load reports before and after steering.
	Initial, Final *LoadReport
	// Resolved reports whether no site is overloaded in Final.
	Resolved bool
}

// Steerer drives the BGP knobs to resolve overload. Every candidate step is
// applied by incremental reconvergence on a fork of the evaluator's engine;
// the engine itself only ever moves between snapshots — a commit adopts the
// winning fork, a rewind reinstates the best fork seen, and Reset
// reinstates the snapshot taken by NewSteerer. The engine is the one owner
// of routing state: the steerer reads announcements from it and keeps none
// of its own.
type Steerer struct {
	Eval *Evaluator
	cfg  SteeringConfig

	// base is the engine as NewSteerer found it, and baseLinks the
	// topology's disabled links then: Reset's restore point and the link
	// state it is valid for.
	base      *bgp.Engine
	baseLinks []int

	sobs steerObs
}

// steerObs bundles the steering loop's cached observability handles; the
// zero value is the disabled state. All fields are touched only from the
// serial Resolve path, so even the gauge is deterministic.
type steerObs struct {
	rounds   *obs.Counter   // steer.rounds
	trials   *obs.Counter   // steer.trials
	actions  *obs.Counter   // steer.actions (committed steps)
	tabuHits *obs.Counter   // steer.tabu_hits (candidates suppressed by tabu)
	rewinds  *obs.Counter   // steer.rewinds
	excess   *obs.Gauge     // steer.excess (objective after last commit)
	perRound *obs.Histogram // steer.round.trials

	// Span sites of the resolution loop; reg carries the wall gate.
	reg       *obs.Registry
	resolveTm obs.SpanTimer // steer.resolve: one whole Resolve call
	trialsTm  obs.SpanTimer // steer.round.trial_phase: one concurrent trial round
	commitTm  obs.SpanTimer // steer.round.commit: adopting the winner's fork on the real engine

	resolveSeq int64 // Resolve invocations on this steerer (serial)
}

// spanActive reports whether steering spans record anything; checked before
// building clock coordinates so uninstrumented Resolves stay alloc-free.
func (s *Steerer) spanActive() bool {
	return s.cfg.Tracer.Enabled() || s.sobs.reg.WallEnabled()
}

// NewSteerer snapshots the evaluator's engine, with the topology's current
// link state, as the restore point for Reset.
func NewSteerer(ev *Evaluator, cfg SteeringConfig) *Steerer {
	s := &Steerer{
		Eval:      ev,
		cfg:       cfg.withDefaults(),
		base:      ev.Engine.Fork(),
		baseLinks: ev.Engine.Topology().DisabledLinks(),
	}
	if reg := s.cfg.Metrics; reg != nil {
		s.sobs = steerObs{
			rounds:   reg.Counter("steer.rounds"),
			trials:   reg.Counter("steer.trials"),
			actions:  reg.Counter("steer.actions"),
			tabuHits: reg.Counter("steer.tabu_hits"),
			rewinds:  reg.Counter("steer.rewinds"),
			excess:   reg.Gauge("steer.excess"),
			perRound: reg.Histogram("steer.round.trials", obs.Pow2Bounds(3)),

			reg:       reg,
			resolveTm: reg.SpanTimer("steer.resolve"),
			trialsTm:  reg.SpanTimer("steer.round.trial_phase"),
			commitTm:  reg.SpanTimer("steer.round.commit"),
		}
	}
	return s
}

// Reset returns the engine to its state at NewSteerer — ribs,
// announcements and failover hints — so a later Resolve does exactly the
// work the first one did. The snapshot is only valid for the link state it
// was taken under; after a link flip Reset is an error.
func (s *Steerer) Reset() error {
	if !slices.Equal(s.Eval.Engine.Topology().DisabledLinks(), s.baseLinks) {
		return fmt.Errorf("traffic: reset: link state changed since the steerer was built")
	}
	return s.Eval.Engine.ResetTo(s.base)
}

// Resolution loop tuning. A flash crowd that saturates a whole region has
// no single-action fix: cross-announcements add capacity without moving
// traffic, and a prepend only pays off after earlier steps opened spare
// room for its shed to land in. So each round trials the candidate knobs
// of the worst few overloaded sites and commits the one with the lowest
// resulting total excess — even when that is worse than the current state,
// because evacuating a big site floods its small siblings before later
// prepends push the flood out to cross-announced helpers, and a descent
// that refuses the first step never crosses that valley. The tabu set
// keeps the walk from cycling, the loop stops once a stretch of rounds
// brings no new minimum, and Resolve rewinds to the best state seen.
const (
	trialsPerRound = 6
	stallLimit     = 48
	// stallRestart is how many stalled rounds the walk may drift before
	// being pulled back to the best state seen. The tabu set survives the
	// rewind, so each restart explores a different branch out of that
	// basin instead of retracing the previous one.
	stallRestart = 8
)

// Resolve runs the steering loop against one demand matrix: while any
// site is overloaded and budget remains, trial one candidate knob for each
// of the worst trialsPerRound overloaded sites — every candidate is applied
// and evaluated concurrently on its own engine fork (see trialRound) — then
// commit the trial that minimizes total excess demand (demand above
// capacity, summed over sites) by making the winner's fork the real
// engine's state. A worst-site-only greedy oscillates here — prepending the
// worst site refills a previously drained sibling, and uniform prepend
// waves recreate the original catchment. The engine is left in the steered
// state; call Reset to unwind.
func (s *Steerer) Resolve(mat Matrix) (*SteeringResult, error) {
	// The whole Resolve, each concurrent trial round, and each winner
	// adoption are spanned for the profiler. The commit span wraps the
	// engine's reset-to op. Spans live on the serial Resolve timeline only
	// — the trial forks never trace — so span-bearing traces stay
	// deterministic at any Workers.
	s.sobs.resolveSeq++
	spans := s.spanActive()
	var rsp obs.SpanScope
	if spans {
		rsp = obs.StartSpan(s.cfg.Tracer, s.sobs.reg, s.sobs.resolveTm, "steer", "resolve",
			obs.Coord{Key: "resolve", V: s.sobs.resolveSeq})
	}
	rep := s.Eval.Evaluate(mat)
	res := &SteeringResult{Initial: rep}
	// best is the lowest-excess state seen: the walk rewinds to it.
	best := snapshot{eng: s.Eval.Engine.Fork(), rep: rep}
	bestExcess := totalExcess(rep)
	stall := 0
	round := int64(0)
	// Tabu memory: each exact transition is committed at most once per
	// Resolve. Plateau acceptance would otherwise happily cycle a site
	// between two prepend levels until the budget runs out.
	accepted := map[string]bool{}
	for len(res.Actions) < s.cfg.MaxActions && stall < stallLimit {
		overloads := rep.Overloads()
		if len(overloads) == 0 {
			break
		}
		cands := s.roundCands(rep, overloads, accepted)
		var tsp obs.SpanScope
		if spans {
			tsp = obs.StartSpan(s.cfg.Tracer, s.sobs.reg, s.sobs.trialsTm, "steer", "trials",
				obs.Coord{Key: "resolve", V: s.sobs.resolveSeq}, obs.Coord{Key: "round", V: round + 1})
		}
		trials, err := s.trialRound(rep, mat, cands)
		if err != nil {
			tsp.End()
			rsp.End()
			return nil, err
		}
		if tsp.Active() {
			tsp.End(obs.Int("cands", int64(len(cands))))
		}
		round++
		s.sobs.rounds.Inc()
		s.sobs.trials.Add(int64(len(cands)))
		s.sobs.perRound.Observe(int64(len(cands)))
		// Winner selection matches the serial walk exactly: the first
		// strict minimum in candidate order. Trial events are emitted here,
		// after the round, in candidate order — not goroutine completion
		// order.
		win := -1
		for i := range trials {
			s.traceTrial(round, int64(i), cands[i], trials[i].exc)
			if win < 0 || trials[i].exc < trials[win].exc {
				win = i
			}
		}
		if win < 0 {
			break
		}
		if testHookTrials != nil {
			testHookTrials(rep, mat, trials)
		}
		// The winner's fork already holds the committed state: the real
		// engine adopts it, and the losing forks are simply dropped.
		act, won := cands[win], trials[win]
		var csp obs.SpanScope
		if spans {
			// Named "apply" so the span does not shadow the flat "commit"
			// outcome event traceCommit emits below.
			csp = obs.StartSpan(s.cfg.Tracer, s.sobs.reg, s.sobs.commitTm, "steer", "apply",
				obs.Coord{Key: "resolve", V: s.sobs.resolveSeq}, obs.Coord{Key: "round", V: round})
		}
		if err := s.Eval.Engine.ResetTo(won.fork); err != nil {
			csp.End()
			rsp.End()
			return nil, err
		}
		csp.End()
		after := won.after.materialise()
		if sl, ok := rep.SiteLoadByID(act.Target); ok {
			act.UtilBefore = sl.Utilization()
		}
		if sl, ok := after.SiteLoadByID(act.Target); ok {
			act.UtilAfter = sl.Utilization()
			if before, ok2 := rep.SiteLoadByID(act.Target); ok2 {
				act.ShedRate = before.Demand - sl.Demand
			}
		}
		act.MovedRate, act.RTTCostMs = shedCost(rep, after)
		accepted[actionKey(act)] = true
		res.Actions = append(res.Actions, *act)
		s.sobs.actions.Inc()
		s.sobs.excess.Set(won.exc)
		s.traceCommit(round, int64(win), act, won.exc)
		rep = after
		if won.exc < bestExcess-1e-9 {
			bestExcess, stall = won.exc, 0
			best = snapshot{eng: won.fork, rep: after, actions: len(res.Actions)}
		} else {
			stall++
			if stall%stallRestart == 0 && len(res.Actions) > best.actions {
				if rep, err = s.rewindTo(res, best); err != nil {
					rsp.End()
					return nil, err
				}
			}
		}
	}
	// The walk may have ended past its minimum; leave the engine in the
	// best state seen.
	if len(res.Actions) > best.actions {
		var err error
		if rep, err = s.rewindTo(res, best); err != nil {
			rsp.End()
			return nil, err
		}
	}
	res.Final = rep
	res.Resolved = len(rep.Overloads()) == 0
	if rsp.Active() {
		rsp.End(obs.Int("actions", int64(len(res.Actions))), obs.Bool("resolved", res.Resolved))
	}
	return res, nil
}

// snapshot is a state of the walk: the engine fork holding it, its load
// report, and how many committed actions led there. A trial fork is never
// touched after its trial, so a committed winner's fork serves as is.
type snapshot struct {
	eng     *bgp.Engine
	rep     *LoadReport
	actions int
}

// rewindTo reinstates a snapshot of the walk on the real engine, drops the
// actions committed after it, and returns its load report.
func (s *Steerer) rewindTo(res *SteeringResult, to snapshot) (*LoadReport, error) {
	s.sobs.rewinds.Inc()
	if tr := s.cfg.Tracer; tr.Enabled() {
		tr.Emit(obs.Event{
			Scope: "steer",
			Name:  "rewind",
			Clock: []obs.Coord{{Key: "resolve", V: s.sobs.resolveSeq}},
			Attrs: []obs.Attr{obs.Int("keep", int64(to.actions)), obs.Int("drop", int64(len(res.Actions)-to.actions))},
		})
	}
	if err := s.Eval.Engine.ResetTo(to.eng); err != nil {
		return nil, err
	}
	res.Actions = res.Actions[:to.actions]
	return to.rep, nil
}

// traceTrial emits one candidate's trial outcome as a structured event,
// from the serial Resolve loop in candidate order.
func (s *Steerer) traceTrial(round, idx int64, act *Action, exc float64) {
	if !s.cfg.Tracer.Enabled() {
		return
	}
	s.cfg.Tracer.Emit(obs.Event{
		Scope: "steer",
		Name:  "trial",
		Clock: []obs.Coord{{Key: "resolve", V: s.sobs.resolveSeq}, {Key: "round", V: round}, {Key: "trial", V: idx}},
		Attrs: []obs.Attr{obs.Str("action", act.String()), obs.Float("exc", exc)},
	})
}

// traceCommit marks the round's winning candidate after the real engine
// adopted its fork.
func (s *Steerer) traceCommit(round, idx int64, act *Action, exc float64) {
	if !s.cfg.Tracer.Enabled() {
		return
	}
	s.cfg.Tracer.Emit(obs.Event{
		Scope: "steer",
		Name:  "commit",
		Clock: []obs.Coord{{Key: "resolve", V: s.sobs.resolveSeq}, {Key: "round", V: round}, {Key: "trial", V: idx}},
		Attrs: []obs.Attr{
			obs.Str("action", act.String()),
			obs.Float("exc", exc),
			obs.Float("util_before", act.UtilBefore),
			obs.Float("util_after", act.UtilAfter),
			obs.Float("shed", act.ShedRate),
		},
	})
}

// trialOutcome is one candidate's measured effect, with the fork that
// holds it so a commit can adopt it.
type trialOutcome struct {
	fork  *bgp.Engine
	after *trialReport
	exc   float64
	err   error
}

// testHookTrials, when set by a test, sees every round's trial outcomes
// with the report and matrix they were evaluated against.
var testHookTrials func(base *LoadReport, mat Matrix, trials []trialOutcome)

// trialRound applies and evaluates every candidate concurrently, each on a
// private copy-on-write fork of the real engine, over a worker pool bounded
// by cfg.Workers (GOMAXPROCS when 0). The demand model and the parent
// engine are read-only for the duration of the round. Results come back
// indexed by candidate, so downstream winner selection and tracing are
// independent of scheduling. Each trial costs one incremental
// reconvergence on its fork and a delta evaluation against rep, the real
// engine's report on mat; the winner's adds only its full report.
func (s *Steerer) trialRound(rep *LoadReport, mat Matrix, cands []*Action) ([]trialOutcome, error) {
	out := make([]trialOutcome, len(cands))
	forEach(s.cfg.Workers, len(cands), func(i int) {
		f := s.Eval.Engine.Fork()
		if err := s.applyOn(f, cands[i]); err != nil {
			out[i] = trialOutcome{err: err}
			return
		}
		after := s.Eval.evaluateTrial(f, s.Eval.Engine, rep, mat)
		out[i] = trialOutcome{fork: f, after: after, exc: totalExcess(after.rep)}
	})
	for i := range out {
		if out[i].err != nil {
			return nil, out[i].err
		}
	}
	return out, nil
}

// totalExcess sums squared demand above capacity over all sites: the
// steering objective. Squaring makes the objective strictly convex in the
// per-site excess, so moving load from a badly overloaded site to a mildly
// overloaded one registers as progress — under a linear sum such balancing
// moves are plateau steps and the descent stalls on them.
func totalExcess(rep *LoadReport) float64 {
	t := 0.0
	for _, sl := range rep.Sites {
		if d := sl.Demand - sl.Capacity; d > 0 {
			t += d * d
		}
	}
	return t
}

// actionKey identifies a candidate action for the rejected-attempt set.
// The relieved site is deliberately excluded: an action's routing effect
// does not depend on which overload nominated it.
func actionKey(a *Action) string {
	return fmt.Sprintf("%d|%s|%s|%s", a.Kind, a.Prefix, a.Site, a.Detail)
}

// shedCost compares two load reports: total demand that changed serving
// site and the demand-weighted mean propagation-RTT delta of those groups,
// over groups served in both. The sums run in group rank order.
func shedCost(before, after *LoadReport) (moved, costMs float64) {
	var wsum, dsum float64
	for i, b := range before.Assignments {
		a := after.Assignments[i]
		if b.Site < 0 || a.Site < 0 || a.Site == b.Site {
			continue
		}
		moved += b.Rate
		wsum += b.Rate
		dsum += b.Rate * (a.RTTMs - b.RTTMs)
	}
	if wsum > 0 {
		costMs = dsum / wsum
	}
	return moved, costMs
}

// roundCands gathers the candidates to trial in one round: each overloaded
// site's ladder, drawn round-robin across sites and ladder depth (worst
// site's mildest knob first) so every move class — push, pull, add
// capacity — gets trialled, not just the worst site's first idea.
func (s *Steerer) roundCands(rep *LoadReport, overloads []SiteLoad, tabu map[string]bool) []*Action {
	lists := make([][]*Action, len(overloads))
	for i, o := range overloads {
		lists[i] = s.knobCands(rep, o)
	}
	var out []*Action
	seen := map[string]bool{}
	for depth := 0; len(out) < trialsPerRound; depth++ {
		any := false
		for _, l := range lists {
			if depth >= len(l) {
				continue
			}
			any = true
			k := actionKey(l[depth])
			if seen[k] {
				continue
			}
			if tabu[k] {
				s.sobs.tabuHits.Inc()
				continue
			}
			seen[k] = true
			out = append(out, l[depth])
			if len(out) >= trialsPerRound {
				break
			}
		}
		if !any {
			break
		}
	}
	return out
}

// knobCands lists an overloaded site's candidate steering steps in ladder
// order. Candidate order encodes the policy; the Resolve filter decides
// what sticks.
func (s *Steerer) knobCands(rep *LoadReport, over SiteLoad) []*Action {
	p, ok := s.hottestPrefix(rep, over.Site)
	if !ok {
		return nil
	}
	anns := s.Eval.Engine.Announcements(p)
	ann, announced := annOf(anns, over.Site)
	var cands []*Action

	crossCands := func() []*Action {
		var out []*Action
		for _, helper := range helpersBySpare(rep, anns, s.Eval.Config().SoftUtil) {
			out = append(out, &Action{
				Kind: ActionCrossAnnounce, Prefix: p, Site: helper, Target: over.Site,
				Detail: fmt.Sprintf("announce %s from %s", p, helper),
			})
		}
		return out
	}

	// A saturated prefix — demand above the soft-knee capacity of its
	// announcing sites — cannot be fixed by shuffling load among them:
	// prepending every hot site in turn only restores the original relative
	// path lengths. Add capacity first by cross-announcing from spare
	// sites, largest spare first.
	saturated := s.cfg.AllowCrossAnnounce && s.prefixSaturated(rep, anns, p)
	if saturated {
		cands = append(cands, crossCands()...)
	}
	// Once helpers announce the prefix, the coordinated wave is the
	// preferred knob: it drains the whole region toward them without
	// disturbing the intra-region balance. Before any helper exists the
	// wave would only shuffle the region onto itself, so it is not
	// offered.
	if wave := s.waveCand(anns, p, over); wave != nil {
		cands = append(cands, wave)
	}

	// The scoped announcement is the mildest shedding knob: it drops only
	// the site's own-metro peer sessions, so the local peering catchment
	// spills to transit (and often to a sibling site) while every other
	// peer keeps its direct route. Offered before transit-only because it
	// sheds a strict subset of what that knob sheds, and only when the
	// evaluator's engine has a policy layer to honour the community.
	if announced && s.Eval.Engine.Policy() != nil {
		if scope, err := policy.NoPeerMetro(ann.City); err == nil && !hasCommunity(ann.Communities, scope) {
			cands = append(cands, &Action{
				Kind: ActionScopedAnnounce, Prefix: p, Site: over.Site, Target: over.Site,
				Detail: fmt.Sprintf("announce %s, but not to peers in metro %s", p, ann.City),
			})
		}
	}
	// Mild knobs move traffic to sibling announcers. Prepending only
	// deters neighbours that compare path length — clients on peer or
	// customer routes to the site stay put at any prepend depth — so after
	// two levels also offer transit-only: withdrawing from peers forces
	// those clients onto their provider paths, where length comparison
	// resumes.
	if s.cfg.AllowSelective && announced && ann.OnlyNeighbors == nil && ann.Prepend >= 2 {
		providers := providersAt(s.Eval.Engine.Topology(), s.Eval.Dep.ASN, ann.City)
		if len(providers) > 0 {
			cands = append(cands, &Action{
				Kind: ActionSelective, Prefix: p, Site: over.Site, Target: over.Site,
				Detail: fmt.Sprintf("announce to %d transit providers only", len(providers)),
			})
		}
	}
	// Push prepends at several strides: +1 peels the marginal clients, but
	// a site whose path advantage is several hops deep sheds nothing until
	// the prepend overcomes all of it, and single steps never survive a
	// best-of-round trial. Larger strides let one action cross that gap.
	if announced && ann.Prepend < bgp.MaxPrepend {
		for _, next := range []int{ann.Prepend + 1, ann.Prepend + 3, bgp.MaxPrepend} {
			if next > bgp.MaxPrepend {
				next = bgp.MaxPrepend
			}
			cands = append(cands, &Action{
				Kind: ActionPrepend, Prefix: p, Site: over.Site, Target: over.Site,
				Prepend: next,
				Detail:  fmt.Sprintf("prepend %d -> %d", ann.Prepend, next),
			})
		}
	}
	// Pushing is not the only move: a sibling that earlier steps drained
	// with prepending can pull load back by removing a level. Offer the
	// attract move for the sparest prepended siblings.
	cands = append(cands, s.attractCands(rep, anns, p, over)...)
	// Cross-announcing can still relieve an unsaturated prefix whose mild
	// knobs all failed.
	if s.cfg.AllowCrossAnnounce && !saturated {
		cands = append(cands, crossCands()...)
	}
	return cands
}

// regionSites returns the owning region's name and the site IDs that
// natively announce a prefix. A prefix nobody owns — the global
// deployment's shared prefix — yields ok=false: coordinated regional moves
// are not expressible on it.
func (s *Steerer) regionSites(p netip.Prefix) (string, map[string]bool) {
	name := ""
	found := false
	for _, r := range s.Eval.Dep.Regions {
		if r.Prefix == p {
			name, found = r.Name, true
			break
		}
	}
	if !found {
		return "", nil
	}
	out := map[string]bool{}
	for _, site := range s.Eval.Dep.Sites {
		for _, rn := range site.Regions {
			if rn == name {
				out[site.ID] = true
				break
			}
		}
	}
	return name, out
}

// waveCand proposes a coordinated regional prepend wave on a prefix, or
// nil when the move is unavailable: no owning region, no out-of-region
// helper announced yet, or the whole region already at the prepend cap.
// The wave's tabu identity is the region's aggregate prepend depth, so
// each rung of the coordinated ladder is trialled once. anns is p's
// current announcement set.
func (s *Steerer) waveCand(anns []bgp.SiteAnnouncement, p netip.Prefix, over SiteLoad) *Action {
	region, inRegion := s.regionSites(p)
	if inRegion == nil {
		return nil
	}
	hasHelper, canDeepen := false, false
	depth := 0
	for _, ann := range anns {
		if !inRegion[ann.Site] {
			hasHelper = true
			continue
		}
		depth += ann.Prepend
		if ann.Prepend < bgp.MaxPrepend {
			canDeepen = true
		}
	}
	if !hasHelper || !canDeepen {
		return nil
	}
	return &Action{
		Kind: ActionPrependWave, Prefix: p, Site: region, Target: over.Site,
		Detail: fmt.Sprintf("wave from depth %d", depth),
	}
}

// prefixSaturated reports whether a prefix's total demand exceeds the
// soft-knee capacity of the sites announcing it. The soft threshold keeps
// cross-announcing until the prefix has real slack: provisioning exactly to
// demand leaves the shuffling knobs no headroom to land catchment chunks.
// anns is p's current announcement set.
func (s *Steerer) prefixSaturated(rep *LoadReport, anns []bgp.SiteAnnouncement, p netip.Prefix) bool {
	demand := 0.0
	for gi, a := range rep.Assignments {
		if a.Site >= 0 && s.Eval.groupPrefix(gi) == p {
			demand += a.Rate
		}
	}
	capacity := 0.0
	for _, ann := range anns {
		if sl, ok := rep.SiteLoadByID(ann.Site); ok {
			capacity += sl.Capacity
		}
	}
	return demand > s.Eval.Config().SoftUtil*capacity
}

// hottestPrefix returns the prefix carrying the most demand into a site,
// the lower prefix text on a tie.
func (s *Steerer) hottestPrefix(rep *LoadReport, site string) (netip.Prefix, bool) {
	gx := rep.idx
	si, ok := gx.siteIdx[site]
	if !ok {
		return netip.Prefix{}, false
	}
	// Demand by prefix rank, and whether the site serves a group over it.
	byPfx, seen := make([]float64, len(gx.prefixes)), make([]bool, len(gx.prefixes))
	for gi, a := range rep.Assignments {
		if a.Site == int32(si) {
			byPfx[gx.pfx[gi]] += a.Rate
			seen[gx.pfx[gi]] = true
		}
	}
	var best netip.Prefix
	bestRate := -1.0
	for pi, r := range byPfx {
		if p := gx.prefixes[pi]; seen[pi] && (r > bestRate || (r == bestRate && p.String() < best.String())) {
			best, bestRate = p, r
		}
	}
	return best, bestRate >= 0
}

// annOf finds a site's announcement in a prefix's announcement set.
func annOf(anns []bgp.SiteAnnouncement, site string) (bgp.SiteAnnouncement, bool) {
	for _, a := range anns {
		if a.Site == site {
			return a, true
		}
	}
	return bgp.SiteAnnouncement{}, false
}

// attractCands proposes prepend decreases on announcers of p (announcement
// set anns) that are below the soft knee but still prepended, sparest
// first: the inverse knob, pulling load toward unused capacity instead of
// pushing it off the overloaded site.
func (s *Steerer) attractCands(rep *LoadReport, anns []bgp.SiteAnnouncement, p netip.Prefix, over SiteLoad) []*Action {
	soft := s.Eval.Config().SoftUtil
	type cand struct {
		ann   bgp.SiteAnnouncement
		spare float64
	}
	var cs []cand
	for _, ann := range anns {
		if ann.Site == over.Site || ann.Prepend == 0 {
			continue
		}
		if sl, ok := rep.SiteLoadByID(ann.Site); ok && sl.Utilization() < soft {
			cs = append(cs, cand{ann, sl.Capacity - sl.Demand})
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].spare != cs[j].spare {
			return cs[i].spare > cs[j].spare
		}
		return cs[i].ann.Site < cs[j].ann.Site
	})
	var out []*Action
	for _, c := range cs {
		for _, next := range []int{c.ann.Prepend - 1, 0} {
			out = append(out, &Action{
				Kind: ActionPrepend, Prefix: p, Site: c.ann.Site, Target: over.Site,
				Prepend: next,
				Detail:  fmt.Sprintf("prepend %d -> %d", c.ann.Prepend, next),
			})
		}
	}
	return out
}

// helpersBySpare lists sites outside a prefix's announcement set anns and
// below the soft knee, most spare capacity first. Spare capacity, not
// distance, ranks helpers: a nearby thin edge site would itself overload
// the moment a catchment chunk lands on it.
func helpersBySpare(rep *LoadReport, anns []bgp.SiteAnnouncement, soft float64) []string {
	announces := map[string]bool{}
	for _, ann := range anns {
		announces[ann.Site] = true
	}
	type cand struct {
		site  string
		spare float64
	}
	var cs []cand
	for _, sl := range rep.Sites {
		if announces[sl.Site] || sl.Utilization() >= soft {
			continue
		}
		cs = append(cs, cand{sl.Site, sl.Capacity - sl.Demand})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].spare != cs[j].spare {
			return cs[i].spare > cs[j].spare
		}
		return cs[i].site < cs[j].site
	})
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.site
	}
	return out
}

// applyOn pushes one action into a trial fork via incremental
// reconvergence, reading the current announcements from the fork itself.
// Everything else it reads — the deployment, the topology, the steerer
// configuration — is immutable, so concurrent trials only need disjoint
// engines.
func (s *Steerer) applyOn(eng *bgp.Engine, act *Action) error {
	anns := eng.Announcements(act.Prefix)
	ann, announced := annOf(anns, act.Site)
	if !announced && act.Kind != ActionCrossAnnounce && act.Kind != ActionPrependWave {
		return fmt.Errorf("traffic: %s does not announce %s", act.Site, act.Prefix)
	}
	switch act.Kind {
	case ActionPrepend:
		ann.Prepend = act.Prepend
		return eng.AnnounceSite(act.Prefix, ann)
	case ActionSelective:
		ann.OnlyNeighbors = providersAt(eng.Topology(), s.Eval.Dep.ASN, ann.City)
		return eng.AnnounceSite(act.Prefix, ann)
	case ActionCrossAnnounce:
		site, ok := s.Eval.Dep.SiteByID(act.Site)
		if !ok {
			return fmt.Errorf("traffic: unknown site %s", act.Site)
		}
		return eng.AnnounceSite(act.Prefix, bgp.SiteAnnouncement{
			Origin: s.Eval.Dep.ASN,
			Site:   site.ID,
			City:   site.City,
		})
	case ActionScopedAnnounce:
		scope, err := policy.NoPeerMetro(ann.City)
		if err != nil {
			return fmt.Errorf("traffic: scoped announce at %s: %w", ann.City, err)
		}
		ann.Communities = appendCommunity(ann.Communities, scope)
		return eng.AnnounceSite(act.Prefix, ann)
	case ActionPrependWave:
		_, inRegion := s.regionSites(act.Prefix)
		if inRegion == nil {
			return fmt.Errorf("traffic: %s has no owning region", act.Prefix)
		}
		// One batch: the fork reconverges the wave's net change once.
		b := eng.NewBatch()
		for _, a := range anns {
			if !inRegion[a.Site] || a.Prepend >= bgp.MaxPrepend {
				continue
			}
			a.Prepend++
			if err := b.AnnounceSite(act.Prefix, a); err != nil {
				return err
			}
		}
		return eng.ApplyBatch(b)
	}
	return fmt.Errorf("traffic: unknown action kind %d", act.Kind)
}

// hasCommunity reports whether an announcement's community list already
// carries c.
func hasCommunity(cs []policy.Community, c policy.Community) bool {
	for _, e := range cs {
		if e == c {
			return true
		}
	}
	return false
}

// appendCommunity returns a fresh community list with c added (announcement
// slices are shared across engine forks, so never mutated in place).
func appendCommunity(cs []policy.Community, c policy.Community) []policy.Community {
	out := make([]policy.Community, 0, len(cs)+1)
	out = append(out, cs...)
	if !hasCommunity(cs, c) {
		out = append(out, c)
	}
	return out
}

// providersAt lists the deployment AS's transit providers with sessions at
// a city, sorted — the dailycatch transit-only allowlist, generalized.
func providersAt(tp *topo.Topology, asn topo.ASN, city string) []topo.ASN {
	var out []topo.ASN
	for _, li := range tp.LinksOf(asn) {
		l := tp.Links()[li]
		if l.Type != topo.CustomerToProvider || l.A != asn {
			continue
		}
		for _, c := range l.Cities {
			if c == city {
				nbr, _ := l.Other(asn)
				out = append(out, nbr)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
