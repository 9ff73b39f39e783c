package bgp

// Route provenance: the decision-level record behind each installed route.
//
// With provenance enabled the engine records, per (prefix, AS), not just the
// selected route set but *why* it won: the policy step that decided the
// selection (local-pref class, AS-path length, or the equal-preference
// tie-break), the most competitive route that lost, and the step at which it
// lost. internal/glass layers the looking-glass and catchment-diff analyses
// on top of this record.
//
// Storage. Each AS's record hangs off its own immutable rib (rib.prov), so
// the record lives and dies with the route state it explains. At the end of
// a converge every recomputed AS's fresh rib points into one []Provenance
// block sized to the recomputed ASes; clean ASes carry their record over
// with their rib pointer, and Fork and the server's state history share
// records exactly the way they already share ribs. The recorder is working
// memory, so converge's pooled arena owns it: an n-entry int32 index
// (pointer-free, so the GC never scans it), allocated on the arena's first
// provenance pass, into a slot list that keeps its capacity. Each pass
// clears only the index entries and slots the previous one used, so an
// incremental pass pays for provenance in proportion to the offers its
// recomputed ASes drop, not to the topology.
//
// The provenance-off path stays byte- and allocation-identical to an engine
// without the feature: every recording site is gated on a nil *provRecorder
// before any event is materialised, and with the prov pointer a rib is
// 48 B, the allocation size class its 40 B would round up to without it.
// BenchmarkAnnounceProvenance pins this.
//
// Determinism. A record is a pure function of (topology, announcement set):
// winners come from the deterministic converge result, and the runner-up
// per class is the *minimum* dropped route under (path length, routeCmp) —
// a min over a set, independent of offer arrival and iteration order.
// Incremental reconvergence carries clean ASes' records over with their
// ribs, which is sound for the same reason carrying the ribs is: at the
// worklist fixed point no changed export crosses into a clean AS, so a
// clean AS's full incoming offer stream — including the offers it dropped —
// is identical to the one a full recompute would deliver. prov_test.go
// property-tests both equivalences (incremental vs full, fork+apply vs
// serial apply) bit for bit, and that forks share untouched records.

import (
	"fmt"
	"net/netip"

	"anysim/internal/policy"
	"anysim/internal/topo"
)

// DecisionStep identifies the policy step that decided a route selection —
// the first comparison at which the runner-up lost.
type DecisionStep uint8

// Decision steps, in BGP decision-process order.
const (
	// StepOnlyRoute: the AS heard no competing route at all.
	StepOnlyRoute DecisionStep = iota
	// StepLocalPref: the runner-up was in a less-preferred relationship
	// class (customer > public peer > rs peer > provider).
	StepLocalPref
	// StepPathLen: same class, but the runner-up's AS path was longer.
	StepPathLen
	// StepTieBreak: same class and path length; the operator's neighbour
	// ranking (nearest-downstream or router-ID order) or hot-potato egress
	// decided.
	StepTieBreak
	// StepCommunity: the runner-up never entered the decision process at
	// all — the policy layer rejected it at the origin's edge (an export
	// filter, a scope community, or an import reject). Only produced by
	// engines with a policy configured.
	StepCommunity
)

var stepNames = map[DecisionStep]string{
	StepOnlyRoute: "only-route",
	StepLocalPref: "local-pref",
	StepPathLen:   "path-len",
	StepTieBreak:  "tie-break",
	StepCommunity: "community-dropped",
}

// String returns a short step name.
func (s DecisionStep) String() string {
	if n, ok := stepNames[s]; ok {
		return n
	}
	return "unknown"
}

// Provenance is the decision record of one AS's route selection for one
// prefix. Winner() is the representative selected route (the routeCmp-least
// retained route of the winning class); RunnerUp(), when HasRunnerUp, is
// the most competitive route that lost, and Step is the comparison that
// rejected it. Both routes share their path chains with the ribs, so a
// record costs two 40-byte Routes and no path copies.
type Provenance struct {
	// Valid reports that the AS holds routing state for the prefix.
	Valid bool
	// WinnerClass is the import edge class of the selected routes.
	WinnerClass RelClass
	// Step is the decision step that settled the selection.
	Step DecisionStep
	// HasRunnerUp reports whether any competing route existed.
	HasRunnerUp bool
	// RunnerClass is the runner-up's import class.
	RunnerClass RelClass

	winner, runnerUp Route
	// AltInClass is the number of retained equally-preferred routes (the
	// hot-potato egress breadth of the winning class).
	AltInClass int
	// Arbitrary is the operator's tie-break trait: true for geography-blind
	// (router-ID style) neighbour ranking.
	Arbitrary bool
}

// Winner returns the representative selected route.
func (p Provenance) Winner() Route { return p.winner }

// RunnerUp returns the best losing route (the zero Route unless
// HasRunnerUp).
func (p Provenance) RunnerUp() Route { return p.runnerUp }

// provRecorder accumulates the best dropped route per (AS, class) during one
// converge pass. Every method is nil-safe so call sites stay branch-only on
// the provenance-off path, where converge passes a nil recorder. The arena
// owns one recorder and recycles it across passes (see clear).
type provRecorder struct {
	// drops records the offers the decision process rejected.
	drops dropTable
	// pol records seeds the policy layer rejected. Its index is allocated
	// lazily on the first policy drop: a provenance-on converge with no
	// policy (or a policy that rejects nothing) allocates exactly what it
	// did before the policy layer existed.
	pol dropTable
}

// dropTable holds the best dropped route per (AS, class) sparsely: idx maps
// a dense AS index to 1 + its slot in slots, 0 meaning nothing recorded,
// and owners[k] is the AS index of slot k.
type dropTable struct {
	idx    []int32
	slots  [][FromProvider + 1]dropSlot
	owners []int32
}

type dropSlot struct {
	r  Route
	ok bool
}

// begin readies the recorder for one converge pass over n ASes. The index
// is allocated on the recorder's first pass and kept after it.
func (p *provRecorder) begin(n int) {
	p.clear()
	if p.drops.idx == nil {
		p.drops.idx = make([]int32, n)
	}
}

// clear empties the recorder and drops every route reference it holds. It
// zeroes only the index entries and slots the last pass used, so it costs
// what that pass dropped, not the topology.
func (p *provRecorder) clear() {
	p.drops.clear()
	p.pol.clear()
}

func (t *dropTable) clear() {
	for _, i := range t.owners {
		t.idx[i] = 0
	}
	clear(t.slots)
	t.slots, t.owners = t.slots[:0], t.owners[:0]
}

// keep records r as AS i's best drop of its class if it beats the current one.
func (t *dropTable) keep(i int, r Route) {
	k := t.idx[i]
	if k == 0 {
		t.slots = append(t.slots, [FromProvider + 1]dropSlot{})
		t.owners = append(t.owners, int32(i))
		k = int32(len(t.slots))
		t.idx[i] = k
	}
	s := &t.slots[k-1][r.Rel]
	if !s.ok || dropBetter(r, s.r) {
		s.r, s.ok = r, true
	}
}

// get returns AS i's best drop of class c (the zero slot when none).
func (t *dropTable) get(i int, c RelClass) dropSlot {
	if t.idx == nil || t.idx[i] == 0 {
		return dropSlot{}
	}
	return t.slots[t.idx[i]-1][c]
}

// dropBetter orders dropped routes: shorter AS path first, then routeCmp.
// A min under this order is independent of recording order.
func dropBetter(a, b Route) bool {
	if a.Len() != b.Len() {
		return a.Len() < b.Len()
	}
	return routeLess(a, b)
}

// drop records one rejected route offer for AS index i.
func (p *provRecorder) drop(i int, r Route) {
	if p != nil {
		p.drops.keep(i, r)
	}
}

// dropRoutes records a batch of rejected offers.
func (p *provRecorder) dropRoutes(i int, routes []Route) {
	if p == nil {
		return
	}
	for _, r := range routes {
		p.drop(i, r)
	}
}

// dropMissing records every offered route capClass did not retain, in
// offer order: those whose kept flag (see capClass) is false.
func (p *provRecorder) dropMissing(i int, offered []Route, kept []bool) {
	if p == nil {
		return
	}
	for j, r := range offered {
		if !kept[j] {
			p.drop(i, r)
		}
	}
}

// dropPolicy records a seed the policy layer rejected for AS index i. The
// route carries its pre-policy import class.
func (p *provRecorder) dropPolicy(i int, r Route) {
	if p.pol.idx == nil {
		p.pol.idx = make([]int32, len(p.drops.idx))
	}
	p.pol.keep(i, r)
}

// dropOf returns the best dropped route of a class for AS index i, taking
// the minimum under dropBetter across decision-process drops and policy
// drops. pol reports that the returned route was a policy rejection —
// selection never saw it — which buildProv surfaces as StepCommunity.
func (p *provRecorder) dropOf(i int, c RelClass) (r Route, pol, ok bool) {
	s := p.drops.get(i, c)
	r, ok = s.r, s.ok
	if ps := p.pol.get(i, c); ps.ok && (!ok || dropBetter(ps.r, r)) {
		r, pol, ok = ps.r, true, true
	}
	return r, pol, ok
}

// buildProv derives one AS's provenance from its converged rib and the
// offers it dropped. The runner-up is chosen by decision-process order: a
// same-class equal-length alternative (retained or dropped) loses at the
// tie-break; a same-class longer route loses at path length; the best route
// of the next non-empty class loses at local-pref.
func (e *Engine) buildProv(i int, rb *rib, pr *provRecorder) Provenance {
	cls, set, ok := rb.best()
	if !ok {
		return Provenance{}
	}
	p := Provenance{
		Valid:       true,
		WinnerClass: cls,
		winner:      set[0],
		AltInClass:  len(set),
		Arbitrary:   e.adj.traits[i].arbitrary,
	}
	// Tie-break runner-up: the best same-class equal-length competitor,
	// whether it was retained alongside the winner, capped out, or (when
	// the chosen competitor is a policy drop) filtered before selection —
	// the latter reports StepCommunity instead of the decision step.
	var ru Route
	has, ruPol := false, false
	if len(set) > 1 {
		ru, has = set[1], true
	}
	if d, pol, okD := pr.dropOf(i, cls); okD && d.Len() == set[0].Len() {
		if !has || routeLess(d, ru) {
			ru, has, ruPol = d, true, pol
		}
	}
	if has {
		p.runnerUp, p.RunnerClass, p.HasRunnerUp = ru, cls, true
		p.Step = stepOr(StepTieBreak, ruPol)
		return p
	}
	if d, pol, okD := pr.dropOf(i, cls); okD {
		p.runnerUp, p.RunnerClass, p.HasRunnerUp = d, cls, true
		p.Step = stepOr(StepPathLen, pol)
		return p
	}
	for c := cls + 1; c <= FromProvider; c++ {
		if alts := rb.class(c); len(alts) > 0 {
			p.runnerUp, p.RunnerClass, p.HasRunnerUp, p.Step = alts[0], c, true, StepLocalPref
			return p
		}
		if d, pol, okD := pr.dropOf(i, c); okD {
			p.runnerUp, p.RunnerClass, p.HasRunnerUp = d, c, true
			p.Step = stepOr(StepLocalPref, pol)
			return p
		}
	}
	p.Step = StepOnlyRoute
	return p
}

// stepOr substitutes StepCommunity when the chosen runner-up was a policy
// rejection rather than a decision-process loss.
func stepOr(s DecisionStep, pol bool) DecisionStep {
	if pol {
		return StepCommunity
	}
	return s
}

// EngineConfig parameterises engine construction. The zero value matches
// NewEngine.
type EngineConfig struct {
	// Provenance enables decision-provenance recording: every converge
	// hangs a Provenance record on each recomputed AS's rib. Off by
	// default; the off path is allocation-identical to an engine without
	// the feature.
	Provenance bool
	// Policy installs a community/filter layer (see policy.go). nil — the
	// default — leaves the engine byte- and allocation-identical to one
	// without the layer.
	Policy *policy.Policy
}

// NewEngineWithConfig builds an engine over a topology with the given
// configuration.
func NewEngineWithConfig(t *topo.Topology, cfg EngineConfig) *Engine {
	e := NewEngine(t)
	if cfg.Provenance {
		e.SetProvenance(true)
	}
	if cfg.Policy != nil {
		e.SetPolicy(cfg.Policy)
	}
	return e
}

// SetProvenance toggles provenance recording. Records live on the ribs, so
// toggling touches no stored state:
//
//   - Off: Provenance answers false at once, and ribs converged while
//     recording is off carry no record.
//   - On: ASes recomputed from then on get records. Prefixes announced
//     before recording was enabled have none until re-announced
//     (Deployment.Announce is idempotent for routing state, so
//     re-announcing is safe).
//   - On, off, on again: Provenance answers from whatever records the
//     current ribs carry. ASes recomputed while recording was off have
//     none; ribs carried over unchanged since the earlier on period keep
//     theirs, which are still exact (a carried-over rib heard the same
//     offer stream). Re-announce for complete records.
//
// Not synchronized with concurrent engine use — call while the engine is
// quiescent.
func (e *Engine) SetProvenance(on bool) {
	e.mu.Lock()
	e.provOn = on
	e.mu.Unlock()
}

// ProvenanceEnabled reports whether the engine records route provenance.
func (e *Engine) ProvenanceEnabled() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.provOn
}

// Provenance returns the decision record for (prefix, asn). ok is false when
// provenance is disabled, the AS's routing state was computed without
// recording (see SetProvenance), or the AS holds no routing state for it.
func (e *Engine) Provenance(prefix netip.Prefix, asn topo.ASN) (Provenance, bool) {
	i, known := e.asIdx[asn]
	if !known {
		return Provenance{}, false
	}
	t := e.Table(prefix)
	return t.Provenance(i)
}

// record hangs a decision record on every recomputed AS's fresh rib after a
// converge, walking the recomputed ASes (dirty, ascending). The records
// share one block sized to the recomputed ASes that hold routes; clean ASes
// keep their ribs, and with them their records.
func (e *Engine) record(ribs ribTable, dirty []int32, pr *provRecorder) {
	held := 0
	for _, i := range dirty {
		if ribs[i] != nil {
			held++
		}
	}
	block := make([]Provenance, 0, held)
	for _, i := range dirty {
		rb := ribs[i]
		if rb == nil {
			continue
		}
		if p := e.buildProv(int(i), rb, pr); p.Valid {
			block = append(block, p)
			rb.prov = &block[len(block)-1]
		}
	}
}

// provString renders a provenance record for debugging.
func (p Provenance) String() string {
	if !p.Valid {
		return "no-route"
	}
	s := fmt.Sprintf("%s via %s (%d alt), %s", p.WinnerClass, p.winner.String(), p.AltInClass, p.Step)
	if p.HasRunnerUp {
		s += fmt.Sprintf(" over %s %s", p.RunnerClass, p.runnerUp.String())
	}
	return s
}
