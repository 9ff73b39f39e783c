package glass

import (
	"fmt"

	"anysim/internal/bgp"
	"anysim/internal/topo"
)

// MoveCause classifies why a probe group's catchment moved between two
// captured states. Every moved group gets exactly one cause: announcement
// deltas are checked first (a site that stopped or started announcing the
// group's prefix explains the move outright), then the decision chains are
// compared hop by hop and the pivot AS's provenance names the policy step
// that flipped.
type MoveCause string

// Move causes.
const (
	// CauseSiteWithdrawn: the site that served the group no longer
	// announces its prefix — classic anycast failover.
	CauseSiteWithdrawn MoveCause = "site-withdrawn"
	// CauseSiteRestored: the new serving site was not announcing before —
	// the group returned (or was newly attracted) to a restored site.
	CauseSiteRestored MoveCause = "site-restored"
	// CausePolicyShift: some AS on the path changed its selection at
	// local-pref or path length (its winning class or path length moved).
	CausePolicyShift MoveCause = "policy-shift"
	// CauseTieBreakShift: the pivot AS kept class and path length but its
	// equal-preference tie-break now picks a different neighbour/egress.
	CauseTieBreakShift MoveCause = "tie-break-shift"
	// CausePolicyFilter: the pivot AS's best alternative was rejected by
	// the community/policy layer on exactly one side — the move is the
	// policy filter appearing (or disappearing), not a decision-process
	// shift.
	CausePolicyFilter MoveCause = "policy-filter"
	// CauseLostRoute / CauseGainedRoute: the group went dark or came back.
	CauseLostRoute   MoveCause = "lost-route"
	CauseGainedRoute MoveCause = "gained-route"
)

// Move is one group's catchment change, with its attributed cause.
type Move struct {
	Group    string  `json:"group"`
	Prefix   string  `json:"prefix"`
	FromSite string  `json:"from_site"`
	ToSite   string  `json:"to_site"`
	DeltaRTT float64 `json:"delta_rtt_ms"`
	// Cause is the provenance-attributed reason; PivotASN is the AS whose
	// decision flipped (0 when the cause is an announcement delta).
	Cause    MoveCause `json:"cause"`
	PivotASN topo.ASN  `json:"pivot_asn,omitempty"`
	// Pathology before/after: how the move changed the group's class.
	ClassBefore Pathology `json:"class_before"`
	ClassAfter  Pathology `json:"class_after"`
}

// DiffReport is the classified churn between two captured catchment states.
type DiffReport struct {
	Dep string `json:"dep"`
	// Groups is the compared population size; Moved counts groups whose
	// serving site changed (including lost/gained service).
	Groups int    `json:"groups"`
	Moved  int    `json:"moved"`
	Moves  []Move `json:"moves"`
	// ByCause tallies moves per cause, sorted by cause name.
	ByCause []CauseCount `json:"by_cause"`
}

// CauseCount is one cause's tally.
type CauseCount struct {
	Cause MoveCause `json:"cause"`
	N     int       `json:"n"`
}

// Diff compares two captured catchment states of the same deployment and
// probe population, attributing a cause to every moved group. The captures
// must cover identical group sets (they do whenever both came from the same
// world's probe platform).
func Diff(before, after CatchmentSet) (DiffReport, error) {
	if before.Dep != after.Dep {
		return DiffReport{}, fmt.Errorf("glass: diff across deployments %q vs %q", before.Dep, after.Dep)
	}
	if len(before.Groups) != len(after.Groups) {
		return DiffReport{}, fmt.Errorf("glass: group sets differ: %d vs %d", len(before.Groups), len(after.Groups))
	}
	rep := DiffReport{Dep: before.Dep, Groups: len(before.Groups)}
	counts := map[MoveCause]int{}
	for i := range before.Groups {
		b, a := before.Groups[i], after.Groups[i]
		if b.Group != a.Group {
			return DiffReport{}, fmt.Errorf("glass: group mismatch at %d: %q vs %q", i, b.Group, a.Group)
		}
		if b.Served == a.Served && b.Site == a.Site {
			continue
		}
		mv := Move{
			Group:       b.Group,
			Prefix:      b.Prefix.String(),
			FromSite:    b.Site,
			ToSite:      a.Site,
			DeltaRTT:    a.RTTMs - b.RTTMs,
			ClassBefore: b.Class,
			ClassAfter:  a.Class,
		}
		mv.Cause, mv.PivotASN = attribute(&before, &after, b, a)
		counts[mv.Cause]++
		rep.Moves = append(rep.Moves, mv)
	}
	rep.Moved = len(rep.Moves)
	for _, c := range []MoveCause{CauseGainedRoute, CauseLostRoute, CausePolicyFilter, CausePolicyShift, CauseSiteRestored, CauseSiteWithdrawn, CauseTieBreakShift} {
		if n := counts[c]; n > 0 {
			rep.ByCause = append(rep.ByCause, CauseCount{Cause: c, N: n})
		}
	}
	return rep, nil
}

// attribute names the cause of one group's move. The case analysis is
// exhaustive, so every move is attributed.
func attribute(before, after *CatchmentSet, b, a *GroupView) (MoveCause, topo.ASN) {
	switch {
	case !b.Served && a.Served:
		return CauseGainedRoute, 0
	case b.Served && !a.Served:
		return CauseLostRoute, 0
	case !after.announcedSite(b.Prefix, b.Site):
		return CauseSiteWithdrawn, 0
	case !before.announcedSite(a.Prefix, a.Site):
		return CauseSiteRestored, 0
	}
	// Same announcement set on both sides: some AS changed its mind. Find
	// the pivot — the last common AS before the paths diverge (the client
	// AS itself when only the site changed) — and let its decision records
	// name the step.
	pivot := min(len(b.hops), len(a.hops)) - 1
	for k := 1; k < len(b.hops) && k < len(a.hops); k++ {
		if b.hops[k].asn != a.hops[k].asn {
			pivot = k - 1
			break
		}
	}
	hb, ha := b.hops[pivot], a.hops[pivot]
	// A community-dropped runner-up on exactly one side means the policy
	// filter itself is what changed at the pivot.
	bPol := hb.valid && hb.hasRunnerUp && hb.step == bgp.StepCommunity
	aPol := ha.valid && ha.hasRunnerUp && ha.step == bgp.StepCommunity
	if bPol != aPol {
		return CausePolicyFilter, hb.asn
	}
	if hb.valid && ha.valid && hb.winnerClass == ha.winnerClass && hb.winnerLen == ha.winnerLen {
		return CauseTieBreakShift, hb.asn
	}
	return CausePolicyShift, hb.asn
}
