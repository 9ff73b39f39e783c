package core

import (
	"sort"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/topo"
)

// Cause classifies why regional anycast reduced a probe group's latency
// relative to global anycast (§5.4).
type Cause uint8

// Latency-reduction causes.
const (
	// CauseASRelationship: with global anycast, some AS on the path chose a
	// more-preferred relationship class (e.g. a customer route) leading to
	// a distant site; the regional prefix is not available over that class,
	// forcing a less-preferred but closer route.
	CauseASRelationship Cause = iota
	// CausePeeringType: the global route was preferred because public
	// (bilateral) peering beats route-server peering; the regional prefix
	// arrives via the route server only (Figure 7).
	CausePeeringType
	// CauseUnknown: the improvement cannot be attributed (same classes,
	// tie-breaks, or insufficient visibility), mirroring the paper's
	// unattributed majority remainder.
	CauseUnknown
)

var causeNames = map[Cause]string{
	CauseASRelationship: "override-AS-relationship",
	CausePeeringType:    "override-peering-type",
	CauseUnknown:        "unknown",
}

// String names the cause.
func (c Cause) String() string { return causeNames[c] }

// CauseBreakdown summarises the §5.4 analysis.
type CauseBreakdown struct {
	// ImprovedGroups is the number of groups with >5 ms regional latency
	// reduction that were analysed.
	ImprovedGroups int
	Counts         map[Cause]int
	// PeeringTypeHidden counts cases that are peering-type overrides in
	// ground truth but unclassifiable because the IXP does not publish
	// route-server feeds — the paper's reason for its low 1.6% figure.
	PeeringTypeHidden int
}

// Fraction returns the share of improved groups attributed to the cause.
func (b *CauseBreakdown) Fraction(c Cause) float64 {
	if b.ImprovedGroups == 0 {
		return 0
	}
	return float64(b.Counts[c]) / float64(b.ImprovedGroups)
}

// ClassifyCauses attributes every >5 ms-improved group in the comparison to
// a cause by re-examining the BGP state: it finds the divergence AS of the
// group's global and regional forwarding paths and compares the
// relationship classes that AS selected for the two prefixes.
//
// publishedFeeds lists the IXPs whose route-server feeds are public; a
// peering-type override at an IXP outside this set is counted as hidden
// (and reported as unknown), reproducing the paper's visibility limit.
func ClassifyCauses(eng *bgp.Engine, regRes, globRes *Result, cmp *Comparison, mode atlas.DNSMode, publishedFeeds map[string]bool) *CauseBreakdown {
	regGroups, globGroups := GroupMeasurements(regRes), GroupMeasurements(globRes)
	out := &CauseBreakdown{Counts: map[Cause]int{}}

	for _, pair := range cmp.Pairs {
		if RTTClassOf(pair) != BetterRTT {
			continue
		}
		fwdR, fwdG, ok := pairForwards(regGroups, globGroups, pair.Key, mode)
		if !ok {
			continue
		}
		out.ImprovedGroups++
		cause, hidden := classifyPair(eng, fwdR, fwdG, publishedFeeds)
		out.Counts[cause]++
		if hidden {
			out.PeeringTypeHidden++
		}
	}
	return out
}

// pairForwards returns the representative forwarding decisions of the
// group with the key in the regional and the global grouping; ok is false
// when either grouping lacks the group or its group has none.
func pairForwards(regGroups, globGroups []*Group, key string, mode atlas.DNSMode) (fwdR, fwdG bgp.Forward, ok bool) {
	gr, okR := findGroup(regGroups, key)
	gg, okG := findGroup(globGroups, key)
	if !okR || !okG {
		return fwdR, fwdG, false
	}
	fwdR, okR = representativeForward(gr, mode)
	fwdG, okG = representativeForward(gg, mode)
	return fwdR, fwdG, okR && okG
}

// representativeForward returns the first member's forwarding decision for
// the VIP returned in the mode.
func representativeForward(g *Group, mode atlas.DNSMode) (bgp.Forward, bool) {
	for _, m := range g.Members {
		vip, ok := m.Returned[mode]
		if !ok || !vip.IsValid() {
			continue
		}
		if fwd, ok := m.Fwd[vip]; ok {
			return fwd, true
		}
	}
	return bgp.Forward{}, false
}

// CauseDetail carries the evidence behind a cause attribution.
type CauseDetail struct {
	Divergence topo.ASN
	// ClassGlobal / ClassRegional are the divergence AS's route classes
	// for the global and regional prefixes.
	ClassGlobal, ClassRegional bgp.RelClass
	// IXP is the exchange carrying the regional route's route-server
	// session, when relevant.
	IXP string
}

// classifyPair compares the relationship classes at the divergence AS of
// the global and regional paths.
func classifyPair(eng *bgp.Engine, fwdR, fwdG bgp.Forward, publishedFeeds map[string]bool) (Cause, bool) {
	cause, hidden, _ := classifyPairDetail(eng, fwdR, fwdG, publishedFeeds)
	return cause, hidden
}

func classifyPairDetail(eng *bgp.Engine, fwdR, fwdG bgp.Forward, publishedFeeds map[string]bool) (Cause, bool, CauseDetail) {
	div, ok := divergenceAS(fwdG.Path, fwdR.Path)
	if !ok {
		return CauseUnknown, false, CauseDetail{}
	}
	clsG, _, okG := eng.Routes(fwdG.Prefix, div)
	clsR, _, okR := eng.Routes(fwdR.Prefix, div)
	if div == fwdG.Path[0] {
		// At the client AS, Forward.Rel is the authoritative class.
		clsG, okG = fwdG.Rel, true
		clsR, okR = fwdR.Rel, true
	}
	detail := CauseDetail{Divergence: div, ClassGlobal: clsG, ClassRegional: clsR}
	if !okG || !okR || clsG >= clsR {
		return CauseUnknown, false, detail
	}
	if clsG == bgp.FromPublicPeer && clsR == bgp.FromRSPeer {
		// Identify the IXP carrying the route-server session out of the
		// divergence AS on the regional path.
		ix := ixpAfter(eng.Topology(), fwdR.Path, div)
		detail.IXP = ix
		if ix != "" && !publishedFeeds[ix] {
			return CauseUnknown, true, detail
		}
		return CausePeeringType, false, detail
	}
	return CauseASRelationship, false, detail
}

// CauseExample is a fully-described instance of a latency-reduction cause
// (the raw material of the paper's Figures 1 and 7).
type CauseExample struct {
	Pair   GroupPair
	Cause  Cause
	Detail CauseDetail
	// Paths are the AS paths under the two configurations.
	GlobalPath, RegionalPath []topo.ASN
}

// FindCauseExamples returns up to limit improved groups attributed to the
// wanted cause, with full path evidence, ordered by latency reduction
// (largest first).
func FindCauseExamples(eng *bgp.Engine, regRes, globRes *Result, cmp *Comparison, mode atlas.DNSMode, want Cause, publishedFeeds map[string]bool, limit int) []CauseExample {
	regGroups, globGroups := GroupMeasurements(regRes), GroupMeasurements(globRes)
	var out []CauseExample
	pairs := append([]GroupPair(nil), cmp.Pairs...)
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].DeltaRTT() < pairs[j].DeltaRTT() })
	for _, pair := range pairs {
		if len(out) >= limit {
			break
		}
		if RTTClassOf(pair) != BetterRTT {
			continue
		}
		fwdR, fwdG, ok := pairForwards(regGroups, globGroups, pair.Key, mode)
		if !ok {
			continue
		}
		cause, _, detail := classifyPairDetail(eng, fwdR, fwdG, publishedFeeds)
		if cause != want {
			continue
		}
		out = append(out, CauseExample{
			Pair:         pair,
			Cause:        cause,
			Detail:       detail,
			GlobalPath:   fwdG.Path,
			RegionalPath: fwdR.Path,
		})
	}
	return out
}

// divergenceAS returns the last AS common to both paths before they part
// ways. ok is false when the paths are identical.
func divergenceAS(a, b []topo.ASN) (topo.ASN, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if i == 0 {
				return 0, false // different client AS: not comparable
			}
			return a[i-1], true
		}
	}
	if len(a) != len(b) {
		return a[n-1], true
	}
	return 0, false
}

// ixpAfter returns the IXP of the link leaving div on the path, if any.
func ixpAfter(tp *topo.Topology, path []topo.ASN, div topo.ASN) string {
	for i := 0; i+1 < len(path); i++ {
		if path[i] == div {
			if l, ok := tp.LinkBetween(path[i], path[i+1]); ok {
				return l.IXP
			}
			return ""
		}
	}
	return ""
}
