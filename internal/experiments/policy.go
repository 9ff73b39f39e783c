package experiments

import (
	"fmt"
	"net/netip"
	"slices"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/glass"
	"anysim/internal/policy"
	"anysim/internal/stats"
	"anysim/internal/topo"
)

// x6Policy is the RFC6-style metro policy: tag every route with the metro
// it entered at. The offload itself is expressed per announcement with the
// well-known no-peer-metro scope community (suppress the announcement on
// same-metro peer and route-server sessions), which only takes effect when
// a policy layer like this one is installed.
const x6Policy = `policy metro-offload
import -> tag-metro
`

// MetroOffloadRun is one deployment's before/after measurement.
type MetroOffloadRun struct {
	Dep    string `json:"dep"`
	Groups int    `json:"groups"`
	// CommunityDropped counts (AS, prefix) decision records whose best
	// runner-up was community-dropped: the peer routes the scope community
	// actually suppressed.
	CommunityDropped int `json:"community_dropped"`
	// OffloadedAS counts ASes whose winning route left the metro peering
	// fabric for transit (peer/rs-peer winner became a provider winner);
	// Offloaded counts the probe groups those ASes serve — the offloaded
	// traffic share. SameMetroOffloaded is the subset that was served by a
	// site in the group's own metro before the policy: exactly the
	// same-metro peering traffic RFC6 pushes off the local fabric.
	OffloadedAS        int `json:"offloaded_as"`
	Offloaded          int `json:"offloaded"`
	SameMetroOffloaded int `json:"same_metro_offloaded"`
	// SiteMoves counts groups whose serving site changed outright;
	// PolicyFilterMoves counts those the looking glass attributes to the
	// policy-filter cause.
	SiteMoves         int `json:"site_moves"`
	PolicyFilterMoves int `json:"policy_filter_moves"`
	// P90Before/P90After are served-group RTT 90th percentiles (ms).
	P90Before float64 `json:"p90_before_ms"`
	P90After  float64 `json:"p90_after_ms"`
}

// MetroOffloadData is the X6 result.
type MetroOffloadData struct {
	PolicyHash string              `json:"policy_hash"`
	Regional   MetroOffloadRun     `json:"regional"`
	Global     MetroOffloadRun     `json:"global"`
	Diffs      []*glass.DiffReport `json:"-"`
}

// MetroOffload (X6) mirrors DoubleZero's RFC6 metro-routing policy on the
// simulated platform: every site re-announces its prefixes scoped with
// no-peer-metro:<own metro>, so same-metro public-peer and route-server
// sessions stop hearing the route and the local peering catchment spills
// to transit. The experiment measures, for the regional (Imperva-6) and
// global (Imperva-NS) deployments, how much traffic the policy offloads,
// how much of it was same-metro (the traffic RFC6 targets), what the p90
// RTT pays for it, and whether the looking glass can attribute the moves
// to the policy filter (community-dropped runner-ups at the pivot ASes).
//
// Both measurements run on engine forks, so the shared world stays
// bit-identical for later experiments.
func MetroOffload(ctx *Context) (*Report, error) {
	w := ctx.World
	probes := w.Platform.Retained()
	pol := policy.MustParse(x6Policy)

	data := &MetroOffloadData{PolicyHash: pol.Hash()}
	for _, d := range []struct {
		dep *cdn.Deployment
		out *MetroOffloadRun
	}{
		{w.Imperva.IM6, &data.Regional},
		{w.Imperva.NS, &data.Global},
	} {
		run, diff, err := metroOffloadRun(ctx, d.dep, pol, probes)
		if err != nil {
			return nil, fmt.Errorf("experiments: X6 %s: %w", d.dep.Name, err)
		}
		*d.out = run
		data.Diffs = append(data.Diffs, diff)
	}

	tb := &stats.Table{Header: []string{"metric", "IM6 (regional)", "NS (global)"}}
	rows := []struct {
		name string
		of   func(MetroOffloadRun) string
	}{
		{"probe groups", func(r MetroOffloadRun) string { return fmt.Sprint(r.Groups) }},
		{"community-dropped routes", func(r MetroOffloadRun) string { return fmt.Sprint(r.CommunityDropped) }},
		{"ASes peering -> transit", func(r MetroOffloadRun) string { return fmt.Sprint(r.OffloadedAS) }},
		{"groups offloaded", func(r MetroOffloadRun) string {
			return fmt.Sprintf("%d (%s)", r.Offloaded, pct(r.Offloaded, r.Groups))
		}},
		{"same-metro offloaded", func(r MetroOffloadRun) string { return fmt.Sprint(r.SameMetroOffloaded) }},
		{"site moves", func(r MetroOffloadRun) string { return fmt.Sprint(r.SiteMoves) }},
		{"policy-filter moves", func(r MetroOffloadRun) string { return fmt.Sprint(r.PolicyFilterMoves) }},
		{"p90 RTT before (ms)", func(r MetroOffloadRun) string { return fmt.Sprintf("%.1f", r.P90Before) }},
		{"p90 RTT after (ms)", func(r MetroOffloadRun) string { return fmt.Sprintf("%.1f", r.P90After) }},
	}
	for _, row := range rows {
		tb.AddRow(row.name, row.of(data.Regional), row.of(data.Global))
	}
	text := fmt.Sprintf("metro-offload policy %s: suppress same-metro peer routes via no-peer-metro\n\n",
		data.PolicyHash) + tb.String()

	regPenalty := data.Regional.P90After - data.Regional.P90Before
	globPenalty := data.Global.P90After - data.Global.P90Before
	verdict := "regional"
	if globPenalty < regPenalty ||
		(globPenalty == regPenalty && data.Global.Offloaded > data.Regional.Offloaded) {
		verdict = "global"
	}
	text += fmt.Sprintf("\np90 penalty: regional %+.1f ms, global %+.1f ms — %s anycast absorbs the metro offload more cheaply\n",
		regPenalty, globPenalty, verdict)
	return &Report{Text: text, Data: data}, nil
}

// metroOffloadRun measures one deployment: a provenance-enabled baseline
// fork vs a fork running the metro policy with scoped announcements.
func metroOffloadRun(ctx *Context, dep *cdn.Deployment, pol *policy.Policy, probes []*atlas.Probe) (MetroOffloadRun, *glass.DiffReport, error) {
	w := ctx.World
	prefixes := depPrefixes(dep)

	base := w.Engine.Fork()
	base.SetProvenance(true)
	for _, p := range prefixes {
		if err := base.Announce(p, base.Announcements(p)); err != nil {
			return MetroOffloadRun{}, nil, err
		}
	}
	before, err := glass.Capture(base, dep, w.Measurer, probes)
	if err != nil {
		return MetroOffloadRun{}, nil, err
	}

	pe := w.Engine.Fork()
	pe.SetPolicy(pol)
	pe.SetProvenance(true)
	for _, p := range prefixes {
		anns := slices.Clone(pe.Announcements(p))
		for i := range anns {
			scope, serr := policy.NoPeerMetro(anns[i].City)
			if serr != nil {
				continue // non-IATA metro: nothing to scope
			}
			anns[i].Communities = append(slices.Clone(anns[i].Communities), scope)
		}
		if err := pe.Announce(p, anns); err != nil {
			return MetroOffloadRun{}, nil, err
		}
	}
	after, err := glass.Capture(pe, dep, w.Measurer, probes)
	if err != nil {
		return MetroOffloadRun{}, nil, err
	}

	diff, err := glass.Diff(before, after)
	if err != nil {
		return MetroOffloadRun{}, nil, err
	}
	run := MetroOffloadRun{
		Dep:       dep.Name,
		Groups:    diff.Groups,
		SiteMoves: diff.Moved,
		P90Before: servedP90(before),
		P90After:  servedP90(after),
	}
	for _, m := range diff.Moves {
		if m.Cause == glass.CausePolicyFilter {
			run.PolicyFilterMoves++
		}
	}

	// Route-level offload: ASes whose winner left the peering fabric for
	// transit under the scope community. The catchment site usually does
	// not change (the transit path reaches the same nearest site), so this
	// is where the offloaded traffic share lives, not in site moves.
	offloaded := map[offloadKey]bool{}
	for _, p := range prefixes {
		for _, asn := range w.Topo.ASNs() {
			pp, okP := pe.Provenance(p, asn)
			if okP && pp.Valid && pp.HasRunnerUp && pp.Step == bgp.StepCommunity {
				run.CommunityDropped++
			}
			bp, okB := base.Provenance(p, asn)
			if !okB || !okP || !bp.Valid || !pp.Valid {
				continue
			}
			wasPeering := bp.WinnerClass == bgp.FromPublicPeer || bp.WinnerClass == bgp.FromRSPeer
			if wasPeering && pp.WinnerClass == bgp.FromProvider {
				offloaded[offloadKey{p, asn}] = true
				run.OffloadedAS++
			}
		}
	}
	for i, g := range after.Groups {
		if !g.Served {
			continue
		}
		city, asn, ok := atlas.ParseGroupKey(g.Group)
		if !ok || !offloaded[offloadKey{g.Prefix, asn}] {
			continue
		}
		run.Offloaded++
		// Capture sorts groups by key, so index i is the same group in the
		// before set (Diff already refused mismatched populations).
		if before.Groups[i].SiteCity == city {
			run.SameMetroOffloaded++
		}
	}
	return run, &diff, nil
}

// offloadKey identifies one AS's routing decision for one prefix.
type offloadKey struct {
	prefix netip.Prefix
	asn    topo.ASN
}

// depPrefixes lists a deployment's announced prefixes in region order.
func depPrefixes(dep *cdn.Deployment) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(dep.Regions))
	for _, r := range dep.Regions {
		out = append(out, r.Prefix)
	}
	return out
}

// servedP90 is the 90th-percentile RTT over served groups.
func servedP90(set glass.CatchmentSet) float64 {
	var rtts []float64
	for _, g := range set.Groups {
		if g.Served {
			rtts = append(rtts, g.RTTMs)
		}
	}
	return stats.Percentile(rtts, 90)
}
