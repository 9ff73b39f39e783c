package glass

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/geo"
	"anysim/internal/topo"
)

// Pathology classifies why a probe group's catchment is (in)efficient, in
// the paper's taxonomy (§2.1, §5.4).
type Pathology string

// Pathology classes.
const (
	// Efficient: the serving site is within InflationThresholdMs of the
	// nearest announced site.
	Efficient Pathology = "efficient"
	// PolicyOverGeography: some AS on the path rejected a route toward a
	// closer site at local-pref or path-length — policy beat geography.
	PolicyOverGeography Pathology = "policy-over-geography"
	// HotPotatoEgress: the inflation comes from an equal-preference
	// tie-break — an AS held a route toward a closer site in the same class
	// and its egress ranking (arbitrary or hot-potato) picked the other.
	HotPotatoEgress Pathology = "hot-potato-egress"
	// NoRegionalRoute: no AS on the path ever heard a route toward a
	// closer site — the closer site's announcement does not reach this
	// corner of the topology.
	NoRegionalRoute Pathology = "no-regional-route"
)

// InflationThresholdMs is the one-way fiber-latency inflation above which a
// catchment counts as inefficient (the paper's 5 ms bar for "meaningfully
// worse than the best site").
const InflationThresholdMs = 5.0

// CatchmentExplanation explains where one <city,AS> probe group lands and
// why. Serving state comes from the group's representative probe (lowest
// ID), matching the dynamics analyses.
type CatchmentExplanation struct {
	Group   string   `json:"group"`
	City    string   `json:"city"`
	ASN     topo.ASN `json:"asn"`
	Country string   `json:"country"`
	Area    string   `json:"area"`
	// Region / Prefix are the operator-intended mapping for the group's
	// country and the anycast prefix it resolves to.
	Region string       `json:"region"`
	Prefix netip.Prefix `json:"prefix"`
	// Served is false when the group has no route to the prefix.
	Served   bool    `json:"served"`
	Site     string  `json:"site,omitempty"`
	SiteCity string  `json:"site_city,omitempty"`
	RTTMs    float64 `json:"rtt_ms,omitempty"`
	// NearestSite is the announced site geographically nearest the group;
	// InflationMs is the extra one-way fiber latency of the actual
	// catchment over it.
	NearestSite string    `json:"nearest_site"`
	NearestKm   float64   `json:"nearest_km"`
	ActualKm    float64   `json:"actual_km,omitempty"`
	InflationMs float64   `json:"inflation_ms"`
	Class       Pathology `json:"class"`
	// Exp is the hop-by-hop decision chain (empty when unserved).
	Exp Explanation `json:"exp"`
}

// ExplainCatchment maps a <city,AS> probe group (key "CITY|ASN") of a
// deployment to its serving site with per-hop justification and a pathology
// class. Probes are the platform's retained population.
func ExplainCatchment(e *bgp.Engine, dep *cdn.Deployment, m *atlas.Measurer, probes []*atlas.Probe, group string) (CatchmentExplanation, error) {
	rep := representative(probes, group)
	if rep == nil {
		return CatchmentExplanation{}, fmt.Errorf("glass: no probe in group %q", group)
	}
	return explainProbe(e, dep, m.WithEngine(e), rep)
}

// representative returns the lowest-ID probe of a group.
func representative(probes []*atlas.Probe, group string) *atlas.Probe {
	var rep *atlas.Probe
	for _, p := range probes {
		if p.GroupKey() != group {
			continue
		}
		if rep == nil || p.ID < rep.ID {
			rep = p
		}
	}
	return rep
}

// explainProbe builds the catchment explanation for one probe.
func explainProbe(e *bgp.Engine, dep *cdn.Deployment, m *atlas.Measurer, p *atlas.Probe) (CatchmentExplanation, error) {
	region, ok := dep.RegionForCountry(p.Country)
	if !ok {
		return CatchmentExplanation{}, fmt.Errorf("glass: %s maps no region for country %s", dep.Name, p.Country)
	}
	ce := CatchmentExplanation{
		Group:   p.GroupKey(),
		City:    p.City,
		ASN:     p.ASN,
		Country: p.Country,
		Area:    p.Area().String(),
		Region:  region.Name,
		Prefix:  region.Prefix,
	}
	ce.NearestSite, ce.NearestKm = nearestAnnouncedSite(e, dep, region.Prefix, p.City)
	fwd, ok := m.Forward(p, region.Prefix)
	if !ok {
		ce.Class = NoRegionalRoute
		return ce, nil
	}
	ce.Served = true
	ce.Site = fwd.Site
	ce.SiteCity = fwd.SiteCity()
	ce.RTTMs = m.RTT(p, fwd)
	ce.ActualKm = fwd.DistKm
	ce.Exp = explainForward(e, fwd, p.ASN, p.City)
	ce.InflationMs = geo.FiberRTTMs(ce.ActualKm) - geo.FiberRTTMs(ce.NearestKm)
	ce.Class = classify(ce)
	return ce, nil
}

// nearestAnnouncedSite returns the announced site of the prefix nearest to
// the client city (great-circle), with deterministic site-ID tie-break.
func nearestAnnouncedSite(e *bgp.Engine, dep *cdn.Deployment, prefix netip.Prefix, city string) (string, float64) {
	bestSite, bestKm := "", 0.0
	for _, a := range e.Announcements(prefix) {
		s, ok := dep.SiteByID(a.Site)
		if !ok {
			continue
		}
		d := kmBetween(city, s.City)
		if bestSite == "" || d < bestKm || (d == bestKm && a.Site < bestSite) {
			bestSite, bestKm = a.Site, d
		}
	}
	return bestSite, bestKm
}

// classify assigns the pathology class of a served catchment: efficient when
// inflation is under the threshold, otherwise the decision step of the first
// hop (client-outward) that rejected a route toward a strictly closer site —
// policy steps mean policy-over-geography, tie-breaks mean hot-potato
// egress, and no such hop means the closer site is simply unreachable from
// this path (no-regional-route).
func classify(ce CatchmentExplanation) Pathology {
	if ce.InflationMs <= InflationThresholdMs {
		return Efficient
	}
	for _, h := range ce.Exp.Hops {
		p, ok := h.Prov()
		if !ok || !p.HasRunnerUp {
			continue
		}
		if kmBetween(ce.City, p.RunnerUp().SiteCity()) >= kmBetween(ce.City, ce.SiteCity) {
			continue
		}
		switch p.Step {
		case bgp.StepLocalPref, bgp.StepPathLen, bgp.StepCommunity:
			return PolicyOverGeography
		case bgp.StepTieBreak:
			return HotPotatoEgress
		}
	}
	return NoRegionalRoute
}

// GroupView is one probe group's captured catchment state: the compact,
// diffable form of a CatchmentExplanation.
type GroupView struct {
	Group       string       `json:"group"`
	Prefix      netip.Prefix `json:"prefix"`
	Served      bool         `json:"served"`
	Site        string       `json:"site,omitempty"`
	SiteCity    string       `json:"site_city,omitempty"`
	RTTMs       float64      `json:"rtt_ms,omitempty"`
	InflationMs float64      `json:"inflation_ms"`
	Class       Pathology    `json:"class"`

	hops []Hop
}

// PrefixSites lists the sites announcing one prefix at capture time.
type PrefixSites struct {
	Prefix string   `json:"prefix"`
	Sites  []string `json:"sites"`
}

// CatchmentSet is a full captured catchment state of a deployment: every
// <city,AS> group of the probe population, sorted by group key, plus the
// announcement state needed to attribute later moves to site operations.
type CatchmentSet struct {
	Dep       string        `json:"dep"`
	Groups    []GroupView   `json:"groups"`
	Announced []PrefixSites `json:"announced"`
}

// Capture snapshots the catchment of every probe group. It is a pure
// function of engine state and the probe set, so two captures of identical
// worlds are deeply equal. The measurer is rebound to e, so capturing an
// engine fork (a what-if world) works with the shared measurer: routing
// comes from e, measurement noise from the measurer's own seed.
func Capture(e *bgp.Engine, dep *cdn.Deployment, m *atlas.Measurer, probes []*atlas.Probe) (CatchmentSet, error) {
	m = m.WithEngine(e)
	reps := map[string]*atlas.Probe{}
	for _, p := range probes {
		k := p.GroupKey()
		if rep, ok := reps[k]; !ok || p.ID < rep.ID {
			reps[k] = p
		}
	}
	keys := make([]string, 0, len(reps))
	for k := range reps {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	set := CatchmentSet{Dep: dep.Name, Groups: make([]GroupView, 0, len(keys))}
	for _, k := range keys {
		ce, err := explainProbe(e, dep, m, reps[k])
		if err != nil {
			return CatchmentSet{}, err
		}
		set.Groups = append(set.Groups, GroupView{
			Group:       ce.Group,
			Prefix:      ce.Prefix,
			Served:      ce.Served,
			Site:        ce.Site,
			SiteCity:    ce.SiteCity,
			RTTMs:       ce.RTTMs,
			InflationMs: ce.InflationMs,
			Class:       ce.Class,
			hops:        ce.Exp.Hops,
		})
	}
	for _, prefix := range e.Prefixes() {
		anns := e.Announcements(prefix)
		if len(anns) == 0 {
			continue
		}
		ps := PrefixSites{Prefix: prefix.String()}
		for _, a := range anns {
			ps.Sites = append(ps.Sites, a.Site)
		}
		slices.Sort(ps.Sites)
		set.Announced = append(set.Announced, ps)
	}
	slices.SortFunc(set.Announced, func(a, b PrefixSites) int { return strings.Compare(a.Prefix, b.Prefix) })
	return set, nil
}

// announcedSite reports whether a site announced the prefix at capture time.
func (s *CatchmentSet) announcedSite(prefix netip.Prefix, site string) bool {
	key := prefix.String()
	for _, ps := range s.Announced {
		if ps.Prefix == key {
			return slices.Contains(ps.Sites, site)
		}
	}
	return false
}
