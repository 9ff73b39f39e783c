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

// ExplainCatchment maps a <city,AS> probe group (key "CITY|ASN", as
// atlas.GroupKey renders it) of a deployment to its serving site with
// per-hop justification and a pathology class. Probes are the platform's
// retained population; the group's representative is found by a scan that
// allocates nothing (atlas.Representative).
func ExplainCatchment(e *bgp.Engine, dep *cdn.Deployment, m *atlas.Measurer, probes []*atlas.Probe, group string) (CatchmentExplanation, error) {
	rep := atlas.Representative(probes, group)
	if rep == nil {
		return CatchmentExplanation{}, fmt.Errorf("glass: no probe in group %q", group)
	}
	var tabs tableMemo
	ce, fwd, _, err := explainProbe(e, dep, m, rep, group, nearestMemo{}, &tabs)
	if ce.Served {
		tab := tabs.get(e, ce.Prefix)
		ce.Exp = explainForward(e.Topology(), &tab, fwd, rep.ASN, rep.City)
	}
	return ce, err
}

// explainProbe builds the catchment explanation of one probe of group, all
// but its rendered hop chain (ce.Exp), and returns with it the probe's
// forward and that forward's hop records, both empty when it is unserved.
// Routing comes from e, read through tabs; m supplies only the measurement
// noise.
func explainProbe(e *bgp.Engine, dep *cdn.Deployment, m *atlas.Measurer, p *atlas.Probe, group string, near nearestMemo, tabs *tableMemo) (CatchmentExplanation, bgp.Forward, []hop, error) {
	region, ok := dep.RegionForCountry(p.Country)
	if !ok {
		return CatchmentExplanation{}, bgp.Forward{}, nil, fmt.Errorf("glass: %s maps no region for country %s", dep.Name, p.Country)
	}
	ce := CatchmentExplanation{
		Group:   group,
		City:    p.City,
		ASN:     p.ASN,
		Country: p.Country,
		Area:    p.Area().String(),
		Region:  region.Name,
		Prefix:  region.Prefix,
	}
	client, _ := geo.CityIDOf(p.City)
	ce.NearestSite, ce.NearestKm = near.get(e, dep, region.Prefix, client)
	tab := tabs.get(e, region.Prefix)
	ai, known := e.Topology().ASIndex(p.ASN)
	r, cls, distKm, ok := tab.Route(ai, client)
	if !known || !ok {
		ce.Class = NoRegionalRoute
		return ce, bgp.Forward{}, nil, nil
	}
	fwd := tab.Forward(p.ASN, r, cls, distKm)
	ce.Served = true
	ce.Site = fwd.Site
	ce.SiteCity = fwd.SiteCity()
	ce.RTTMs = m.RTT(p, fwd)
	ce.ActualKm = fwd.DistKm
	hops := hopRecords(e.Topology(), &tab, fwd, client, r.SiteCityID())
	ce.InflationMs = geo.FiberRTTMs(ce.ActualKm) - geo.FiberRTTMs(ce.NearestKm)
	ce.Class = classify(ce.InflationMs, hops)
	return ce, fwd, hops, nil
}

// nearestMemo memoizes nearestAnnouncedSite per (prefix, client city)
// within one engine state: groups sharing a city share the answer.
type nearestMemo map[nearestKey]nearestSite

// tableMemo holds the rib tables of one engine state's prefixes, so each
// is taken once per capture instead of once per lookup and hop. A
// deployment has a few prefixes, so a scan of an array the memo carries
// beats a map.
type tableMemo struct {
	tabs [8]bgp.Table
	n    int
}

// get returns the prefix's table on e, taken on first use. Past the
// array's room, every call takes it again; an engine a capture reads is
// not mutated meanwhile, so every take reads the same state.
func (tm *tableMemo) get(e *bgp.Engine, prefix netip.Prefix) bgp.Table {
	for _, t := range tm.tabs[:tm.n] {
		if t.Prefix() == prefix {
			return t
		}
	}
	t := e.Table(prefix)
	if tm.n < len(tm.tabs) {
		tm.tabs[tm.n] = t
		tm.n++
	}
	return t
}

type nearestKey struct {
	prefix netip.Prefix
	city   geo.CityID
}

type nearestSite struct {
	site string
	km   float64
}

func (nm nearestMemo) get(e *bgp.Engine, dep *cdn.Deployment, prefix netip.Prefix, city geo.CityID) (string, float64) {
	k := nearestKey{prefix, city}
	n, ok := nm[k]
	if !ok {
		n.site, n.km = nearestAnnouncedSite(e, dep, prefix, city)
		nm[k] = n
	}
	return n.site, n.km
}

// nearestAnnouncedSite returns the announced site of the prefix nearest to
// the client city (great-circle), with deterministic site-ID tie-break.
func nearestAnnouncedSite(e *bgp.Engine, dep *cdn.Deployment, prefix netip.Prefix, city geo.CityID) (string, float64) {
	bestSite, bestKm := "", 0.0
	for _, a := range e.Announcements(prefix) {
		s, ok := dep.SiteByID(a.Site)
		if !ok {
			continue
		}
		sc, _ := geo.CityIDOf(s.City)
		d := geo.KmBetween(city, sc)
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
func classify(inflationMs float64, hops []hop) Pathology {
	if inflationMs <= InflationThresholdMs {
		return Efficient
	}
	for _, h := range hops {
		if !h.runnerCloser {
			continue
		}
		switch h.step {
		case bgp.StepLocalPref, bgp.StepPathLen, bgp.StepCommunity:
			return PolicyOverGeography
		case bgp.StepTieBreak:
			return HotPotatoEgress
		}
	}
	return NoRegionalRoute
}

// GroupView is one probe group's captured catchment state: the compact,
// diffable form of a CatchmentExplanation. Its hops are records, not
// rendered Hops: only the explain queries render a chain. A view is
// immutable once captured and shared between captures: a delta capture
// points at its base's view of every group it reuses (see CaptureFrom), so
// a retained history holds each view once, however many states show it.
type GroupView struct {
	Group       string       `json:"group"`
	Prefix      netip.Prefix `json:"prefix"`
	Served      bool         `json:"served"`
	Site        string       `json:"site,omitempty"`
	SiteCity    string       `json:"site_city,omitempty"`
	RTTMs       float64      `json:"rtt_ms,omitempty"`
	InflationMs float64      `json:"inflation_ms"`
	Class       Pathology    `json:"class"`

	hops []hop
	// client is the group's AS, whose rib the view depends on even when
	// the group is unserved and has no hops.
	client topo.ASN
}

// PrefixSites lists the sites announcing one prefix at capture time.
type PrefixSites struct {
	Prefix string   `json:"prefix"`
	Sites  []string `json:"sites"`
}

// CatchmentSet is a full captured catchment state of a deployment: every
// <city,AS> group of the probe population, sorted by group key, plus the
// announcement state needed to attribute later moves to site operations.
// Groups point at immutable views that other captures may share, so a
// holder never writes through them.
type CatchmentSet struct {
	Dep       string        `json:"dep"`
	Groups    []*GroupView  `json:"groups"`
	Announced []PrefixSites `json:"announced"`
}

// Capture snapshots the catchment of every probe group. It is a pure
// function of engine state and the probe set, so two captures of identical
// worlds are deeply equal. Routing comes from e and measurement noise from
// the measurer's own seed, so capturing an engine fork (a what-if world)
// works with the shared measurer.
func Capture(e *bgp.Engine, dep *cdn.Deployment, m *atlas.Measurer, probes []*atlas.Probe) (CatchmentSet, error) {
	return CaptureFrom(e, dep, m, atlas.GroupProbes(probes), nil, nil)
}

// CaptureFrom is Capture of the groups of a probe-group table (the
// platform's is atlas.Platform.Groups), as a delta against base, an earlier
// capture of baseEng with the same measurer; the result is deeply equal to
// Capture's of the table's probes.
//
// A group view is a pure function of static data and three inputs, all read
// from the engine: the nearest announced site of the group's (prefix, city)
// and its distance (the inflation and class); the client's forwarding
// answer by value, that is its site, AS path, hop cities and distance (the
// served site, RTT and hop ASes); and the decision record of every AS on
// that path (the hop records). A base view is reused, pointer and all, when
// these inputs read the same on baseEng and e, so the delta equals a full
// capture by construction. e.RibsChangedFrom(baseEng, prefix) is the
// candidate filter: only the inputs read from a changed rib are compared,
// and a view none of whose ASes changed, on a prefix announced by the same
// sites on both engines, is reused outright. Every other group is
// recomputed, and the recomputed views are allocated as one block.
//
// The base is used only when it has the table's group keys in the table's
// order; a nil base, or one of another deployment, group set, topology or
// provenance mode, gives a full capture.
func CaptureFrom(e *bgp.Engine, dep *cdn.Deployment, m *atlas.Measurer, groups *atlas.GroupTable, base *CatchmentSet, baseEng *bgp.Engine) (CatchmentSet, error) {
	if base != nil && (baseEng == nil || base.Dep != dep.Name ||
		baseEng.Topology() != e.Topology() || baseEng.ProvenanceEnabled() != e.ProvenanceEnabled() ||
		!slices.EqualFunc(base.Groups, groups.Groups, func(v *GroupView, g atlas.Group) bool { return v.Group == g.Key })) {
		base = nil
	}
	set := CatchmentSet{Dep: dep.Name, Groups: make([]*GroupView, len(groups.Groups)), Announced: announced(e)}
	near := nearestMemo{}
	var tabs tableMemo
	fresh := len(groups.Groups)
	if base != nil {
		d := captureDelta{e: e, baseEng: baseEng, dep: dep, near: near, baseNear: nearestMemo{}, tabs: &tabs}
		fresh = 0
		for i, v := range base.Groups {
			if d.reuse(v, groups.Groups[i].Rep) {
				set.Groups[i] = v
			} else {
				fresh++
			}
		}
	}
	block := make([]GroupView, fresh)
	for i := range groups.Groups {
		if set.Groups[i] != nil {
			continue
		}
		g := &groups.Groups[i]
		ce, _, hops, err := explainProbe(e, dep, m, g.Rep, g.Key, near, &tabs)
		if err != nil {
			return CatchmentSet{}, err
		}
		v := &block[0]
		block = block[1:]
		*v = GroupView{
			Group:       ce.Group,
			Prefix:      ce.Prefix,
			Served:      ce.Served,
			Site:        ce.Site,
			SiteCity:    ce.SiteCity,
			RTTMs:       ce.RTTMs,
			InflationMs: ce.InflationMs,
			Class:       ce.Class,
			hops:        hops,
			client:      ce.ASN,
		}
		set.Groups[i] = v
	}
	return set, nil
}

// announced lists every announced prefix's sites, sorted by prefix text.
func announced(e *bgp.Engine) []PrefixSites {
	var out []PrefixSites
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
		out = append(out, ps)
	}
	slices.SortFunc(out, func(a, b PrefixSites) int { return strings.Compare(a.Prefix, b.Prefix) })
	return out
}

// captureDelta decides which base views a capture reuses, by comparing each
// view's inputs on the two engines (see CaptureFrom).
type captureDelta struct {
	e, baseEng *bgp.Engine
	dep        *cdn.Deployment
	// near and tabs are the capture's memos on e, which the views it
	// recomputes share; baseNear and baseTabs are baseEng's.
	near, baseNear nearestMemo
	tabs           *tableMemo
	baseTabs       tableMemo
	prefixes       []prefixDelta
}

// prefixDelta is one prefix's change between baseEng and e: the ASes whose
// rib changed, ascending (dense index order is ASN order), and whether
// every city's nearest announced site is the same on both engines, which
// holds when both announce the prefix from the same sites.
type prefixDelta struct {
	prefix      netip.Prefix
	changed     []topo.ASN
	sameNearest bool
}

// prefix returns the prefix's delta, computed on first use. The pointer
// is valid until the next call.
func (d *captureDelta) prefix(p netip.Prefix) *prefixDelta {
	for k := range d.prefixes {
		if d.prefixes[k].prefix == p {
			return &d.prefixes[k]
		}
	}
	pd := prefixDelta{prefix: p, sameNearest: sameSites(d.e.Announcements(p), d.baseEng.Announcements(p))}
	t := d.e.Topology()
	for _, j := range d.e.RibsChangedFrom(d.baseEng, p) {
		pd.changed = append(pd.changed, t.ASAt(j))
	}
	d.prefixes = append(d.prefixes, pd)
	return &d.prefixes[len(d.prefixes)-1]
}

// reuse reports whether the capture can keep v, the base's view of the
// group whose representative probe is p: whether the view's inputs read
// the same on both engines.
func (d *captureDelta) reuse(v *GroupView, p *atlas.Probe) bool {
	pd := d.prefix(v.Prefix)
	city, _ := geo.CityIDOf(p.City)
	if !pd.sameNearest {
		site, km := d.near.get(d.e, d.dep, v.Prefix, city)
		baseSite, baseKm := d.baseNear.get(d.baseEng, d.dep, v.Prefix, city)
		if site != baseSite || km != baseKm {
			return false
		}
	}
	clientChanged := pd.ribChanged(v.client)
	if !clientChanged && !slices.ContainsFunc(v.hops, func(h hop) bool { return pd.ribChanged(h.asn) }) {
		return true
	}
	tp := d.e.Topology()
	ai, known := tp.ASIndex(v.client)
	if !known {
		return true
	}
	tab, baseTab := d.tabs.get(d.e, v.Prefix), d.baseTabs.get(d.baseEng, v.Prefix)
	r, cls, km, ok := tab.Route(ai, city)
	if clientChanged {
		br, bcls, bkm, bok := baseTab.Route(ai, city)
		if ok != bok || ok && ((cls == bgp.FromOrigin) != (bcls == bgp.FromOrigin) ||
			r.SiteSymbol() != br.SiteSymbol() || km != bkm || !r.SamePath(br)) {
			return false
		}
	}
	if !ok {
		return true
	}
	// The forward is the same on both engines, so the base view's hop ASes
	// are its path on e too; only the records of changed ASes can differ.
	servingKm := geo.KmBetween(city, r.SiteCityID())
	for _, h := range v.hops {
		if pd.ribChanged(h.asn) && hopOf(tp, &tab, h.asn, city, servingKm) != hopOf(tp, &baseTab, h.asn, city, servingKm) {
			return false
		}
	}
	return true
}

// sameSites reports whether two announcement lists name the same sites.
// A deployment's site IDs are unique, so equal lengths and containment
// suffice.
func sameSites(a, b []bgp.SiteAnnouncement) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !slices.ContainsFunc(b, func(y bgp.SiteAnnouncement) bool { return y.Site == x.Site }) {
			return false
		}
	}
	return true
}

// ribChanged reports whether asn's rib for the prefix changed.
func (pd *prefixDelta) ribChanged(asn topo.ASN) bool {
	_, found := slices.BinarySearch(pd.changed, asn)
	return found
}

// sitesOf returns the sites announcing a prefix at capture time, nil when
// none does.
func (s *CatchmentSet) sitesOf(prefix netip.Prefix) []string {
	key := prefix.String()
	for _, ps := range s.Announced {
		if ps.Prefix == key {
			return ps.Sites
		}
	}
	return nil
}

// announcedSite reports whether a site announced the prefix at capture time.
func (s *CatchmentSet) announcedSite(prefix netip.Prefix, site string) bool {
	return slices.Contains(s.sitesOf(prefix), site)
}
