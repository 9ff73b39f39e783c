// Package glass is the simulator's looking glass: decision-level route
// explanations and catchment diffs over the BGP engine's provenance record.
//
// The paper's central diagnostic move (§5.4, Figs. 1 & 7) is explaining
// *why* a client lands at a distant site — local-pref policy beating
// geography, hot-potato egress, missing regional routes. The engine's
// provenance mode (bgp.EngineConfig.Provenance) records per (AS, prefix)
// which policy step decided the selection and what the runner-up was; this
// package turns that record into:
//
//   - Explain: the full decision chain from a client AS to the serving
//     site, one justified hop at a time (the simulated looking glass);
//   - ExplainCatchment / Capture: per <city,AS> probe-group catchment
//     explanations with the paper's pathology classification;
//   - Diff: a classified churn report between two captured catchment
//     states, attributing a cause to every moved group;
//   - DiffTraces: a structural comparison of two JSONL trace runs.
//
// Everything here is a pure function of engine state, so outputs are
// byte-deterministic whenever the underlying world is.
package glass

import (
	"fmt"
	"net/netip"

	"anysim/internal/bgp"
	"anysim/internal/geo"
	"anysim/internal/topo"
)

// Hop is one AS on the forwarding path, with the decision record that put
// the next hop behind it, rendered for an explanation (the /explain body).
// Captured views keep the compact hop record instead.
type Hop struct {
	// ASN is the AS making this hop's forwarding decision.
	ASN topo.ASN `json:"asn"`
	// Entry is the city where traffic enters the AS; Handoff is where it
	// leaves toward the next hop (the site city on the final hop).
	Entry   string `json:"entry"`
	Handoff string `json:"handoff"`
	// HasProv reports whether the engine recorded provenance for this AS
	// (always true when the prefix was announced with provenance on).
	HasProv bool `json:"has_prov"`
	// Step/WinnerClass/AltInClass/Arbitrary summarise the decision; see
	// bgp.Provenance.
	Step        string `json:"step,omitempty"`
	WinnerClass string `json:"winner_class,omitempty"`
	AltInClass  int    `json:"alt_in_class,omitempty"`
	Arbitrary   bool   `json:"arbitrary,omitempty"`
	// Runner-up summary: the best route this AS rejected, when any existed.
	HasRunnerUp    bool   `json:"has_runner_up,omitempty"`
	RunnerClass    string `json:"runner_class,omitempty"`
	RunnerSite     string `json:"runner_site,omitempty"`
	RunnerSiteCity string `json:"runner_site_city,omitempty"`
	RunnerPathLen  int    `json:"runner_path_len,omitempty"`
}

// hop is a captured view's record of one AS on the forwarding path: the AS
// and the decision facts that classify, attribute and the delta reuse rule
// read. It holds no pointer, so a view's hop slice is never scanned by the
// GC. An AS without a provenance record holds the zero facts, which every
// reader treats as no record.
type hop struct {
	asn topo.ASN
	// winnerLen is the selected route's AS-path length.
	winnerLen   uint16
	step        bgp.DecisionStep
	winnerClass bgp.RelClass
	valid       bool
	hasRunnerUp bool
	// runnerCloser reports that the runner-up's site is strictly closer
	// (great-circle) to the client city than the serving site.
	runnerCloser bool
}

// hopRecords returns the hop records of fwd, a forward from a client city
// read from tab, whose site is in city serving: one per AS of fwd.Path.
func hopRecords(tp *topo.Topology, tab *bgp.Table, fwd bgp.Forward, client, serving geo.CityID) []hop {
	servingKm := geo.KmBetween(client, serving)
	hops := make([]hop, len(fwd.Path))
	for i, asn := range fwd.Path {
		hops[i] = hopOf(tp, tab, asn, client, servingKm)
	}
	return hops
}

// hopOf returns the hop record of asn, read from tab, on a forward from a
// client city whose serving site lies servingKm away.
func hopOf(tp *topo.Topology, tab *bgp.Table, asn topo.ASN, client geo.CityID, servingKm float64) hop {
	h := hop{asn: asn}
	if p, ok := provenance(tp, tab, asn); ok {
		h.winnerLen = uint16(p.Winner().Len())
		h.step, h.winnerClass, h.valid = p.Step, p.WinnerClass, p.Valid
		if p.HasRunnerUp {
			h.hasRunnerUp = true
			h.runnerCloser = geo.KmBetween(client, p.RunnerUp().SiteCityID()) < servingKm
		}
	}
	return h
}

// provenance reads asn's decision record out of tab.
func provenance(tp *topo.Topology, tab *bgp.Table, asn topo.ASN) (bgp.Provenance, bool) {
	ai, known := tp.ASIndex(asn)
	if !known {
		return bgp.Provenance{}, false
	}
	return tab.Provenance(ai)
}

// Explanation is the decision chain answering "why does this AS reach this
// site": the forwarding path with each hop's provenance attached.
type Explanation struct {
	Prefix netip.Prefix `json:"prefix"`
	ASN    topo.ASN     `json:"asn"`
	// City is the vantage city the query was made from.
	City     string  `json:"city"`
	Site     string  `json:"site"`
	SiteCity string  `json:"site_city"`
	DistKm   float64 `json:"dist_km"`
	Hops     []Hop   `json:"hops"`
}

// Explain returns the decision chain from an AS to its serving site for a
// prefix, querying from the AS's first (alphabetical) presence city — the
// same vantage the engine's catchment snapshots use.
func Explain(e *bgp.Engine, asn topo.ASN, prefix netip.Prefix) (Explanation, error) {
	as, ok := e.Topology().AS(asn)
	if !ok {
		return Explanation{}, fmt.Errorf("glass: unknown AS %s", asn)
	}
	if len(as.Cities) == 0 {
		return Explanation{}, fmt.Errorf("glass: %s has no presence cities", asn)
	}
	return ExplainFrom(e, asn, as.Cities[0], prefix)
}

// ExplainFrom is Explain with an explicit vantage city.
func ExplainFrom(e *bgp.Engine, asn topo.ASN, city string, prefix netip.Prefix) (Explanation, error) {
	fwd, ok := e.Lookup(prefix, asn, city)
	if !ok {
		return Explanation{}, fmt.Errorf("glass: %s has no route to %s", asn, prefix)
	}
	tab := e.Table(prefix)
	return explainForward(e.Topology(), &tab, fwd, asn, city), nil
}

// explainForward renders the hop chain of a forward read from tab, the
// table of its prefix; only the explain queries (Explain, ExplainFrom,
// ExplainCatchment) call it.
// Forward.Path includes the client AS at index 0 and Forward.Cities[i] is
// where Path[i] hands to Path[i+1] (the site city at the end), so hop i
// enters at Cities[i-1] (the vantage city for i = 0) and leaves at
// Cities[i].
func explainForward(tp *topo.Topology, tab *bgp.Table, fwd bgp.Forward, asn topo.ASN, city string) Explanation {
	exp := Explanation{
		Prefix:   fwd.Prefix,
		ASN:      asn,
		City:     city,
		Site:     fwd.Site,
		SiteCity: fwd.SiteCity(),
		DistKm:   fwd.DistKm,
		Hops:     make([]Hop, 0, len(fwd.Path)),
	}
	for i, hopAS := range fwd.Path {
		entry := city
		if i > 0 {
			entry = fwd.Cities[i-1]
		}
		handoff := fwd.SiteCity()
		if i < len(fwd.Cities) {
			handoff = fwd.Cities[i]
		}
		h := Hop{ASN: hopAS, Entry: entry, Handoff: handoff}
		if p, ok := provenance(tp, tab, hopAS); ok {
			h.HasProv = true
			h.Step = p.Step.String()
			h.WinnerClass = p.WinnerClass.String()
			h.AltInClass = p.AltInClass
			h.Arbitrary = p.Arbitrary
			if p.HasRunnerUp {
				h.HasRunnerUp = true
				h.RunnerClass = p.RunnerClass.String()
				h.RunnerSite = p.RunnerUp().Site()
				h.RunnerSiteCity = p.RunnerUp().SiteCity()
				h.RunnerPathLen = p.RunnerUp().Len()
			}
		}
		exp.Hops = append(exp.Hops, h)
	}
	return exp
}
