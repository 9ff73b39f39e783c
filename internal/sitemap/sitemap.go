// Package sitemap implements the paper's anycast site-enumeration pipeline
// (§4.4 and Appendix B): it geolocates the penultimate hop (p-hop) of each
// traceroute using, in order, (1) geographic hints in the p-hop's
// reverse-DNS name, (2) the RTT-range technique — the location of a probe
// that traversed the p-hop with an RTT inside the metro-scale threshold,
// cross-checked against geolocation databases and the speed of light — and
// (3) country-level IP-geolocation consensus when the operator lists exactly
// one site in the agreed country. Resolved p-hops are mapped to the nearest
// published CDN site, yielding the set of sites announcing each prefix
// (Table 1) and the per-technique attribution (Figure 3).
package sitemap

import (
	"net/netip"
	"sort"

	"anysim/internal/atlas"
	"anysim/internal/geo"
	"anysim/internal/geodb"
	"anysim/internal/rdns"
)

// Technique identifies which Appendix-B step resolved a p-hop.
type Technique uint8

// Resolution techniques in pipeline order.
const (
	ByRDNS Technique = iota
	ByRTTRange
	ByCountryIPGeo
	Unresolved
)

var techniqueNames = map[Technique]string{
	ByRDNS:         "rDNS",
	ByRTTRange:     "RTT Range",
	ByCountryIPGeo: "Country-level IPGeo",
	Unresolved:     "Unresolved",
}

// String names the technique as in Figure 3's legend.
func (t Technique) String() string { return techniqueNames[t] }

// Techniques lists all techniques in presentation order.
var Techniques = []Technique{ByRDNS, ByRTTRange, ByCountryIPGeo, Unresolved}

// Config parameterises the pipeline.
type Config struct {
	// RTTThresholdMs is the RTT-range threshold: a probe within this RTT
	// of the p-hop localises it to the probe's metro (default 1.5 ms,
	// ~150 km of fibre).
	RTTThresholdMs float64
	// DBs are the geolocation databases consulted by the RTT-range and
	// country-level steps.
	DBs []*geodb.DB
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig(dbs []*geodb.DB) Config {
	return Config{RTTThresholdMs: 1.5, DBs: dbs}
}

// PHopObservation aggregates every traceroute crossing one p-hop address.
type PHopObservation struct {
	Addr netip.Addr
	RDNS string
	// MinRTTProbe is the probe observing the lowest RTT to the p-hop.
	MinRTTProbe *atlas.Probe
	MinRTTMs    float64
	Traces      int // traceroutes whose p-hop this is
}

// Resolution is the pipeline outcome for one p-hop.
type Resolution struct {
	Addr      netip.Addr
	Technique Technique
	City      string // resolved city (IATA), "" when unresolved
	SiteCity  string // nearest published site's city, "" when unresolved
}

// Result is the full enumeration outcome for one network.
type Result struct {
	Network string
	// PHops maps p-hop address to its resolution.
	PHops map[netip.Addr]*Resolution
	// TraceCounts[t] is the number of traceroutes whose p-hop was
	// resolved by technique t (Figure 3's "traces" bars).
	TraceCounts map[Technique]int
	// PHopCounts[t] is the same at p-hop granularity ("p-hops" bars).
	PHopCounts map[Technique]int
	// Sites is the discovered set of announcing sites (city IATA codes).
	Sites map[string]bool
	// TotalTraces counts traceroutes with a valid p-hop.
	TotalTraces int
}

// PHopFraction returns the share of p-hops resolved by the technique.
func (r *Result) PHopFraction(t Technique) float64 {
	total := 0
	for _, n := range r.PHopCounts {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(r.PHopCounts[t]) / float64(total)
}

// TraceFraction returns the share of traceroutes resolved by the technique.
func (r *Result) TraceFraction(t Technique) float64 {
	if r.TotalTraces == 0 {
		return 0
	}
	return float64(r.TraceCounts[t]) / float64(r.TotalTraces)
}

// SiteList returns the discovered sites sorted by city code.
func (r *Result) SiteList() []string {
	out := make([]string, 0, len(r.Sites))
	for s := range r.Sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// SiteCountsByArea tabulates discovered sites per paper area (Table 1).
func (r *Result) SiteCountsByArea() map[geo.Area]int {
	out := map[geo.Area]int{}
	for s := range r.Sites {
		out[geo.MustCity(s).Area()]++
	}
	return out
}

// CollectPHops aggregates traceroutes by p-hop address.
func CollectPHops(traces []*atlas.Trace) map[netip.Addr]*PHopObservation {
	out := map[netip.Addr]*PHopObservation{}
	for _, tr := range traces {
		ph, ok := tr.PHop()
		if !ok {
			continue
		}
		obs := out[ph.Addr]
		if obs == nil {
			obs = &PHopObservation{Addr: ph.Addr, RDNS: ph.RDNS, MinRTTMs: ph.RTTMs, MinRTTProbe: tr.Probe}
			out[ph.Addr] = obs
		}
		obs.Traces++
		if ph.RTTMs < obs.MinRTTMs {
			obs.MinRTTMs = ph.RTTMs
			obs.MinRTTProbe = tr.Probe
		}
	}
	return out
}

// Enumerate runs the pipeline over a network's traceroutes.
//
// publishedSites is the operator's published PoP list (city IATA codes),
// the ground truth the paper maps p-hops onto.
func Enumerate(network string, traces []*atlas.Trace, publishedSites []string, cfg Config) *Result {
	res := &Result{
		Network:     network,
		PHops:       map[netip.Addr]*Resolution{},
		TraceCounts: map[Technique]int{},
		PHopCounts:  map[Technique]int{},
		Sites:       map[string]bool{},
	}
	observations := CollectPHops(traces)
	addrs := make([]netip.Addr, 0, len(observations))
	for a := range observations {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].String() < addrs[j].String() })

	for _, a := range addrs {
		obs := observations[a]
		r := resolvePHop(obs, publishedSites, cfg)
		res.PHops[a] = r
		res.PHopCounts[r.Technique]++
		res.TraceCounts[r.Technique] += obs.Traces
		res.TotalTraces += obs.Traces
		if r.SiteCity != "" {
			res.Sites[r.SiteCity] = true
		}
	}
	return res
}

// resolvePHop applies the three techniques in order.
func resolvePHop(obs *PHopObservation, published []string, cfg Config) *Resolution {
	// Technique 1: rDNS geo-hints.
	if obs.RDNS != "" {
		if hint, ok := rdns.Extract(obs.RDNS); ok {
			if hint.City != "" {
				return &Resolution{
					Addr:      obs.Addr,
					Technique: ByRDNS,
					City:      hint.City,
					SiteCity:  nearestSite(hint.City, published),
				}
			}
			// ccTLD country hint: usable when the operator lists exactly
			// one site in that country.
			if site, ok := singleSiteIn(hint.Country, published); ok {
				return &Resolution{Addr: obs.Addr, Technique: ByRDNS, City: site, SiteCity: site}
			}
		}
	}

	// Technique 2: RTT range. A probe within the threshold pins the p-hop
	// to the probe's metro; the geolocation databases provide candidate
	// locations, filtered by the speed-of-light constraint, and the valid
	// candidate closest to the probe wins.
	if obs.MinRTTProbe != nil && obs.MinRTTMs < cfg.RTTThresholdMs {
		probe := obs.MinRTTProbe
		maxKm := geo.RTTRangeKm(cfg.RTTThresholdMs)
		var best string
		bestDist := -1.0
		for _, db := range cfg.DBs {
			loc, ok := db.Lookup(obs.Addr)
			if !ok || loc.City == "" {
				continue
			}
			c, ok := geo.CityByIATA(loc.City)
			if !ok {
				continue
			}
			d := geo.DistanceKm(probe.Coord, c.Coord)
			if d > maxKm {
				continue // violates the speed-of-light constraint
			}
			if bestDist < 0 || d < bestDist {
				best, bestDist = c.IATA, d
			}
		}
		if best != "" {
			return &Resolution{
				Addr:      obs.Addr,
				Technique: ByRTTRange,
				City:      best,
				SiteCity:  nearestSite(best, published),
			}
		}
	}

	// Technique 3: country-level IPGeo consensus + single listed site.
	if cc, ok := geodb.ConsensusCountry(cfg.DBs, obs.Addr); ok {
		if site, ok := singleSiteIn(cc, published); ok {
			return &Resolution{Addr: obs.Addr, Technique: ByCountryIPGeo, City: site, SiteCity: site}
		}
	}
	return &Resolution{Addr: obs.Addr, Technique: Unresolved}
}

// nearestSite maps a resolved city to the closest published site city.
func nearestSite(city string, published []string) string {
	c, ok := geo.CityIDOf(city)
	if !ok {
		return ""
	}
	best, bestDist := "", -1.0
	for _, s := range published {
		sc, ok := geo.CityIDOf(s)
		if !ok {
			continue
		}
		d := geo.KmBetween(c, sc)
		if bestDist < 0 || d < bestDist {
			best, bestDist = s, d
		}
	}
	return best
}

// singleSiteIn returns the operator's site in the country when exactly one
// is listed.
func singleSiteIn(cc string, published []string) (string, bool) {
	var found string
	for _, s := range published {
		c, ok := geo.CityByIATA(s)
		if !ok || c.Country != cc {
			continue
		}
		if found != "" {
			return "", false
		}
		found = s
	}
	return found, found != ""
}
