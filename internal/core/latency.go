package core

import (
	"fmt"

	"anysim/internal/atlas"
	"anysim/internal/cdn"
	"anysim/internal/geo"
	"anysim/internal/stats"
	"anysim/internal/topo"
)

// LatencyCDFs returns per-area CDFs of group RTTs to the DNS-returned VIP
// (Figure 4, first row).
func LatencyCDFs(res *Result, mode atlas.DNSMode) map[geo.Area]*stats.CDF {
	return areaCDFs(res, func(g *Group) (float64, bool) { return g.RTT(mode) })
}

// DistanceCDFs returns per-area CDFs of group distances to the catchment
// site (Figure 4, second row).
func DistanceCDFs(res *Result, mode atlas.DNSMode) map[geo.Area]*stats.CDF {
	return areaCDFs(res, func(g *Group) (float64, bool) { return g.Distance(mode) })
}

// areaCDFs returns per-area CDFs of the group values val yields, skipping
// groups without one.
func areaCDFs(res *Result, val func(*Group) (float64, bool)) map[geo.Area]*stats.CDF {
	vals := map[geo.Area][]float64{}
	for _, g := range GroupMeasurements(res) {
		if v, ok := val(g); ok {
			vals[g.Area] = append(vals[g.Area], v)
		}
	}
	out := map[geo.Area]*stats.CDF{}
	for area, v := range vals {
		out[area] = stats.NewCDF(v)
	}
	return out
}

// TailLatency summarises per-area latency percentiles (Tables 3 and 6).
type TailLatency struct {
	Name string
	// PercentileMs[area][p] for p in Percentiles.
	PercentileMs map[geo.Area]map[float64]float64
	Percentiles  []float64
}

// Percentile sets used by the paper's tables.
var (
	Table3Percentiles = []float64{80, 90, 95}
	Table6Percentiles = []float64{50, 90, 95}
)

// AnalyzeTailLatency computes per-area percentiles of group RTTs.
func AnalyzeTailLatency(name string, res *Result, mode atlas.DNSMode, percentiles []float64) *TailLatency {
	cdfs := LatencyCDFs(res, mode)
	out := &TailLatency{Name: name, PercentileMs: map[geo.Area]map[float64]float64{}, Percentiles: percentiles}
	for area, cdf := range cdfs {
		out.PercentileMs[area] = map[float64]float64{}
		for _, p := range percentiles {
			out.PercentileMs[area][p] = cdf.Quantile(p / 100)
		}
	}
	return out
}

// OverlapSpec captures the §5.3 filtering inputs: the sites present in both
// networks and, per site, the peers both networks announce to.
type OverlapSpec struct {
	// Sites maps site ID -> present in both networks.
	Sites map[string]bool
	// CommonPeers[siteID] is the set of neighbour ASes that hear both the
	// regional and the global prefixes at that site.
	CommonPeers map[string]map[topo.ASN]bool
}

// ComputeOverlap derives the overlap spec for two deployments of the same
// AS (e.g. Imperva-6 and Imperva-NS): the intersected site set, and per
// shared site the neighbours neither network skips.
func ComputeOverlap(tp *topo.Topology, reg, glob *cdn.Deployment) (*OverlapSpec, error) {
	if reg.ASN != glob.ASN {
		return nil, fmt.Errorf("core: overlap requires deployments of the same AS, got %v and %v", reg.ASN, glob.ASN)
	}
	spec := &OverlapSpec{Sites: map[string]bool{}, CommonPeers: map[string]map[topo.ASN]bool{}}
	globSites := map[string]bool{}
	for _, s := range glob.Sites {
		globSites[s.ID] = true
	}
	for _, s := range reg.Sites {
		if !globSites[s.ID] {
			continue
		}
		spec.Sites[s.ID] = true
		skip := map[topo.ASN]bool{}
		for _, a := range reg.SkipNeighbors[s.ID] {
			skip[a] = true
		}
		for _, a := range glob.SkipNeighbors[s.ID] {
			skip[a] = true
		}
		peers := map[topo.ASN]bool{}
		for _, li := range tp.LinksOf(reg.ASN) {
			l := tp.Links()[li]
			if !containsCity(l.Cities, s.City) {
				continue
			}
			nbr, _ := l.Other(reg.ASN)
			if !skip[nbr] {
				peers[nbr] = true
			}
		}
		spec.CommonPeers[s.ID] = peers
	}
	return spec, nil
}

func containsCity(cities []string, c string) bool {
	for _, x := range cities {
		if x == c {
			return true
		}
	}
	return false
}

// GroupPair is one probe group's paired regional/global measurement after
// §5.3 filtering.
type GroupPair struct {
	Key     string
	Area    geo.Area
	Country string

	RTTReg, RTTGlob   float64
	DistReg, DistGlob float64 // probe-to-catchment-site distances (km)
	SiteReg, SiteGlob string
}

// DeltaRTT returns regional minus global RTT (negative = regional faster).
func (p GroupPair) DeltaRTT() float64 { return p.RTTReg - p.RTTGlob }

// DeltaDist returns regional minus global catchment distance.
func (p GroupPair) DeltaDist() float64 { return p.DistReg - p.DistGlob }

// FilterStats accounts for the §5.3 probe-filtering steps.
type FilterStats struct {
	Total          int // probe groups with measurements in both campaigns
	NoPHop         int // dropped: no valid penultimate hop in a traceroute
	NonOverlapSite int // dropped: catchment site not in both networks
	NonOverlapPeer int // dropped: final peer not common to both networks
	Retained       int
}

// RetainedFraction returns the share of groups surviving the filter (the
// paper retains 82.1%).
func (f FilterStats) RetainedFraction() float64 {
	if f.Total == 0 {
		return 0
	}
	return float64(f.Retained) / float64(f.Total)
}

// Comparison is the outcome of the §5.3 regional-vs-global study.
type Comparison struct {
	Pairs  []GroupPair // in group-key order
	Filter FilterStats
}

// CompareRegionalGlobal pairs each probe group's regional-anycast
// measurement with its global-anycast measurement, applying the paper's
// filters: (1) the traceroutes must have valid p-hops, (2) both catchment
// sites must exist in both networks, and (3) the final handoff peer must be
// announced to by both networks at that site.
func CompareRegionalGlobal(regRes, globRes *Result, mode atlas.DNSMode, overlap *OverlapSpec) *Comparison {
	globGroups := GroupMeasurements(globRes)
	cmp := &Comparison{}
	for _, gr := range GroupMeasurements(regRes) {
		gg, ok := findGroup(globGroups, gr.Key)
		if !ok {
			continue
		}
		rttR, okR := gr.RTT(mode)
		rttG, okG := gg.RTT(mode)
		if !okR || !okG {
			continue
		}
		cmp.Filter.Total++

		// Filter 1: every member trace must have a valid p-hop in both
		// campaigns (the paper drops probes without one).
		if !groupHasPHop(gr, mode) || !groupHasPHop(gg, mode) {
			cmp.Filter.NoPHop++
			continue
		}
		siteR, okR2 := gr.Site(mode)
		siteG, okG2 := gg.Site(mode)
		if !okR2 || !okG2 {
			cmp.Filter.NoPHop++
			continue
		}
		// Filter 2: overlapping sites only.
		if !overlap.Sites[siteR] || !overlap.Sites[siteG] {
			cmp.Filter.NonOverlapSite++
			continue
		}
		// Filter 3: common final peer at the catchment site.
		if !groupUsesCommonPeer(gr, mode, overlap) || !groupUsesCommonPeer(gg, mode, overlap) {
			cmp.Filter.NonOverlapPeer++
			continue
		}
		distR, _ := gr.Distance(mode)
		distG, _ := gg.Distance(mode)
		cmp.Filter.Retained++
		cmp.Pairs = append(cmp.Pairs, GroupPair{
			Key:     gr.Key,
			Area:    gr.Area,
			Country: gr.Country,
			RTTReg:  rttR, RTTGlob: rttG,
			DistReg: distR, DistGlob: distG,
			SiteReg: siteR, SiteGlob: siteG,
		})
	}
	return cmp
}

// groupHasPHop reports whether a majority of member traces produced a valid
// p-hop.
func groupHasPHop(g *Group, mode atlas.DNSMode) bool {
	with, total := 0, 0
	for _, m := range g.Members {
		vip, ok := m.Returned[mode]
		if !ok || !vip.IsValid() {
			continue
		}
		tr, ok := m.Trace[vip]
		if !ok {
			continue
		}
		total++
		if _, ok := tr.PHop(); ok {
			with++
		}
	}
	return total > 0 && with*2 >= total
}

// groupUsesCommonPeer reports whether the group's traffic enters the CDN
// via a peer common to both networks at its catchment site.
func groupUsesCommonPeer(g *Group, mode atlas.DNSMode, overlap *OverlapSpec) bool {
	okCount, total := 0, 0
	for _, m := range g.Members {
		vip, ok := m.Returned[mode]
		if !ok || !vip.IsValid() {
			continue
		}
		fwd, ok := m.Fwd[vip]
		if !ok {
			continue
		}
		total++
		if peers := overlap.CommonPeers[fwd.Site]; peers != nil && peers[fwd.FinalUpstream] {
			okCount++
		}
	}
	return total > 0 && okCount*2 >= total
}

// PercentilesFromPairs computes Table 3 from a comparison: per-area
// regional and global percentiles.
func PercentilesFromPairs(cmp *Comparison, percentiles []float64) (reg, glob map[geo.Area]map[float64]float64) {
	regVals := map[geo.Area][]float64{}
	globVals := map[geo.Area][]float64{}
	for _, p := range cmp.Pairs {
		regVals[p.Area] = append(regVals[p.Area], p.RTTReg)
		globVals[p.Area] = append(globVals[p.Area], p.RTTGlob)
	}
	reg = map[geo.Area]map[float64]float64{}
	glob = map[geo.Area]map[float64]float64{}
	for _, area := range geo.Areas {
		reg[area] = map[float64]float64{}
		glob[area] = map[float64]float64{}
		for _, pc := range percentiles {
			reg[area][pc] = stats.Percentile(regVals[area], pc)
			glob[area][pc] = stats.Percentile(globVals[area], pc)
		}
	}
	return reg, glob
}

// SiteDistanceClass buckets a pair by where its regional catchment site is
// relative to its global one (the columns of Table 4).
type SiteDistanceClass uint8

// Table 4 column classes.
const (
	CloserSite SiteDistanceClass = iota
	SameSite
	FurtherSite
)

// String names the class as in Table 4.
func (c SiteDistanceClass) String() string {
	switch c {
	case CloserSite:
		return "Closer"
	case SameSite:
		return "Same"
	default:
		return "Further"
	}
}

// SiteClassOf classifies a pair's site movement. Same means the identical
// site; otherwise the probe-to-site distances decide.
func SiteClassOf(p GroupPair) SiteDistanceClass {
	if p.SiteReg == p.SiteGlob {
		return SameSite
	}
	if p.DistReg < p.DistGlob {
		return CloserSite
	}
	return FurtherSite
}

// RTTClass buckets a pair by its RTT difference (the rows of Table 4,
// threshold 5 ms).
type RTTClass uint8

// Table 4 row classes.
const (
	BetterRTT  RTTClass = iota // ΔRTT < -5 ms: regional faster
	SimilarRTT                 // |ΔRTT| <= 5 ms
	WorseRTT                   // ΔRTT > 5 ms: regional slower
)

// String names the class.
func (c RTTClass) String() string {
	switch c {
	case BetterRTT:
		return "dRTT<-5ms"
	case SimilarRTT:
		return "|dRTT|<=5ms"
	default:
		return "dRTT>5ms"
	}
}

// RTTClassOf classifies a pair's RTT movement.
func RTTClassOf(p GroupPair) RTTClass {
	switch d := p.DeltaRTT(); {
	case d < -EfficiencyThresholdMs:
		return BetterRTT
	case d > EfficiencyThresholdMs:
		return WorseRTT
	default:
		return SimilarRTT
	}
}

// Table4Cell is one (area, RTT class) row of Table 4.
type Table4Cell struct {
	Groups int
	// SiteFractions[class] is the share of the row's groups reaching
	// closer/same/further sites.
	SiteFractions map[SiteDistanceClass]float64
}

// AnalyzeSiteDistance computes Table 4: per area and RTT class, the share
// of groups reaching closer, same, or further sites.
func AnalyzeSiteDistance(cmp *Comparison) map[geo.Area]map[RTTClass]*Table4Cell {
	out := map[geo.Area]map[RTTClass]*Table4Cell{}
	for _, p := range cmp.Pairs {
		if out[p.Area] == nil {
			out[p.Area] = map[RTTClass]*Table4Cell{}
		}
		rc := RTTClassOf(p)
		cell := out[p.Area][rc]
		if cell == nil {
			cell = &Table4Cell{SiteFractions: map[SiteDistanceClass]float64{}}
			out[p.Area][rc] = cell
		}
		cell.Groups++
		cell.SiteFractions[SiteClassOf(p)]++
	}
	for _, byClass := range out {
		for _, cell := range byClass {
			for k := range cell.SiteFractions {
				cell.SiteFractions[k] /= float64(cell.Groups)
			}
		}
	}
	return out
}

// SameSitePairs returns the pairs reaching the same site in both networks
// (Appendix D / Figure 8: validating that regional and global prefixes see
// the same latency when the site and peer coincide).
func SameSitePairs(cmp *Comparison) []GroupPair {
	var out []GroupPair
	for _, p := range cmp.Pairs {
		if p.SiteReg == p.SiteGlob {
			out = append(out, p)
		}
	}
	return out
}
