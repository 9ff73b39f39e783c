// Package core implements the paper's primary contribution: the measurement
// and analysis methodology for regional IP anycast. It runs measurement
// campaigns (DNS resolution in both the Local-DNS and Authoritative-DNS
// configurations, pings to every regional VIP, traceroutes to returned
// VIPs), aggregates results into <city,AS> probe groups, and performs the
// paper's analyses: DNS-mapping-efficiency classification (Table 2), client
// latency and distance distributions (Figure 4), the regional-vs-global
// comparison with site/peer overlap filtering (§5.3, Figure 5, Tables 3-4,
// Figure 8), and the §5.4 classification of why regional anycast reduces
// latency.
package core

import (
	"net/netip"
	"slices"
	"strings"
	"sync"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/dnssim"
	"anysim/internal/geo"
)

// Measurement is one probe's full measurement record for one hostname.
type Measurement struct {
	Probe *atlas.Probe

	// Returned is the A record obtained in each DNS mode; invalid when
	// resolution failed.
	Returned map[atlas.DNSMode]netip.Addr
	// RTT maps each of the deployment's VIPs to the probe's ping RTT;
	// VIPs absent from the map were unreachable.
	RTT map[netip.Addr]float64
	// Fwd is the forwarding decision behind each reachable VIP.
	Fwd map[netip.Addr]bgp.Forward
	// Trace holds traceroutes to each distinct returned VIP.
	Trace map[netip.Addr]*atlas.Trace
}

// ReturnedRTT returns the probe's RTT to the VIP DNS returned in the mode.
func (m *Measurement) ReturnedRTT(mode atlas.DNSMode) (float64, bool) {
	vip, ok := m.Returned[mode]
	if !ok || !vip.IsValid() {
		return 0, false
	}
	rtt, ok := m.RTT[vip]
	return rtt, ok
}

// MinRTT returns the probe's minimum RTT across all regional VIPs.
func (m *Measurement) MinRTT() (float64, bool) {
	min, ok := 0.0, false
	for _, rtt := range m.RTT {
		if !ok || rtt < min {
			min, ok = rtt, true
		}
	}
	return min, ok
}

// Delta returns ΔRTT for the mode: the difference between the RTT to the
// returned VIP and the lowest RTT among all regional VIPs (§5.1).
func (m *Measurement) Delta(mode atlas.DNSMode) (float64, bool) {
	rtt, ok := m.ReturnedRTT(mode)
	if !ok {
		return 0, false
	}
	min, ok := m.MinRTT()
	if !ok {
		return 0, false
	}
	return rtt - min, true
}

// CatchmentSite returns the site the probe's traffic reaches for the VIP
// returned in the mode.
func (m *Measurement) CatchmentSite(mode atlas.DNSMode) (string, bool) {
	vip, ok := m.Returned[mode]
	if !ok || !vip.IsValid() {
		return "", false
	}
	fwd, ok := m.Fwd[vip]
	if !ok {
		return "", false
	}
	return fwd.Site, true
}

// DistanceKm returns the great-circle distance between the probe and its
// catchment site for the mode (the paper's geographic-distance metric).
func (m *Measurement) DistanceKm(mode atlas.DNSMode) (float64, bool) {
	vip, ok := m.Returned[mode]
	if !ok || !vip.IsValid() {
		return 0, false
	}
	fwd, ok := m.Fwd[vip]
	if !ok {
		return 0, false
	}
	site := geo.MustCity(fwd.SiteCity())
	return geo.DistanceKm(m.Probe.Coord, site.Coord), true
}

// Result is a campaign outcome: one hostname measured from every probe.
//
// A result is grouped once: the first GroupMeasurements call (directly or
// through any analysis) fixes its probe groups, so Probes must be complete
// before then and must not change afterwards.
type Result struct {
	Deployment *cdn.Deployment
	Host       string
	Probes     []*Measurement

	grouped sync.Once
	groups  []*Group
}

// CampaignConfig tunes what a campaign measures.
type CampaignConfig struct {
	// Modes lists the DNS configurations to resolve under; default both.
	Modes []atlas.DNSMode
	// Traceroute enables traceroutes to returned VIPs.
	Traceroute bool
}

// DefaultCampaignConfig measures both DNS modes with traceroutes.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{Modes: []atlas.DNSMode{atlas.LDNS, atlas.ADNS}, Traceroute: true}
}

// RunCampaign executes the paper's measurement sequence for one hostname
// against one deployment: resolve the hostname in each DNS mode, ping every
// regional VIP of the deployment, and traceroute the returned VIPs.
func RunCampaign(m *atlas.Measurer, auth *dnssim.Authoritative, dep *cdn.Deployment, host string, probes []*atlas.Probe, cfg CampaignConfig) *Result {
	if len(cfg.Modes) == 0 {
		cfg.Modes = []atlas.DNSMode{atlas.LDNS, atlas.ADNS}
	}
	res := &Result{Deployment: dep, Host: host}
	vips := dep.VIPs()
	for _, p := range probes {
		mm := &Measurement{
			Probe:    p,
			Returned: make(map[atlas.DNSMode]netip.Addr, len(cfg.Modes)),
			RTT:      make(map[netip.Addr]float64, len(vips)),
			Fwd:      make(map[netip.Addr]bgp.Forward, len(vips)),
			Trace:    make(map[netip.Addr]*atlas.Trace),
		}
		for _, mode := range cfg.Modes {
			if a, ok := m.ResolveHost(auth, host, p, mode); ok {
				mm.Returned[mode] = a
			}
		}
		for _, vip := range vips {
			region, ok := dep.RegionOfVIP(vip)
			if !ok {
				continue
			}
			fwd, ok := m.Forward(p, region.Prefix)
			if !ok {
				continue
			}
			mm.Fwd[vip] = fwd
			mm.RTT[vip] = m.RTTSalted(p, fwd, host)
		}
		if cfg.Traceroute {
			for _, mode := range cfg.Modes {
				vip, ok := mm.Returned[mode]
				if !ok || !vip.IsValid() {
					continue
				}
				if _, done := mm.Trace[vip]; done {
					continue
				}
				if tr, ok := m.Traceroute(p, vip); ok {
					mm.Trace[vip] = tr
				}
			}
		}
		res.Probes = append(res.Probes, mm)
	}
	return res
}

// Group is a <city, AS> probe group (§3.1): the unit all the paper's
// percentages and percentiles are computed over.
type Group struct {
	Key     string
	Area    geo.Area
	Country string
	Members []*Measurement
}

// GroupMeasurements returns the result's probe groups, sorted by key, with
// each group's members in measurement order. The grouping is computed on the
// first call and every later call, from any goroutine, returns the same
// slice; the groups are shared and read-only.
func GroupMeasurements(res *Result) []*Group {
	res.grouped.Do(func() { res.groups = groupMeasurements(res.Probes) })
	return res.groups
}

func groupMeasurements(ms []*Measurement) []*Group {
	probes := make([]*atlas.Probe, len(ms))
	for i, mm := range ms {
		probes[i] = mm.Probe
	}
	groups := atlas.GroupProbes(probes)
	out := make([]*Group, len(groups.Groups))
	backing := make([]Group, len(groups.Groups))
	members := make([]*Measurement, len(ms))
	for r, g := range groups.Groups {
		n := len(g.Probes)
		backing[r] = Group{Key: g.Key, Area: g.Area(), Country: g.Country, Members: members[:0:n]}
		members = members[n:]
		out[r] = &backing[r]
	}
	for i, mm := range ms {
		g := out[groups.Rank(i)]
		g.Members = append(g.Members, mm)
	}
	return out
}

// findGroup returns the group with the key among key-sorted groups, as
// GroupMeasurements returns them.
func findGroup(groups []*Group, key string) (*Group, bool) {
	i, ok := slices.BinarySearchFunc(groups, key, func(g *Group, k string) int { return strings.Compare(g.Key, k) })
	if !ok {
		return nil, false
	}
	return groups[i], true
}

// groupBuf is the stack buffer length of the per-group reductions: a group
// with more values than this spills to the heap.
const groupBuf = 16

// median over the members' values produced by f; ok is false when no member
// has a value.
func (g *Group) median(f func(*Measurement) (float64, bool)) (float64, bool) {
	var buf [groupBuf]float64
	vals := buf[:0]
	for _, m := range g.Members {
		if v, ok := f(m); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	slices.Sort(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2], true
	}
	return (vals[n/2-1] + vals[n/2]) / 2, true
}

// RTT returns the group's (median) RTT to the VIP returned in the mode.
func (g *Group) RTT(mode atlas.DNSMode) (float64, bool) {
	return g.median(func(m *Measurement) (float64, bool) { return m.ReturnedRTT(mode) })
}

// Delta returns the group's (median) ΔRTT for the mode.
func (g *Group) Delta(mode atlas.DNSMode) (float64, bool) {
	return g.median(func(m *Measurement) (float64, bool) { return m.Delta(mode) })
}

// Distance returns the group's (median) distance to its catchment site.
func (g *Group) Distance(mode atlas.DNSMode) (float64, bool) {
	return g.median(func(m *Measurement) (float64, bool) { return m.DistanceKm(mode) })
}

// RegionCorrect reports whether the majority of the group's probes received
// the regional VIP intended for the group's country (✓Region in Table 2).
func (g *Group) RegionCorrect(mode atlas.DNSMode, dep *cdn.Deployment) bool {
	if dep == nil {
		return false
	}
	want, ok := dep.RegionForCountry(g.Country)
	if !ok {
		return false
	}
	correct, total := 0, 0
	for _, m := range g.Members {
		vip, ok := m.Returned[mode]
		if !ok || !vip.IsValid() {
			continue
		}
		total++
		if vip == want.VIP {
			correct++
		}
	}
	return total > 0 && correct*2 >= total
}

// Site returns the group's majority catchment site for the mode; a tie
// goes to the lexicographically least site.
func (g *Group) Site(mode atlas.DNSMode) (string, bool) {
	var buf [groupBuf]string
	sites := buf[:0]
	for _, m := range g.Members {
		if s, ok := m.CatchmentSite(mode); ok {
			sites = append(sites, s)
		}
	}
	slices.Sort(sites)
	best, n, run := "", 0, 0
	for i, s := range sites {
		if i > 0 && s == sites[i-1] {
			run++
		} else {
			run = 1
		}
		if run > n {
			best, n = s, run
		}
	}
	return best, best != ""
}
