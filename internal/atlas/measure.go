package atlas

import (
	"net/netip"
	"strconv"

	"anysim/internal/bgp"
	"anysim/internal/dnssim"
	"anysim/internal/geo"
	"anysim/internal/keyrand"
	"anysim/internal/netplan"
	"anysim/internal/topo"
)

// LatencyModel converts forwarding-path geometry into round-trip times.
type LatencyModel struct {
	// Inflation scales great-circle path segments to fibre-route lengths.
	Inflation float64
	// PerHopMs is the processing/queueing cost per AS hop.
	PerHopMs float64
	// JitterMs bounds the deterministic per-(probe,prefix) noise term,
	// standing in for route instability and queueing variation.
	JitterMs float64
}

// DefaultLatencyModel returns the standard model: 25% fibre inflation over
// great-circle distance, 0.15 ms per AS hop, up to 1 ms jitter.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{Inflation: 1.25, PerHopMs: 0.15, JitterMs: 1.0}
}

// DNSMode selects between the paper's two DNS measurement configurations.
type DNSMode int

// DNS measurement modes (§5.1): LDNS resolves through the probe's local
// resolver; ADNS queries the CDN's authoritative servers directly.
const (
	LDNS DNSMode = iota
	ADNS
)

// String names the mode as the paper does.
func (m DNSMode) String() string {
	if m == LDNS {
		return "Local DNS"
	}
	return "Authoritative DNS"
}

// Measurer executes probe measurements against the simulated Internet.
type Measurer struct {
	Engine *bgp.Engine
	Addr   *Addressing
	Model  LatencyModel
	// SiteRouterProb is the probability a CDN site's on-site router
	// answers traceroute, making it the penultimate hop (Appendix B).
	SiteRouterProb float64
	Seed           int64
}

// NewMeasurer wires a measurer with the default latency model.
func NewMeasurer(e *bgp.Engine, ad *Addressing, seed int64) *Measurer {
	return &Measurer{Engine: e, Addr: ad, Model: DefaultLatencyModel(), SiteRouterProb: 0.45, Seed: seed}
}

// Forward returns the catchment of the probe for the prefix.
func (m *Measurer) Forward(p *Probe, prefix netip.Prefix) (bgp.Forward, bool) {
	return m.Engine.Lookup(prefix, p.ASN, p.City)
}

// RTT converts a forwarding decision into the probe's round-trip time in
// milliseconds.
func (m *Measurer) RTT(p *Probe, fwd bgp.Forward) float64 {
	return m.RTTSalted(p, fwd, "")
}

// RTTSalted is RTT with an extra jitter salt, used when nominally identical
// measurements (e.g. different hostnames resolving to the same regional IP)
// should carry independent measurement noise, as in the paper's Appendix C
// hostname-generalisation study.
func (m *Measurer) RTTSalted(p *Probe, fwd bgp.Forward, salt string) float64 {
	base := geo.FiberRTTMs(fwd.DistKm * m.Model.Inflation)
	return base + float64(len(fwd.Path))*m.Model.PerHopMs + p.AccessMs + m.jitter(p, fwd.Prefix, salt)
}

// jitter is deterministic per (probe, prefix, salt), uniform in
// [0, JitterMs), keyed by "<seed>|<probe ID>|<prefix>|<salt>".
func (m *Measurer) jitter(p *Probe, prefix netip.Prefix, salt string) float64 {
	var buf [128]byte
	key := strconv.AppendInt(buf[:0], m.Seed, 10)
	key = append(key, '|')
	key = strconv.AppendInt(key, int64(p.ID), 10)
	key = append(key, '|')
	key = keyrand.AppendPrefix(key, prefix)
	key = append(key, '|')
	key = append(key, salt...)
	rng := keyrand.ForKey(key)
	return rng.Float64() * m.Model.JitterMs
}

// Ping measures the probe's RTT to the anycast prefix containing addr.
// ok is false when the probe has no route (the prefix is unreachable).
func (m *Measurer) Ping(p *Probe, addr netip.Addr) (float64, bool) {
	return m.PingSalted(p, addr, "")
}

// PingSalted is Ping with independent measurement noise per salt.
func (m *Measurer) PingSalted(p *Probe, addr netip.Addr, salt string) (float64, bool) {
	prefix, ok := m.Engine.PrefixOf(addr)
	if !ok {
		return 0, false
	}
	fwd, ok := m.Forward(p, prefix)
	if !ok {
		return 0, false
	}
	return m.RTTSalted(p, fwd, salt), true
}

// Hop is one traceroute hop.
type Hop struct {
	Addr  netip.Addr
	Owner topo.ASN // 0 when the address is IXP fabric (invisible in BGP)
	IXP   string   // owning IXP when Owner is 0
	City  string   // true location (ground truth, not revealed to analyses)
	RTTMs float64
	RDNS  string // PTR record, "" if none
}

// Trace is a traceroute result.
type Trace struct {
	Probe  *Probe
	Prefix netip.Prefix
	Dest   netip.Addr
	Fwd    bgp.Forward
	// Hops excludes the destination; the last entry is the penultimate
	// hop (p-hop) the paper's site-mapping pipeline works on.
	Hops    []Hop
	Reached bool
}

// PHop returns the penultimate hop.
func (t *Trace) PHop() (Hop, bool) {
	if !t.Reached || len(t.Hops) == 0 {
		return Hop{}, false
	}
	return t.Hops[len(t.Hops)-1], true
}

// Traceroute runs a traceroute from the probe to the anycast address.
func (m *Measurer) Traceroute(p *Probe, addr netip.Addr) (*Trace, bool) {
	prefix, ok := m.Engine.PrefixOf(addr)
	if !ok {
		return nil, false
	}
	fwd, ok := m.Forward(p, prefix)
	if !ok {
		return &Trace{Probe: p, Prefix: prefix, Dest: addr, Reached: false}, true
	}
	tr := &Trace{Probe: p, Prefix: prefix, Dest: addr, Fwd: fwd, Reached: true}
	totalRTT := m.RTT(p, fwd)

	// City waypoints along the path: probe city, each handoff, site city.
	cum := make([]float64, 1+len(fwd.Cities))
	prev, _ := geo.CityIDOf(p.City)
	for i, c := range fwd.Cities {
		cur, _ := geo.CityIDOf(c)
		cum[i+1] = cum[i] + geo.KmBetween(prev, cur)
		prev = cur
	}
	total := cum[len(cum)-1]
	rttAt := func(km float64, hopIdx int) float64 {
		frac := 1.0
		if total > 0 {
			frac = km / total
		}
		rtt := totalRTT*frac + float64(hopIdx)*m.Model.PerHopMs
		if rtt > totalRTT {
			rtt = totalRTT
		}
		return rtt
	}

	addHop := func(asn topo.ASN, city string, unit int, km float64) {
		a, err := m.Addr.RouterAddr(asn, city, unit)
		if err != nil {
			return // AS not present there; skip the hop (missing hop in trace)
		}
		name, _ := m.Addr.RDNS(asn, city, unit)
		tr.Hops = append(tr.Hops, Hop{
			Addr:  a,
			Owner: asn,
			City:  city,
			RTTMs: rttAt(km, len(tr.Hops)),
			RDNS:  name,
		})
	}

	clientAS := fwd.Path[0]
	origin := fwd.Path[len(fwd.Path)-1]
	if clientAS == origin {
		// Probe inside the CDN's own network: gateway then site router.
		addHop(origin, p.City, 1, 0)
		addHop(origin, fwd.SiteCity(), 4, total)
		return tr, true
	}

	// Client gateway.
	addHop(clientAS, p.City, 1, 0)
	// Transit ASes: ingress (and egress when it differs).
	for i := 1; i < len(fwd.Path)-1; i++ {
		ingress := fwd.Cities[i-1]
		egress := fwd.Cities[i]
		addHop(fwd.Path[i], ingress, 2, cum[i])
		if egress != ingress {
			addHop(fwd.Path[i], egress, 3, cum[i+1])
		}
	}

	// Penultimate hop: the CDN's site router when it answers; otherwise
	// the IXP fabric port (for IXP-mediated final links) or the upstream's
	// egress router.
	siteCity := fwd.SiteCity()
	switch {
	case m.siteRouterAnswers(origin, fwd.Site, p.ID):
		addHop(origin, siteCity, 4, total)
	case fwd.FinalIXP != "":
		if a, err := m.Addr.IXPAddr(fwd.FinalIXP, origin); err == nil {
			name, _ := m.Addr.IXPPortRDNS(fwd.FinalIXP, origin)
			tr.Hops = append(tr.Hops, Hop{
				Addr:  a,
				IXP:   fwd.FinalIXP,
				City:  siteCity,
				RTTMs: rttAt(total, len(tr.Hops)),
				RDNS:  name,
			})
		} else {
			addHop(fwd.FinalUpstream, siteCity, 3, total)
		}
	default:
		addHop(fwd.FinalUpstream, siteCity, 3, total)
	}
	return tr, true
}

// siteRouterAnswers is deterministic per (origin, site, probe): whether the
// CDN's on-site router revealed itself as the penultimate hop for this
// probe's traceroute (rate limiting makes this vary across traceroutes in
// practice).
func (m *Measurer) siteRouterAnswers(origin topo.ASN, site string, probeID int) bool {
	var buf [96]byte
	key := append(buf[:0], "srv|"...)
	key = strconv.AppendInt(key, m.Seed, 10)
	key = append(key, '|')
	key = strconv.AppendUint(key, uint64(origin), 10)
	key = append(key, '|')
	key = append(key, site...)
	key = append(key, '|')
	key = strconv.AppendInt(key, int64(probeID), 10)
	rng := keyrand.ForKey(key)
	return rng.Float64() < m.SiteRouterProb
}

// ResolveHost resolves a hostname as the probe would, in the given DNS
// mode.
func (m *Measurer) ResolveHost(auth *dnssim.Authoritative, host string, p *Probe, mode DNSMode) (netip.Addr, bool) {
	if mode == ADNS || p.Resolver == nil {
		return auth.ResolveDirect(host, p.Addr)
	}
	return p.Resolver.Resolve(auth, host, p.Addr)
}

// VIPOf returns the conventional VIP (first host address) of a prefix.
func VIPOf(p netip.Prefix) netip.Addr { return netplan.NthAddr(p, 1) }
