package atlas

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"

	"anysim/internal/dnssim"
	"anysim/internal/geo"
	"anysim/internal/geodb"
	"anysim/internal/netplan"
	"anysim/internal/topo"
)

// Probe is one measurement vantage point.
type Probe struct {
	ID      int
	ASN     topo.ASN
	City    string // IATA code of the probe's metro (its paper city code)
	Country string
	Coord   geo.Coord // true location, jittered around the city centre
	Addr    netip.Addr

	// Stable mirrors RIPE Atlas stability tags; unstable probes are
	// discarded by the paper's filtering (§3.1).
	Stable bool
	// ReliableGeo is false for probes with unreliable user-reported
	// geocodes, also discarded.
	ReliableGeo bool

	Resolver *dnssim.Resolver
	// AccessMs is the probe's last-mile latency contribution.
	AccessMs float64
}

// Area returns the paper probe area the probe is in.
func (p *Probe) Area() geo.Area { return geo.AreaOf(p.Country) }

// PublicResolver is a well-known open resolver with a fixed location.
type PublicResolver struct {
	Resolver dnssim.Resolver
	City     string
}

// PopulationConfig controls probe generation. Counts are per paper area and
// default to the paper's retained-probe census scaled by Scale.
type PopulationConfig struct {
	Seed  int64
	Scale float64 // 1.0 = the paper's probe counts

	// Counts per area of *retained* probes. Zero values take the paper's
	// numbers (EMEA 6917, NA 1716, LatAm 177, APAC 950).
	Counts map[geo.Area]int
	// DiscardFraction adds this fraction of extra probes that fail the
	// stability/geocode filters, exercising the filtering step. Default
	// 0.12 (the paper retains 9,700+ of 11,000+ probes).
	DiscardFraction float64

	// Resolver mix. Defaults: 80% ISP resolver (no ECS), 16% public
	// resolver with ECS, 4% public resolver without ECS.
	PISPResolver, PPublicECS float64
	// TransitAddressedFraction of stub ASes get provider-assigned address
	// space (geolocation hazard). Default 0.03.
	TransitAddressedFraction float64
}

func (c PopulationConfig) withDefaults() PopulationConfig {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Counts == nil {
		c.Counts = map[geo.Area]int{
			geo.EMEA:  6917,
			geo.NA:    1716,
			geo.LatAm: 177,
			geo.APAC:  950,
		}
	}
	if c.DiscardFraction == 0 {
		c.DiscardFraction = 0.12
	}
	if c.PISPResolver == 0 {
		c.PISPResolver = 0.80
	}
	if c.PPublicECS == 0 {
		c.PPublicECS = 0.16
	}
	if c.TransitAddressedFraction == 0 {
		c.TransitAddressedFraction = 0.03
	}
	return c
}

// Platform is the generated probe population plus its supporting DNS
// resolvers and addressing metadata.
type Platform struct {
	Probes          []*Probe // all probes, including ones filtered out
	PublicResolvers []PublicResolver
	// TransitAddressedStubs records stub ASes using provider-assigned
	// space, for ground-truth registration.
	TransitAddressedStubs map[topo.ASN]string

	retained []*Probe
	groups   *GroupTable
}

// publicResolverHubs are the anycast hubs of the simulated open resolvers:
// each area hosts one ECS-speaking hub (even indexes, Google-like) and one
// non-ECS hub (odd indexes).
var publicResolverHubs = []string{"SJC", "NYC", "AMS", "FRA", "SIN", "HKG", "SAO", "BUE"}

// NewPlatform generates the probe population over a frozen topology.
func NewPlatform(tp *topo.Topology, ad *Addressing, cfg PopulationConfig) (*Platform, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Public resolvers: one /24 per hub; even hubs speak ECS (Google-like),
	// odd hubs do not.
	alloc := netplan.NewAllocator(netplan.ResolverBase)
	pl := &Platform{TransitAddressedStubs: map[topo.ASN]string{}}
	for i, hub := range publicResolverHubs {
		p, err := alloc.Prefix(24)
		if err != nil {
			return nil, err
		}
		pl.PublicResolvers = append(pl.PublicResolvers, PublicResolver{
			Resolver: dnssim.Resolver{Addr: netplan.NthAddr(p, 1), ECS: i%2 == 0},
			City:     hub,
		})
	}

	// Index stub ASes by area.
	stubsByArea := map[geo.Area][]topo.ASN{}
	for _, asn := range tp.ASNs() {
		as := tp.MustAS(asn)
		if as.Tier != topo.TierStub {
			continue
		}
		stubsByArea[geo.AreaOf(as.Home)] = append(stubsByArea[geo.AreaOf(as.Home)], asn)
	}
	for _, area := range geo.Areas {
		if len(stubsByArea[area]) == 0 {
			return nil, fmt.Errorf("atlas: topology has no stub AS in %v", area)
		}
	}

	// Mark transit-addressed stubs: those whose provider is an
	// international tier-2. Areas go in their fixed order, not the map's,
	// so the same seed marks the same stubs in every process.
	for _, area := range geo.Areas {
		for _, asn := range stubsByArea[area] {
			if rng.Float64() >= cfg.TransitAddressedFraction {
				continue
			}
			for _, prov := range tp.Providers(asn) {
				p := tp.MustAS(prov)
				if p.Tier == topo.Tier2 && p.Home != tp.MustAS(asn).Home {
					pl.TransitAddressedStubs[asn] = p.Home
					break
				}
			}
		}
	}

	// Per-(AS, city) probe counters keep addresses unique.
	counters := map[string]int{}
	ecsPublic, plainPublic := splitResolvers(pl.PublicResolvers)
	// Public resolvers are anycast: a client reaches the nearest hub, so
	// the resolver address an authoritative sees is at least on the right
	// continent.
	nearestResolver := func(pool []PublicResolver, coord geo.Coord) *dnssim.Resolver {
		best, bestKm := 0, -1.0
		for i, pr := range pool {
			d := geo.DistanceKm(coord, geo.MustCity(pr.City).Coord)
			if bestKm < 0 || d < bestKm {
				best, bestKm = i, d
			}
		}
		return &pool[best].Resolver
	}

	id := 0
	makeProbe := func(area geo.Area, retained bool) error {
		asns := stubsByArea[area]
		// A few attempts in case a block fills up.
		for attempt := 0; attempt < 20; attempt++ {
			asn := asns[rng.Intn(len(asns))]
			as := tp.MustAS(asn)
			city := as.Cities[rng.Intn(len(as.Cities))]
			key := fmt.Sprintf("%d|%s", asn, city)
			n := counters[key]
			if n >= probePerCity {
				continue
			}
			addr, err := ad.ProbeAddr(asn, city, n)
			if err != nil {
				return err
			}
			counters[key] = n + 1
			c := geo.MustCity(city)
			probe := &Probe{
				ID:          id,
				ASN:         asn,
				City:        city,
				Country:     c.Country,
				Coord:       jitterCoord(rng, c.Coord, 0.3),
				Addr:        addr,
				Stable:      true,
				ReliableGeo: true,
				AccessMs:    0.2 + rng.Float64()*2.3,
			}
			if !retained {
				// Fail one of the two filters.
				if rng.Float64() < 0.5 {
					probe.Stable = false
				} else {
					probe.ReliableGeo = false
				}
			}
			// Resolver assignment.
			r := rng.Float64()
			switch {
			case r < cfg.PISPResolver:
				raddr, err := ad.ResolverAddr(asn, city)
				if err != nil {
					return err
				}
				probe.Resolver = &dnssim.Resolver{Addr: raddr}
			case r < cfg.PISPResolver+cfg.PPublicECS && len(ecsPublic) > 0:
				probe.Resolver = nearestResolver(ecsPublic, probe.Coord)
			default:
				probe.Resolver = nearestResolver(plainPublic, probe.Coord)
			}
			pl.Probes = append(pl.Probes, probe)
			id++
			return nil
		}
		return fmt.Errorf("atlas: could not place probe in %v (blocks full)", area)
	}

	for _, area := range geo.Areas {
		want := int(float64(cfg.Counts[area])*cfg.Scale + 0.5)
		if want == 0 {
			want = 1
		}
		discard := int(float64(want) * cfg.DiscardFraction)
		for i := 0; i < want; i++ {
			if err := makeProbe(area, true); err != nil {
				return nil, err
			}
		}
		for i := 0; i < discard; i++ {
			if err := makeProbe(area, false); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range pl.Probes {
		if p.Stable && p.ReliableGeo {
			pl.retained = append(pl.retained, p)
		}
	}
	pl.retained = slices.Clip(pl.retained)
	pl.groups = GroupProbes(pl.retained)
	return pl, nil
}

func splitResolvers(prs []PublicResolver) (ecs, plain []PublicResolver) {
	for _, pr := range prs {
		if pr.Resolver.ECS {
			ecs = append(ecs, pr)
		} else {
			plain = append(plain, pr)
		}
	}
	return ecs, plain
}

// jitterCoord displaces a coordinate by up to maxDeg degrees in each axis.
func jitterCoord(rng *rand.Rand, c geo.Coord, maxDeg float64) geo.Coord {
	out := geo.Coord{
		Lat: c.Lat + (rng.Float64()*2-1)*maxDeg,
		Lon: c.Lon + (rng.Float64()*2-1)*maxDeg,
	}
	if out.Lat > 90 {
		out.Lat = 90
	}
	if out.Lat < -90 {
		out.Lat = -90
	}
	return out
}

// Retained returns the probes surviving the paper's stability and geocode
// filters, in generation order. The platform is immutable, so the list is
// built once and shared: callers must not modify it.
func (pl *Platform) Retained() []*Probe { return pl.retained }

// Groups returns the retained probes' <city, AS> group table.
func (pl *Platform) Groups() *GroupTable { return pl.groups }

// RegisterTruth registers the platform's public-resolver blocks in the
// ground truth (the rest of the plan is registered by Addressing).
func (pl *Platform) RegisterTruth(truth *geodb.Truth) error {
	for _, pr := range pl.PublicResolvers {
		c := geo.MustCity(pr.City)
		block := netip.PrefixFrom(pr.Resolver.Addr, 24)
		err := truth.Add(geodb.Entry{Prefix: block, Loc: geodb.Location{Country: c.Country, City: c.IATA}})
		if err != nil {
			return err
		}
	}
	return nil
}
