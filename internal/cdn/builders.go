package cdn

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"anysim/internal/bgp"
	"anysim/internal/geo"
	"anysim/internal/netplan"
	"anysim/internal/topo"
)

// westAsiaEMEA lists countries the paper's probe-area definition puts in
// APAC ("the rest of the globe") but that the studied CDNs serve from their
// EMEA regions: the Caucasus and Central Asia sit far closer to European
// sites than to East-Asian ones, and Figure 2's partitions colour them with
// EMEA.
var westAsiaEMEA = map[string]bool{
	"AM": true, "AZ": true, "GE": true, "KZ": true, "UZ": true,
}

// Well-known ASNs for the modelled content networks.
const (
	EdgioASN   topo.ASN = topo.CDNBase + 10
	ImpervaASN topo.ASN = topo.CDNBase + 20
	TangledASN topo.ASN = topo.CDNBase + 30
)

// AttachConfig parameterises how a content network connects to the
// topology at each site.
type AttachConfig struct {
	Seed int64
	// ExtraTransitProb is the probability a site buys from a second,
	// tier-2 transit provider besides its tier-1s.
	ExtraTransitProb float64
	// Tier2OnlyProb is the probability a site connects through a regional
	// tier-2 carrier only, with no direct tier-1 transit — the paper's
	// Figure-1 Singapore-via-SingTel pattern, whose customer cone then
	// captures remote clients under global anycast.
	Tier2OnlyProb float64
	// IXPPeers caps how many IXP members the network peers with per site.
	IXPPeers int
	// PublicPeerProb is the probability an IXP peering is public
	// (bilateral) rather than via the route server.
	PublicPeerProb float64
}

// DefaultAttachConfig returns the standard attachment parameters.
func DefaultAttachConfig(seed int64) AttachConfig {
	return AttachConfig{Seed: seed, ExtraTransitProb: 0.5, Tier2OnlyProb: 0.60, IXPPeers: 6, PublicPeerProb: 0.5}
}

// Attach creates the content network's AS with presence at the given
// cities, buys transit at every site, and peers at whatever IXPs exist at
// its site cities. It must be called before the topology is frozen.
func Attach(tp *topo.Topology, asn topo.ASN, name, home string, cities []string, prefix netip.Prefix, cfg AttachConfig) error {
	if cfg.IXPPeers == 0 {
		cfg = DefaultAttachConfig(cfg.Seed)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(asn)))
	a := &topo.AS{ASN: asn, Name: name, Tier: topo.TierCDN, Home: home, Cities: cities, Prefix: prefix}
	if err := tp.AddAS(a); err != nil {
		return err
	}

	// Transit: per site, two tier-1s (global CDNs multihome to several
	// global transits) and possibly a regional tier-2. Links are
	// aggregated per provider because the topology allows only one link
	// per AS pair.
	providerCities := map[topo.ASN][]string{}
	for _, city := range a.Cities {
		t1s, t2s := presentByTier(tp, asn, city)
		if len(t1s) == 0 {
			return fmt.Errorf("cdn: no tier-1 present at %s to attach %s", city, name)
		}
		if len(t2s) > 0 && rng.Float64() < cfg.Tier2OnlyProb {
			// Tier-2-only site: reachable through the carrier's cone and
			// whatever IXP peering exists at the city. The carrier must be
			// a genuinely regional one — homed near the site and with its
			// own upstream transit interconnecting near the site — or the
			// whole Internet would reach the site via the carrier's
			// remote backhaul (a Singapore site buys from SingTel, not
			// from a European carrier with trans-continental haul).
			if local := regionalCarriers(tp, t2s, city); len(local) > 0 {
				perm := rng.Perm(len(local))
				for i := 0; i < 2 && i < len(perm); i++ {
					p := local[perm[i]]
					providerCities[p] = append(providerCities[p], city)
				}
				continue
			}
			// No suitable regional carrier: fall through to tier-1 transit.
		}
		perm := rng.Perm(len(t1s))
		for i := 0; i < 2 && i < len(perm); i++ {
			p := t1s[perm[i]]
			providerCities[p] = append(providerCities[p], city)
		}
		if len(t2s) > 0 && rng.Float64() < cfg.ExtraTransitProb {
			p2 := t2s[rng.Intn(len(t2s))]
			providerCities[p2] = append(providerCities[p2], city)
		}
	}
	provs := make([]topo.ASN, 0, len(providerCities))
	for p := range providerCities {
		provs = append(provs, p)
	}
	sort.Slice(provs, func(i, j int) bool { return provs[i] < provs[j] })
	for _, p := range provs {
		err := tp.AddLink(topo.Link{A: asn, B: p, Type: topo.CustomerToProvider, Cities: dedupSorted(providerCities[p])})
		if err != nil {
			return err
		}
	}

	// IXP peering at site cities. Content networks preferentially peer
	// with carriers (tier-2s): that is where the traffic is — and it is
	// also what creates catchment capture under global anycast, because a
	// carrier's peer route to the CDN attracts the carrier's whole
	// multi-continent customer cone to the one site behind that session.
	for _, city := range a.Cities {
		ix, ok := tp.IXPByID("IX-" + city)
		if !ok {
			continue
		}
		if err := tp.AddIXPMember(ix.ID, asn); err != nil {
			return err
		}
		var carriers, edges []topo.ASN
		for _, m := range ix.Members {
			if m == asn {
				continue
			}
			if _, exists := tp.LinkBetween(asn, m); exists {
				continue
			}
			if tp.MustAS(m).Tier == topo.Tier2 {
				carriers = append(carriers, m)
			} else if tp.MustAS(m).Tier == topo.TierStub {
				edges = append(edges, m)
			}
		}
		pickFrom := func(pool []topo.ASN, n int) []topo.ASN {
			if n > len(pool) {
				n = len(pool)
			}
			perm := rng.Perm(len(pool))[:n]
			sort.Ints(perm)
			out := make([]topo.ASN, 0, n)
			for _, i := range perm {
				out = append(out, pool[i])
			}
			return out
		}
		peers := pickFrom(carriers, cfg.IXPPeers*2/3)
		peers = append(peers, pickFrom(edges, cfg.IXPPeers-len(peers))...)
		for _, m := range peers {
			typ := topo.RouteServerPeer
			if rng.Float64() < cfg.PublicPeerProb {
				typ = topo.PublicPeer
			}
			err := tp.AddLink(topo.Link{A: asn, B: m, Type: typ, Cities: []string{city}, IXP: ix.ID})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// regionalCarriers filters tier-2s present at the city down to genuinely
// regional ones: homed within carrierHomeKm of the site, with at least one
// of their own transit links interconnecting within carrierHomeKm of it.
func regionalCarriers(tp *topo.Topology, t2s []topo.ASN, city string) []topo.ASN {
	const carrierHomeKm = 2500.0
	site, _ := geo.CityIDOf(city)
	var out []topo.ASN
	for _, p := range t2s {
		as := tp.MustAS(p)
		homes := geo.CitiesIn(as.Home)
		if len(homes) == 0 {
			continue
		}
		if home, _ := geo.CityIDOf(homes[0].IATA); geo.KmBetween(home, site) > carrierHomeKm {
			continue
		}
		// The carrier's upstream transit must land near the site.
		nearTransit := false
		for _, li := range tp.LinksOf(p) {
			l := tp.Links()[li]
			if l.Type != topo.CustomerToProvider || l.A != p {
				continue
			}
			for _, c := range l.Cities {
				if id, _ := geo.CityIDOf(c); geo.KmBetween(id, site) <= carrierHomeKm {
					nearTransit = true
					break
				}
			}
			if nearTransit {
				break
			}
		}
		if nearTransit {
			out = append(out, p)
		}
	}
	return out
}

func presentByTier(tp *topo.Topology, self topo.ASN, city string) (t1s, t2s []topo.ASN) {
	for _, asn := range tp.ASNs() {
		if asn == self {
			continue
		}
		a := tp.MustAS(asn)
		if !a.PresentIn(city) {
			continue
		}
		switch a.Tier {
		case topo.Tier1:
			t1s = append(t1s, asn)
		case topo.Tier2:
			t2s = append(t2s, asn)
		}
	}
	return t1s, t2s
}

func dedupSorted(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// lower returns the lowercase form of an ASCII city code, the conventional
// site identifier.
func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// makeRegions allocates a prefix and VIP per region name, in order.
func makeRegions(alloc *netplan.Allocator, names []string) ([]Region, error) {
	out := make([]Region, 0, len(names))
	for _, n := range names {
		p, err := alloc.Prefix(24)
		if err != nil {
			return nil, err
		}
		out = append(out, Region{Name: n, Prefix: p, VIP: netplan.NthAddr(p, 1)})
	}
	return out, nil
}

// Edgio bundles the two studied Edgio customer configurations.
type Edgio struct {
	ASN       topo.ASN
	Published []string // EG-Pub city list (Table 1)
	EG3       *Deployment
	EG4       *Deployment
}

// NewEdgio attaches Edgio's network (presence at all published sites) and
// builds the Edgio-3 and Edgio-4 deployments. Edgio-3 serves three client
// regions (the Americas share one), Edgio-4 four; its Miami site announces
// both the NA and SA prefixes (the paper's "mixed" Florida site).
func NewEdgio(tp *topo.Topology, alloc *netplan.Allocator, asAlloc *netplan.Allocator, seed int64) (*Edgio, error) {
	if err := Attach(tp, EdgioASN, "Edgio", "US", edgioPublished, asAlloc.MustPrefix(16), DefaultAttachConfig(seed)); err != nil {
		return nil, err
	}

	eg3Regions, err := makeRegions(alloc, []string{"amer", "emea", "apac"})
	if err != nil {
		return nil, err
	}
	eg3 := &Deployment{
		Name:          "Edgio-3",
		ASN:           EdgioASN,
		Regions:       eg3Regions,
		ClientRegions: map[string]string{},
		DefaultRegion: "amer",
	}
	for _, city := range edgio3Cities {
		var region string
		switch {
		case city == "MEX" || geo.MustCity(city).Area() == geo.NA:
			region = "amer"
		case geo.MustCity(city).Area() == geo.EMEA:
			region = "emea"
		default:
			region = "apac"
		}
		eg3.Sites = append(eg3.Sites, Site{ID: lower(city), City: city, Regions: []string{region}})
	}
	for _, cc := range geo.CountryCodes() {
		switch {
		case geo.AreaOf(cc) == geo.NA || geo.AreaOf(cc) == geo.LatAm:
			eg3.ClientRegions[cc] = "amer"
		case geo.AreaOf(cc) == geo.EMEA || westAsiaEMEA[cc]:
			eg3.ClientRegions[cc] = "emea"
		default:
			eg3.ClientRegions[cc] = "apac"
		}
	}
	if err := eg3.Finalize(); err != nil {
		return nil, err
	}

	eg4Regions, err := makeRegions(alloc, []string{"na", "sa", "emea", "apac"})
	if err != nil {
		return nil, err
	}
	eg4 := &Deployment{
		Name:          "Edgio-4",
		ASN:           EdgioASN,
		Regions:       eg4Regions,
		ClientRegions: map[string]string{},
		DefaultRegion: "na",
	}
	saSites := map[string]bool{"SAO": true, "RIO": true, "BUE": true}
	for _, city := range edgio4Cities {
		var regions []string
		switch {
		case city == "MIA":
			// The cross-region Florida site serves both Americas regions.
			regions = []string{"na", "sa"}
		case saSites[city]:
			regions = []string{"sa"}
		case city == "MEX" || geo.MustCity(city).Area() == geo.NA:
			regions = []string{"na"}
		case geo.MustCity(city).Area() == geo.EMEA:
			regions = []string{"emea"}
		default:
			regions = []string{"apac"}
		}
		eg4.Sites = append(eg4.Sites, Site{ID: lower(city), City: city, Regions: regions})
	}
	for _, cc := range geo.CountryCodes() {
		switch {
		case cc == "US" || cc == "CA" || cc == "MX":
			eg4.ClientRegions[cc] = "na"
		case geo.AreaOf(cc) == geo.LatAm:
			eg4.ClientRegions[cc] = "sa"
		case geo.AreaOf(cc) == geo.EMEA || westAsiaEMEA[cc]:
			eg4.ClientRegions[cc] = "emea"
		case geo.AreaOf(cc) == geo.NA:
			eg4.ClientRegions[cc] = "na"
		default:
			eg4.ClientRegions[cc] = "apac"
		}
	}
	if err := eg4.Finalize(); err != nil {
		return nil, err
	}

	return &Edgio{ASN: EdgioASN, Published: edgioPublished, EG3: eg3, EG4: eg4}, nil
}

// Imperva bundles Imperva's regional anycast CDN (Imperva-6) and its global
// anycast DNS network (Imperva-NS).
type Imperva struct {
	ASN       topo.ASN
	Published []string // IM-Pub city list (Table 1)
	IM6       *Deployment
	NS        *Deployment
}

// NewImperva attaches Imperva's network and builds Imperva-6 (six client
// regions; Russia's prefix announced from Amsterdam, Frankfurt, and London;
// San Jose cross-announces the APAC prefix) and Imperva-NS (one global
// prefix from 49 sites). Per-site skip lists give the two networks the
// partial peer overlap the paper's §5.3 methodology has to handle.
func NewImperva(tp *topo.Topology, alloc *netplan.Allocator, asAlloc *netplan.Allocator, seed int64) (*Imperva, error) {
	if err := Attach(tp, ImpervaASN, "Imperva", "US", impervaNSCities, asAlloc.MustPrefix(16), DefaultAttachConfig(seed+1)); err != nil {
		return nil, err
	}

	im6Regions, err := makeRegions(alloc, []string{"us", "ca", "latam", "emea", "ru", "apac"})
	if err != nil {
		return nil, err
	}
	im6 := &Deployment{
		Name:          "Imperva-6",
		ASN:           ImpervaASN,
		Regions:       im6Regions,
		ClientRegions: map[string]string{},
		DefaultRegion: "us",
	}
	ruAnnouncers := map[string]bool{"AMS": true, "FRA": true, "LON": true}
	latamSites := map[string]bool{"MEX": true, "BOG": true, "SCL": true, "BUE": true, "SAO": true}
	for _, city := range imperva6Cities {
		c := geo.MustCity(city)
		var regions []string
		switch {
		case ruAnnouncers[city]:
			regions = []string{"emea", "ru"}
		case city == "SJC":
			// The paper observes a Californian Imperva site announcing the
			// APAC regional prefix (a 100+ms cross-region case, §5.2).
			regions = []string{"us", "apac"}
		case latamSites[city]:
			regions = []string{"latam"}
		case city == "YYZ" || city == "YUL":
			regions = []string{"ca"}
		case c.Country == "US":
			regions = []string{"us"}
		case c.Area() == geo.EMEA:
			regions = []string{"emea"}
		default:
			regions = []string{"apac"}
		}
		im6.Sites = append(im6.Sites, Site{ID: lower(city), City: city, Regions: regions})
	}
	for _, cc := range geo.CountryCodes() {
		switch {
		case cc == "US":
			im6.ClientRegions[cc] = "us"
		case cc == "CA":
			im6.ClientRegions[cc] = "ca"
		case cc == "RU":
			im6.ClientRegions[cc] = "ru"
		case geo.AreaOf(cc) == geo.LatAm:
			im6.ClientRegions[cc] = "latam"
		case geo.AreaOf(cc) == geo.EMEA || westAsiaEMEA[cc]:
			im6.ClientRegions[cc] = "emea"
		default:
			im6.ClientRegions[cc] = "apac"
		}
	}

	nsRegions, err := makeRegions(alloc, []string{"global"})
	if err != nil {
		return nil, err
	}
	ns := &Deployment{
		Name:          "Imperva-NS",
		ASN:           ImpervaASN,
		Regions:       nsRegions,
		ClientRegions: map[string]string{},
		DefaultRegion: "global",
	}
	for _, city := range impervaNSCities {
		ns.Sites = append(ns.Sites, Site{ID: lower(city), City: city, Regions: []string{"global"}})
	}

	// Partial peer overlap: at each shared site, the CDN and the NS
	// network each skip a disjoint ~sixth of the site's neighbours.
	rng := rand.New(rand.NewSource(seed + 4242))
	im6.SkipNeighbors = map[string][]topo.ASN{}
	ns.SkipNeighbors = map[string][]topo.ASN{}
	for _, city := range imperva6Cities {
		nbrs := neighborsAt(tp, ImpervaASN, city)
		if len(nbrs) < 3 {
			continue
		}
		perm := rng.Perm(len(nbrs))
		k := len(nbrs) / 6
		if k == 0 && len(nbrs) >= 3 && rng.Float64() < 0.5 {
			k = 1
		}
		id := lower(city)
		for i := 0; i < k; i++ {
			im6.SkipNeighbors[id] = append(im6.SkipNeighbors[id], nbrs[perm[i]])
		}
		for i := k; i < 2*k; i++ {
			ns.SkipNeighbors[id] = append(ns.SkipNeighbors[id], nbrs[perm[i]])
		}
	}

	if err := im6.Finalize(); err != nil {
		return nil, err
	}
	if err := ns.Finalize(); err != nil {
		return nil, err
	}
	return &Imperva{ASN: ImpervaASN, Published: impervaPublished, IM6: im6, NS: ns}, nil
}

// neighborsAt lists the ASes adjacent to asn over links interconnecting at
// the given city.
func neighborsAt(tp *topo.Topology, asn topo.ASN, city string) []topo.ASN {
	var out []topo.ASN
	for _, li := range tp.LinksOf(asn) {
		l := tp.Links()[li]
		if !cityIn(l.Cities, city) {
			continue
		}
		nbr, _ := l.Other(asn)
		out = append(out, nbr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Tangled is the open-access anycast testbed model (12 sites).
type Tangled struct {
	ASN    topo.ASN
	Cities []string
	Global *Deployment // all 12 sites announcing one prefix
	alloc  *netplan.Allocator

	unicast      map[string]netip.Prefix
	regionPrefix map[string][]Region // cached per-partition-name regions
}

// NewTangled attaches the Tangled testbed and builds its global anycast
// deployment. Regional configurations (e.g. the ReOpt partition of §6) are
// built later with Tangled.Regionalize.
func NewTangled(tp *topo.Topology, alloc *netplan.Allocator, asAlloc *netplan.Allocator, seed int64) (*Tangled, error) {
	// The real testbed's sites sit in academic and hosting networks with a
	// single, often regional, upstream each — nothing like a commercial
	// CDN's dual tier-1 multihoming. That scrappy connectivity is why the
	// paper measures such poor global anycast catchments on Tangled
	// (232.6 ms 90th-percentile in NA, §6.2).
	cfg := AttachConfig{Seed: seed + 2, ExtraTransitProb: 0.3, Tier2OnlyProb: 0.35, IXPPeers: 3, PublicPeerProb: 0.5}
	if err := Attach(tp, TangledASN, "Tangled", "NL", tangledCities, asAlloc.MustPrefix(18), cfg); err != nil {
		return nil, err
	}
	regions, err := makeRegions(alloc, []string{"global"})
	if err != nil {
		return nil, err
	}
	g := &Deployment{
		Name:          "Tangled-Global",
		ASN:           TangledASN,
		Regions:       regions,
		ClientRegions: map[string]string{},
		DefaultRegion: "global",
	}
	for _, city := range tangledCities {
		g.Sites = append(g.Sites, Site{ID: lower(city), City: city, Regions: []string{"global"}})
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	return &Tangled{ASN: TangledASN, Cities: tangledCities, Global: g, alloc: alloc}, nil
}

// AnnounceUnicast announces one dedicated /24 per testbed site (each
// announced from that site only) and returns the per-city prefixes. This is
// how latency-based partitioning measures per-site unicast RTTs (§6.1):
// Tangled lets experimenters announce site-specific prefixes.
func (t *Tangled) AnnounceUnicast(e *bgp.Engine) (map[string]netip.Prefix, error) {
	if t.unicast == nil {
		t.unicast = make(map[string]netip.Prefix, len(t.Cities))
		for _, city := range t.Cities {
			p, err := t.alloc.Prefix(24)
			if err != nil {
				return nil, err
			}
			t.unicast[city] = p
		}
	}
	for _, city := range t.Cities {
		ann := []bgp.SiteAnnouncement{{Origin: t.ASN, Site: lower(city) + "-uni", City: city}}
		if err := e.Announce(t.unicast[city], ann); err != nil {
			return nil, err
		}
	}
	return t.unicast, nil
}

// Regionalize builds a regional anycast deployment of the testbed from a
// partition: region name -> site cities, plus a country-level client
// mapping. It allocates fresh prefixes from the testbed's allocator.
func (t *Tangled) Regionalize(name string, partition map[string][]string, clientRegions map[string]string, defaultRegion string) (*Deployment, error) {
	names := make([]string, 0, len(partition))
	for n := range partition {
		names = append(names, n)
	}
	sort.Strings(names)
	// Prefixes are cached per deployment name so repeated builds of the
	// same partition (e.g. benchmark iterations) do not leak address space.
	if t.regionPrefix == nil {
		t.regionPrefix = map[string][]Region{}
	}
	regions, ok := t.regionPrefix[name]
	if !ok || len(regions) != len(names) {
		var err error
		regions, err = makeRegions(t.alloc, names)
		if err != nil {
			return nil, err
		}
		t.regionPrefix[name] = regions
	}
	regions = append([]Region(nil), regions...)
	for i := range regions {
		regions[i].Name = names[i]
	}
	d := &Deployment{
		Name:          name,
		ASN:           t.ASN,
		Regions:       regions,
		ClientRegions: clientRegions,
		DefaultRegion: defaultRegion,
	}
	cityRegion := map[string]string{}
	for rn, cities := range partition {
		for _, c := range cities {
			cityRegion[c] = rn
		}
	}
	for _, city := range t.Cities {
		rn, ok := cityRegion[city]
		if !ok {
			return nil, fmt.Errorf("cdn: partition %q leaves site %s unassigned", name, city)
		}
		d.Sites = append(d.Sites, Site{ID: lower(city), City: city, Regions: []string{rn}})
	}
	if err := d.Finalize(); err != nil {
		return nil, err
	}
	return d, nil
}
