package topo

import (
	"fmt"
	"math/rand"
	"sort"

	"anysim/internal/geo"
	"anysim/internal/netplan"
)

// GenConfig parameterises topology generation. Zero values take defaults
// from DefaultGenConfig.
type GenConfig struct {
	Seed     int64
	NumTier1 int // size of the tier-1 clique
	NumTier2 int // regional transit networks
	NumStub  int // eyeball/edge networks
	NumIXP   int // number of cities hosting an IXP

	// MaxIXPMembers caps IXP membership so pairwise route-server meshes
	// stay tractable.
	MaxIXPMembers int
	// PublicPeerProb is the probability two IXP members that would
	// otherwise peer via the route server instead establish public
	// bilateral peering.
	PublicPeerProb float64
	// RouteServerProb is the probability an IXP member joins the route
	// server.
	RouteServerProb float64
}

// DefaultGenConfig are the parameters of the default "paper world"
// topology.
func DefaultGenConfig(seed int64) GenConfig {
	return GenConfig{
		Seed:            seed,
		NumTier1:        12,
		NumTier2:        190,
		NumStub:         6500,
		NumIXP:          28,
		MaxIXPMembers:   44,
		PublicPeerProb:  0.25,
		RouteServerProb: 0.70,
	}
}

// areaWeights mirror the RIPE Atlas probe-density skew the paper reports
// (§3.1): far more edge networks in EMEA and NA than elsewhere.
var areaWeights = map[geo.Area]float64{
	geo.EMEA:  0.56,
	geo.NA:    0.20,
	geo.APAC:  0.16,
	geo.LatAm: 0.08,
}

// ASN ranges per tier keep generated numbers recognisable in traces.
const (
	tier1Base ASN = 1000
	tier2Base ASN = 2000
	stubBase  ASN = 10000
	// CDNBase is where callers should number custom content networks.
	CDNBase ASN = 60000
)

// Generate builds a seeded random topology. The result is *not* frozen so
// callers (e.g. the CDN layer) can attach additional ASes before freezing.
func Generate(cfg GenConfig) (*Topology, error) {
	def := DefaultGenConfig(cfg.Seed)
	if cfg.NumTier1 == 0 {
		cfg.NumTier1 = def.NumTier1
	}
	if cfg.NumTier2 == 0 {
		cfg.NumTier2 = def.NumTier2
	}
	if cfg.NumStub == 0 {
		cfg.NumStub = def.NumStub
	}
	if cfg.NumIXP == 0 {
		cfg.NumIXP = def.NumIXP
	}
	if cfg.MaxIXPMembers == 0 {
		cfg.MaxIXPMembers = def.MaxIXPMembers
	}
	if cfg.PublicPeerProb == 0 {
		cfg.PublicPeerProb = def.PublicPeerProb
	}
	if cfg.RouteServerProb == 0 {
		cfg.RouteServerProb = def.RouteServerProb
	}

	g := &generator{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		topo:  New(),
		alloc: netplan.NewAllocator(netplan.ASBase),
	}
	g.indexCities()
	if err := g.makeTier1(); err != nil {
		return nil, err
	}
	if err := g.makeTier2(); err != nil {
		return nil, err
	}
	if err := g.makeStubs(); err != nil {
		return nil, err
	}
	if err := g.makeIXPs(); err != nil {
		return nil, err
	}
	return g.topo, nil
}

type generator struct {
	cfg   GenConfig
	rng   *rand.Rand
	topo  *Topology
	alloc *netplan.Allocator

	citiesByArea map[geo.Area][]geo.City
	allCities    []geo.City
	// presence maps city IATA -> ASNs present (updated as ASes are added).
	presence map[string][]ASN
}

func (g *generator) indexCities() {
	g.citiesByArea = make(map[geo.Area][]geo.City)
	g.presence = make(map[string][]ASN)
	for _, c := range geo.Cities() {
		g.allCities = append(g.allCities, c)
		g.citiesByArea[c.Area()] = append(g.citiesByArea[c.Area()], c)
	}
}

func (g *generator) addAS(a *AS) error {
	if err := g.topo.AddAS(a); err != nil {
		return err
	}
	for _, c := range a.Cities {
		g.presence[c] = append(g.presence[c], a.ASN)
	}
	return nil
}

// pickArea samples an area by the probe-density weights.
func (g *generator) pickArea() geo.Area {
	r := g.rng.Float64()
	for _, a := range []geo.Area{geo.EMEA, geo.NA, geo.APAC, geo.LatAm} {
		w := areaWeights[a]
		if r < w {
			return a
		}
		r -= w
	}
	return geo.EMEA
}

// sampleCities picks n distinct cities from the pool.
func (g *generator) sampleCities(pool []geo.City, n int) []string {
	if n > len(pool) {
		n = len(pool)
	}
	idx := g.rng.Perm(len(pool))[:n]
	out := make([]string, 0, n)
	for _, i := range idx {
		out = append(out, pool[i].IATA)
	}
	sort.Strings(out)
	return out
}

// tier1Homes are plausible home countries for global transit providers.
var tier1Homes = []string{"US", "US", "US", "US", "DE", "FR", "GB", "SE", "IT", "JP", "IN", "HK"}

func (g *generator) makeTier1() error {
	// Build footprints first: roughly half of each area's cities per
	// tier-1, then round-robin any city no tier-1 covers, so every edge
	// network can always buy transit somewhere (keeps the graph connected).
	footprints := make([][]string, g.cfg.NumTier1)
	covered := map[string]bool{}
	for i := range footprints {
		var cities []string
		for _, area := range geo.Areas {
			pool := g.citiesByArea[area]
			want := len(pool)/2 + g.rng.Intn(len(pool)/3+1)
			cities = append(cities, g.sampleCities(pool, want)...)
		}
		footprints[i] = cities
		for _, c := range cities {
			covered[c] = true
		}
	}
	for j, city := range g.allCities {
		if !covered[city.IATA] {
			i := j % g.cfg.NumTier1
			footprints[i] = append(footprints[i], city.IATA)
		}
	}
	for i := 0; i < g.cfg.NumTier1; i++ {
		home := tier1Homes[i%len(tier1Homes)]
		a := &AS{
			ASN:    tier1Base + ASN(i),
			Name:   fmt.Sprintf("T1-Backbone-%d", i+1),
			Tier:   Tier1,
			Home:   home,
			Cities: footprints[i],
			Prefix: g.alloc.MustPrefix(16),
		}
		if err := g.addAS(a); err != nil {
			return err
		}
	}
	// Full tier-1 clique via public peering, interconnecting wherever they
	// overlap (capped to spread interconnection globally).
	t1s := make([]ASN, 0, g.cfg.NumTier1)
	for i := 0; i < g.cfg.NumTier1; i++ {
		t1s = append(t1s, tier1Base+ASN(i))
	}
	for i := 0; i < len(t1s); i++ {
		for j := i + 1; j < len(t1s); j++ {
			common := g.topo.CommonCities(t1s[i], t1s[j])
			if len(common) == 0 {
				continue
			}
			cities := g.capCities(common, 12)
			err := g.topo.AddLink(Link{A: t1s[i], B: t1s[j], Type: PublicPeer, Cities: cities})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// capCities samples up to n cities from the list, deterministically via the
// generator's RNG, preserving sorted order.
func (g *generator) capCities(list []string, n int) []string {
	if len(list) <= n {
		return list
	}
	idx := g.rng.Perm(len(list))[:n]
	out := make([]string, 0, n)
	for _, i := range idx {
		out = append(out, list[i])
	}
	sort.Strings(out)
	return out
}

func (g *generator) makeTier2() error {
	for i := 0; i < g.cfg.NumTier2; i++ {
		area := g.pickArea()
		pool := g.citiesByArea[area]
		n := 4 + g.rng.Intn(10)
		cities := g.compactFootprint(pool, n)
		// A minority of tier-2s are international carriers spanning a
		// second area (the paper notes transit-provider IPs often geolocate
		// to home countries, not where clients are).
		if g.rng.Float64() < 0.30 {
			other := g.pickArea()
			if other != area {
				extra := g.sampleCities(g.citiesByArea[other], 2+g.rng.Intn(3))
				cities = mergeSorted(cities, extra)
			}
		}
		home := geo.MustCity(cities[g.rng.Intn(len(cities))]).Country
		a := &AS{
			ASN:    tier2Base + ASN(i),
			Name:   fmt.Sprintf("T2-%s-%d", area, i+1),
			Tier:   Tier2,
			Home:   home,
			Cities: cities,
			Prefix: g.alloc.MustPrefix(18),
		}
		if err := g.addAS(a); err != nil {
			return err
		}
		// Tier-1 providers chosen to cover the tier-2's whole footprint:
		// a carrier without transit sessions near some of its metros would
		// haul those customers' traffic across the planet.
		if err := g.coveringProviders(a, 3); err != nil {
			return err
		}
		// A third of tier-2s also buy transit from an earlier tier-2 with
		// presence overlap (SingTel buying from Zayo in the paper's
		// Figure 1). These carrier-to-carrier customer relationships are
		// what lets one carrier's customer route to an anycast site
		// capture another carrier's whole cone under global anycast.
		if i > 0 && g.rng.Float64() < 0.5 {
			cands := g.pickProviders(a, Tier2, 6)
			g.rng.Shuffle(len(cands), func(x, y int) { cands[x], cands[y] = cands[y], cands[x] })
			for _, p := range cands {
				if p >= a.ASN {
					continue // only earlier tier-2s: keeps c2p acyclic
				}
				common := g.topo.CommonCities(a.ASN, p)
				if len(common) == 0 {
					continue
				}
				if err := g.topo.AddLink(Link{A: a.ASN, B: p, Type: CustomerToProvider, Cities: common}); err != nil {
					return err
				}
				break
			}
		}
	}
	return nil
}

// coveringProviders attaches up to maxProv tier-1 providers to a, greedily
// maximising footprint coverage: the first is random, each further provider
// is the one covering the most still-uncovered cities. Transit links
// interconnect at every shared metro.
func (g *generator) coveringProviders(a *AS, maxProv int) error {
	t1s := g.pickProviders(a, Tier1, g.cfg.NumTier1)
	if len(t1s) == 0 {
		return fmt.Errorf("topo: no tier-1 overlaps %s", a.ASN)
	}
	uncovered := map[string]bool{}
	for _, c := range a.Cities {
		uncovered[c] = true
	}
	var chosen []ASN
	first := t1s[g.rng.Intn(len(t1s))]
	chosen = append(chosen, first)
	for _, c := range g.topo.CommonCities(a.ASN, first) {
		delete(uncovered, c)
	}
	for len(uncovered) > 0 && len(chosen) < maxProv {
		best, bestCover := ASN(0), 0
		for _, p := range t1s {
			if containsASN(chosen, p) {
				continue
			}
			cover := 0
			for _, c := range g.topo.CommonCities(a.ASN, p) {
				if uncovered[c] {
					cover++
				}
			}
			if cover > bestCover {
				best, bestCover = p, cover
			}
		}
		if best == 0 {
			break // nobody covers the remainder
		}
		chosen = append(chosen, best)
		for _, c := range g.topo.CommonCities(a.ASN, best) {
			delete(uncovered, c)
		}
	}
	for _, p := range chosen {
		common := g.topo.CommonCities(a.ASN, p)
		if len(common) == 0 {
			continue
		}
		if err := g.topo.AddLink(Link{A: a.ASN, B: p, Type: CustomerToProvider, Cities: common}); err != nil {
			return err
		}
	}
	return nil
}

func containsASN(list []ASN, x ASN) bool {
	for _, a := range list {
		if a == x {
			return true
		}
	}
	return false
}

// compactFootprint grows a geographically compact footprint: a random seed
// city plus its n-1 nearest neighbours within the pool. Real regional
// carriers cover contiguous metros, not uniform samples of half the planet;
// compact footprints keep their hot-potato egress choices sane.
func (g *generator) compactFootprint(pool []geo.City, n int) []string {
	if n > len(pool) {
		n = len(pool)
	}
	seed := pool[g.rng.Intn(len(pool))]
	type cd struct {
		iata string
		km   float64
	}
	dists := make([]cd, 0, len(pool))
	from, _ := geo.CityIDOf(seed.IATA)
	for _, c := range pool {
		to, _ := geo.CityIDOf(c.IATA)
		dists = append(dists, cd{c.IATA, geo.KmBetween(from, to)})
	}
	sort.Slice(dists, func(i, j int) bool {
		if dists[i].km != dists[j].km {
			return dists[i].km < dists[j].km
		}
		return dists[i].iata < dists[j].iata
	})
	out := make([]string, 0, n)
	for _, d := range dists[:n] {
		out = append(out, d.iata)
	}
	sort.Strings(out)
	return out
}

// mergeSorted merges two sorted string slices, removing duplicates.
func mergeSorted(a, b []string) []string {
	out := append(append([]string(nil), a...), b...)
	sort.Strings(out)
	dedup := out[:0]
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			dedup = append(dedup, s)
		}
	}
	return dedup
}

// pickProviders selects up to n distinct ASes of the wanted tier that share
// at least one city with a.
func (g *generator) pickProviders(a *AS, tier Tier, n int) []ASN {
	candSet := map[ASN]bool{}
	var cands []ASN
	for _, c := range a.Cities {
		for _, asn := range g.presence[c] {
			other := g.topo.MustAS(asn)
			if other.Tier != tier || asn == a.ASN || candSet[asn] {
				continue
			}
			candSet[asn] = true
			cands = append(cands, asn)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	if len(cands) <= n {
		return cands
	}
	idx := g.rng.Perm(len(cands))[:n]
	out := make([]ASN, 0, n)
	for _, i := range idx {
		out = append(out, cands[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *generator) makeStubs() error {
	// Weighted list of countries: each country appears in its area bucket;
	// weight within the area proportional to how many cities it has (a
	// proxy for network density).
	type bucket struct {
		countries []string
		cum       []float64
		total     float64
	}
	buckets := map[geo.Area]*bucket{}
	for _, cc := range geo.CountryCodes() {
		area := geo.AreaOf(cc)
		ncities := len(geo.CitiesIn(cc))
		if ncities == 0 {
			continue
		}
		b := buckets[area]
		if b == nil {
			b = &bucket{}
			buckets[area] = b
		}
		b.total += float64(ncities)
		b.countries = append(b.countries, cc)
		b.cum = append(b.cum, b.total)
	}
	pickCountry := func(area geo.Area) string {
		b := buckets[area]
		r := g.rng.Float64() * b.total
		i := sort.SearchFloat64s(b.cum, r)
		if i >= len(b.countries) {
			i = len(b.countries) - 1
		}
		return b.countries[i]
	}

	for i := 0; i < g.cfg.NumStub; i++ {
		area := g.pickArea()
		cc := pickCountry(area)
		pool := geo.CitiesIn(cc)
		n := 1 + g.rng.Intn(min(3, len(pool)))
		cities := g.sampleCities(pool, n)
		a := &AS{
			ASN:    stubBase + ASN(i),
			Name:   fmt.Sprintf("Edge-%s-%d", cc, i+1),
			Tier:   TierStub,
			Home:   cc,
			Cities: cities,
			Prefix: g.alloc.MustPrefix(20),
		}
		if err := g.addAS(a); err != nil {
			return err
		}
		// Providers: prefer tier-2 present in one of the stub's cities;
		// some stubs buy directly from a tier-1 too. Most edge networks
		// are single-homed, which is what lets one upstream's route choice
		// capture them entirely.
		nProv := 1
		if g.rng.Float64() < 0.3 {
			nProv = 2
		}
		provs := g.pickProviders(a, Tier2, nProv)
		if len(provs) == 0 || g.rng.Float64() < 0.25 {
			provs = append(provs, g.pickProviders(a, Tier1, 1)...)
		}
		seen := map[ASN]bool{}
		for _, p := range provs {
			if seen[p] {
				continue
			}
			seen[p] = true
			common := g.topo.CommonCities(a.ASN, p)
			if len(common) == 0 {
				continue
			}
			err := g.topo.AddLink(Link{A: a.ASN, B: p, Type: CustomerToProvider, Cities: common})
			if err != nil {
				return err
			}
		}
		if len(g.topo.Providers(a.ASN)) == 0 {
			// Guarantee connectivity: attach to the tier-1 with the most
			// presence overlap; tier-1 footprints are near-global so this
			// nearly always succeeds.
			if err := g.forceProvider(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// forceProvider attaches a to the first tier-1 sharing any city; if none
// shares a city (tiny footprints), it attaches at the tier-1 city nearest to
// the stub's first city by adding that city to the stub's footprint being a
// last resort that keeps the graph connected.
func (g *generator) forceProvider(a *AS) error {
	for i := 0; i < g.cfg.NumTier1; i++ {
		t1 := tier1Base + ASN(i)
		common := g.topo.CommonCities(a.ASN, t1)
		if len(common) > 0 {
			return g.topo.AddLink(Link{A: a.ASN, B: t1, Type: CustomerToProvider, Cities: common})
		}
	}
	return fmt.Errorf("topo: could not connect %s to any tier-1", a.ASN)
}

func (g *generator) makeIXPs() error {
	// Host IXPs in the cities with the most AS presence.
	type cityCount struct {
		iata string
		n    int
	}
	counts := make([]cityCount, 0, len(g.presence))
	for c, asns := range g.presence {
		counts = append(counts, cityCount{c, len(asns)})
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].n != counts[j].n {
			return counts[i].n > counts[j].n
		}
		return counts[i].iata < counts[j].iata
	})
	nIXP := g.cfg.NumIXP
	if nIXP > len(counts) {
		nIXP = len(counts)
	}
	for k := 0; k < nIXP; k++ {
		city := counts[k].iata
		// Sample members from ASes present at the city.
		var members []ASN
		for _, asn := range g.presence[city] {
			a := g.topo.MustAS(asn)
			var p float64
			switch a.Tier {
			case Tier1:
				p = 0.85
			case Tier2:
				p = 0.75
			default:
				p = 0.30
			}
			if g.rng.Float64() < p {
				members = append(members, asn)
			}
		}
		if len(members) > g.cfg.MaxIXPMembers {
			idx := g.rng.Perm(len(members))[:g.cfg.MaxIXPMembers]
			capped := make([]ASN, 0, g.cfg.MaxIXPMembers)
			for _, i := range idx {
				capped = append(capped, members[i])
			}
			members = capped
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		ix := &IXP{ID: "IX-" + city, City: city, Members: members}
		if err := g.topo.AddIXP(ix); err != nil {
			return err
		}
		if err := g.peerAtIXP(ix); err != nil {
			return err
		}
	}
	return nil
}

// peerAtIXP creates peering links among IXP members: a fraction of pairs
// peer publicly (bilaterally over the fabric), and route-server members
// peer multilaterally with every other route-server member. Pairs that
// already have a direct relationship are skipped.
func (g *generator) peerAtIXP(ix *IXP) error {
	rsMember := map[ASN]bool{}
	for _, m := range ix.Members {
		if g.rng.Float64() < g.cfg.RouteServerProb {
			rsMember[m] = true
		}
	}
	related := func(x, y ASN) bool {
		for _, idx := range g.topo.LinksOf(x) {
			l := g.topo.Links()[idx]
			if other, ok := l.Other(x); ok && other == y {
				return true
			}
		}
		return false
	}
	for i := 0; i < len(ix.Members); i++ {
		for j := i + 1; j < len(ix.Members); j++ {
			x, y := ix.Members[i], ix.Members[j]
			ax, ay := g.topo.MustAS(x), g.topo.MustAS(y)
			// Tier-1s have restrictive peering policies: their clique is
			// privately interconnected and they sell transit to everyone
			// else — they neither peer openly nor sit behind route
			// servers. An open tier-1 peering would let a single distant
			// session attract an AS's whole cone (peer routes beat
			// provider routes), which real tier-1s avoid contractually.
			if ax.Tier == Tier1 || ay.Tier == Tier1 {
				continue
			}
			if related(x, y) {
				continue
			}
			switch {
			case g.rng.Float64() < g.cfg.PublicPeerProb:
				err := g.topo.AddLink(Link{A: x, B: y, Type: PublicPeer, Cities: []string{ix.City}, IXP: ix.ID})
				if err != nil {
					return err
				}
			case rsMember[x] && rsMember[y]:
				err := g.topo.AddLink(Link{A: x, B: y, Type: RouteServerPeer, Cities: []string{ix.City}, IXP: ix.ID})
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
