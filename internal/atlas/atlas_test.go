package atlas

import (
	"maps"
	"net/netip"
	"strings"
	"testing"

	"anysim/internal/bgp"
	"anysim/internal/geo"
	"anysim/internal/geodb"
	"anysim/internal/netplan"
	"anysim/internal/topo"
)

type fixture struct {
	topo     *topo.Topology
	engine   *bgp.Engine
	addr     *Addressing
	platform *Platform
	measurer *Measurer
	cdnASN   topo.ASN
	prefix   netip.Prefix
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	tp, err := topo.Generate(topo.GenConfig{Seed: 31, NumTier1: 4, NumTier2: 30, NumStub: 240, NumIXP: 10})
	if err != nil {
		t.Fatal(err)
	}
	cdnASN := topo.CDNBase
	cdnCities := []string{"IAD", "FRA", "SIN"}
	cdnAS := &topo.AS{ASN: cdnASN, Name: "TestCDN", Tier: topo.TierCDN, Home: "US",
		Cities: cdnCities, Prefix: netip.MustParsePrefix("32.0.0.0/16")}
	if err := tp.AddAS(cdnAS); err != nil {
		t.Fatal(err)
	}
	providerCities := map[topo.ASN][]string{}
	for _, city := range cdnCities {
		for _, asn := range tp.ASNs() {
			a := tp.MustAS(asn)
			if a.Tier == topo.Tier1 && a.PresentIn(city) {
				providerCities[asn] = append(providerCities[asn], city)
				break
			}
		}
	}
	for asn, cities := range providerCities {
		if err := tp.AddLink(topo.Link{A: cdnASN, B: asn, Type: topo.CustomerToProvider, Cities: cities}); err != nil {
			t.Fatal(err)
		}
	}
	tp.Freeze()

	e := bgp.NewEngine(tp)
	prefix := netip.MustParsePrefix("198.18.0.0/24")
	err = e.Announce(prefix, []bgp.SiteAnnouncement{
		{Origin: cdnASN, Site: "iad", City: "IAD"},
		{Origin: cdnASN, Site: "fra", City: "FRA"},
		{Origin: cdnASN, Site: "sin", City: "SIN"},
	})
	if err != nil {
		t.Fatal(err)
	}

	ad, err := NewAddressing(tp, 31)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlatform(tp, ad, PopulationConfig{Seed: 31, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		topo:     tp,
		engine:   e,
		addr:     ad,
		platform: pl,
		measurer: NewMeasurer(e, ad, 31),
		cdnASN:   cdnASN,
		prefix:   prefix,
	}
}

func TestAddressingUniqueness(t *testing.T) {
	f := newFixture(t)
	seen := map[netip.Addr]string{}
	check := func(a netip.Addr, what string) {
		t.Helper()
		if prev, dup := seen[a]; dup {
			t.Fatalf("address %v assigned to both %s and %s", a, prev, what)
		}
		seen[a] = what
	}
	for _, asn := range f.topo.ASNs() {
		as := f.topo.MustAS(asn)
		for _, city := range as.Cities {
			for unit := 0; unit < 4; unit++ {
				a, err := f.addr.RouterAddr(asn, city, unit)
				if err != nil {
					t.Fatal(err)
				}
				check(a, "router")
			}
		}
	}
	for _, p := range f.platform.Probes {
		check(p.Addr, "probe")
	}
}

func TestAddressingErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := f.addr.RouterAddr(999999, "FRA", 0); err == nil {
		t.Error("RouterAddr accepted unknown AS")
	}
	if _, err := f.addr.RouterAddr(f.cdnASN, "SYD", 0); err == nil {
		t.Error("RouterAddr accepted city outside footprint")
	}
	if _, err := f.addr.RouterAddr(f.cdnASN, "FRA", 99); err == nil {
		t.Error("RouterAddr accepted out-of-range unit")
	}
	if _, err := f.addr.IXPAddr("IX-NOPE", f.cdnASN); err == nil {
		t.Error("IXPAddr accepted unknown IXP")
	}
}

func TestOwnerOfAndIXPOf(t *testing.T) {
	f := newFixture(t)
	a, err := f.addr.RouterAddr(f.cdnASN, "FRA", 1)
	if err != nil {
		t.Fatal(err)
	}
	owner, ok := f.addr.OwnerOf(a)
	if !ok || owner != f.cdnASN {
		t.Errorf("OwnerOf(router) = %v, %v", owner, ok)
	}
	ixps := f.topo.IXPs()
	if len(ixps) == 0 {
		t.Fatal("no IXPs")
	}
	ix := ixps[0]
	if len(ix.Members) == 0 {
		t.Fatal("IXP with no members")
	}
	fa, err := f.addr.IXPAddr(ix.ID, ix.Members[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.addr.OwnerOf(fa); ok {
		t.Error("IXP fabric address resolved to an AS owner (should be invisible in BGP)")
	}
	id, ok := f.addr.IXPOf(fa)
	if !ok || id != ix.ID {
		t.Errorf("IXPOf = %v, %v", id, ok)
	}
}

func TestPopulationAreaCounts(t *testing.T) {
	f := newFixture(t)
	counts := map[geo.Area]int{}
	for _, p := range f.platform.Retained() {
		counts[p.Area()]++
	}
	// Scale 0.05 of the paper's counts.
	want := map[geo.Area]int{geo.EMEA: 346, geo.NA: 86, geo.LatAm: 9, geo.APAC: 48}
	for area, w := range want {
		if counts[area] != w {
			t.Errorf("retained probes in %v = %d, want %d", area, counts[area], w)
		}
	}
	// Discarded probes exist.
	if len(f.platform.Probes) <= len(f.platform.Retained()) {
		t.Error("no probes were generated for the filtering step")
	}
}

// TestTransitAddressedStubsDeterministic rebuilds the platform from the same
// seed: which stubs are marked must not depend on map iteration order, which
// Go randomises on every range.
func TestTransitAddressedStubsDeterministic(t *testing.T) {
	f := newFixture(t)
	want := f.platform.TransitAddressedStubs
	if len(want) == 0 {
		t.Fatal("no transit-addressed stubs; the test needs some")
	}
	for i := 0; i < 8; i++ {
		pl, err := NewPlatform(f.topo, f.addr, PopulationConfig{Seed: 31, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(pl.TransitAddressedStubs, want) {
			t.Fatalf("build %d marked %v, first build %v", i, pl.TransitAddressedStubs, want)
		}
	}
}

func TestGroupsAreCityASPairs(t *testing.T) {
	f := newFixture(t)
	groups := f.platform.Groups()
	if len(groups) == 0 {
		t.Fatal("no probe groups")
	}
	for key, probes := range groups {
		parts := strings.Split(key, "|")
		if len(parts) != 2 {
			t.Fatalf("malformed group key %q", key)
		}
		for _, p := range probes {
			if p.GroupKey() != key {
				t.Errorf("probe %d in wrong group %q", p.ID, key)
			}
			if !p.Stable || !p.ReliableGeo {
				t.Errorf("filtered probe %d appears in groups", p.ID)
			}
		}
	}
	if len(f.platform.GroupKeys()) != len(groups) {
		t.Error("GroupKeys length mismatch")
	}
}

func TestPingProducesPlausibleRTTs(t *testing.T) {
	f := newFixture(t)
	vip := VIPOf(f.prefix)
	var measured int
	for _, p := range f.platform.Retained() {
		rtt, ok := f.measurer.Ping(p, vip)
		if !ok {
			continue
		}
		measured++
		if rtt <= 0 || rtt > 500 {
			t.Fatalf("implausible RTT %v ms for probe %d", rtt, p.ID)
		}
		// Determinism.
		rtt2, _ := f.measurer.Ping(p, vip)
		if rtt != rtt2 {
			t.Fatalf("nondeterministic ping: %v vs %v", rtt, rtt2)
		}
	}
	if measured < len(f.platform.Retained())*9/10 {
		t.Errorf("only %d/%d probes could ping", measured, len(f.platform.Retained()))
	}
	if _, ok := f.measurer.Ping(f.platform.Retained()[0], netip.MustParseAddr("203.0.113.1")); ok {
		t.Error("ping to unannounced address succeeded")
	}
}

func TestRTTLowerBoundedByGeography(t *testing.T) {
	f := newFixture(t)
	for _, p := range f.platform.Retained()[:50] {
		fwd, ok := f.measurer.Forward(p, f.prefix)
		if !ok {
			continue
		}
		rtt := f.measurer.RTT(p, fwd)
		site := geo.MustCity(fwd.SiteCity())
		probeCity := geo.MustCity(p.City)
		minRTT := geo.FiberRTTMs(geo.DistanceKm(probeCity.Coord, site.Coord))
		if rtt < minRTT-0.01 {
			t.Errorf("probe %d RTT %.2f below speed-of-light bound %.2f", p.ID, rtt, minRTT)
		}
	}
}

func TestTracerouteStructure(t *testing.T) {
	f := newFixture(t)
	vip := VIPOf(f.prefix)

	// With SiteRouterProb=1 every p-hop is the CDN's site router; with 0
	// every p-hop is the upstream's router or the IXP fabric.
	always := NewMeasurer(f.engine, f.addr, 31)
	always.SiteRouterProb = 1
	never := NewMeasurer(f.engine, f.addr, 31)
	never.SiteRouterProb = 0

	var traced, upstreamPHops, ixpPHops int
	for _, p := range f.platform.Retained() {
		tr, ok := always.Traceroute(p, vip)
		if !ok || !tr.Reached {
			continue
		}
		traced++
		ph, ok := tr.PHop()
		if !ok {
			t.Fatalf("probe %d: reached trace without p-hop", p.ID)
		}
		if ph.Owner != f.cdnASN {
			t.Fatalf("probe %d: p-hop owner %v, want CDN site router", p.ID, ph.Owner)
		}
		// RTTs must be nondecreasing along the path.
		prev := -1.0
		for _, h := range tr.Hops {
			if h.RTTMs < prev-0.001 {
				t.Fatalf("probe %d: hop RTTs decrease: %+v", p.ID, tr.Hops)
			}
			prev = h.RTTMs
		}
		// The p-hop's true city must be the catchment site's city.
		if ph.City != tr.Fwd.SiteCity() {
			t.Fatalf("p-hop city %s != site city %s", ph.City, tr.Fwd.SiteCity())
		}

		tr2, ok := never.Traceroute(p, vip)
		if !ok || !tr2.Reached {
			continue
		}
		ph2, _ := tr2.PHop()
		switch {
		case ph2.IXP != "":
			ixpPHops++
			if ph2.Owner != 0 {
				t.Fatalf("IXP p-hop with AS owner: %+v", ph2)
			}
		case ph2.Owner == f.cdnASN:
			t.Fatalf("probe %d: site-router p-hop despite SiteRouterProb=0", p.ID)
		default:
			upstreamPHops++
		}
	}
	if traced == 0 {
		t.Fatal("no traceroutes completed")
	}
	if upstreamPHops == 0 {
		t.Error("no upstream p-hops observed")
	}
}

func TestResolverMix(t *testing.T) {
	f := newFixture(t)
	var isp, ecs, plain int
	for _, p := range f.platform.Retained() {
		switch {
		case p.Resolver == nil:
			t.Fatalf("probe %d has no resolver", p.ID)
		case netplan.ResolverBase.Contains(p.Resolver.Addr) && p.Resolver.ECS:
			ecs++
		case netplan.ResolverBase.Contains(p.Resolver.Addr):
			plain++
		default:
			isp++
		}
	}
	if isp <= ecs || ecs <= plain || plain == 0 {
		t.Errorf("resolver mix unexpected: isp=%d ecs=%d plain=%d", isp, ecs, plain)
	}
}

func TestTruthRegistration(t *testing.T) {
	f := newFixture(t)
	truth := &geodb.Truth{}
	err := f.addr.RegisterTruth(truth, TruthConfig{TransitAddressedStubs: f.platform.TransitAddressedStubs})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.platform.RegisterTruth(truth); err != nil {
		t.Fatal(err)
	}
	db := geodb.Build("perfect", truth, geodb.ErrorModel{}, 1)
	// Every probe's address geolocates to its true city.
	for _, p := range f.platform.Retained()[:100] {
		loc, ok := db.Lookup(p.Addr)
		if !ok {
			t.Fatalf("probe %d address %v not in truth", p.ID, p.Addr)
		}
		if loc.City != p.City || loc.Country != p.Country {
			t.Errorf("probe %d geolocates to %+v, want %s/%s", p.ID, loc, p.Country, p.City)
		}
	}
	// Router addresses geolocate to their city.
	a, err := f.addr.RouterAddr(f.cdnASN, "FRA", 1)
	if err != nil {
		t.Fatal(err)
	}
	loc, ok := db.Lookup(a)
	if !ok || loc.City != "FRA" {
		t.Errorf("CDN FRA router geolocates to %+v, %v", loc, ok)
	}
}

func TestVIPOf(t *testing.T) {
	if got := VIPOf(netip.MustParsePrefix("198.18.5.0/24")); got.String() != "198.18.5.1" {
		t.Errorf("VIPOf = %v", got)
	}
}
