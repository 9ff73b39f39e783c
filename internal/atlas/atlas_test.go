package atlas

import (
	"maps"
	"net/netip"
	"slices"
	"strconv"
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

// smallPlatform builds the probe population of the small world
// (worldgen.SmallConfig) at a seed: its topology and population settings.
// The content networks the small world adds host no probes.
func smallPlatform(t *testing.T, seed int64) *Platform {
	t.Helper()
	tp, err := topo.Generate(topo.GenConfig{Seed: seed, NumTier1: 8, NumTier2: 90, NumStub: 1200, NumIXP: 20})
	if err != nil {
		t.Fatal(err)
	}
	tp.Freeze()
	ad, err := NewAddressing(tp, seed)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlatform(tp, ad, PopulationConfig{Seed: seed, Scale: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// malformedKeys returns non-canonical spellings of a group key: none names
// a group.
func malformedKeys(city string, asn topo.ASN) []string {
	num := strconv.FormatUint(uint64(asn), 10)
	return []string{
		city + "|0" + num,
		city + "|+" + num,
		"|" + num,
		city + "|",
		city,
		city + "|" + num + "|x",
		city + "|" + strconv.FormatUint(uint64(asn)+1<<32, 10),
	}
}

// TestGroupTable checks the platform's group table against an oracle that
// buckets the retained probes in a map by GroupKey, sorts the keys, keeps
// probes in retained order and takes the lowest-ID probe as representative.
func TestGroupTable(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		pl := smallPlatform(t, seed)
		retained := pl.Retained()
		byKey := map[string][]*Probe{}
		for _, p := range retained {
			if !p.Stable || !p.ReliableGeo {
				t.Fatalf("seed %d: filtered probe %d is retained", seed, p.ID)
			}
			byKey[p.GroupKey()] = append(byKey[p.GroupKey()], p)
		}
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		tab := pl.Groups()
		if len(tab.Groups) != len(keys) || len(keys) == len(retained) {
			t.Fatalf("seed %d: %d groups, oracle %d over %d probes", seed, len(tab.Groups), len(keys), len(retained))
		}
		for r, k := range keys {
			g, want := tab.Groups[r], byKey[k]
			rep := want[0]
			for _, p := range want {
				if p.ID < rep.ID {
					rep = p
				}
			}
			if g.Key != k || g.City != rep.City || g.ASN != rep.ASN || g.Country != rep.Country || g.Rep != rep || !slices.Equal(g.Probes, want) {
				t.Fatalf("seed %d: group %d = %s (%d probes, rep %d), oracle %s (%d probes, rep %d)",
					seed, r, g.Key, len(g.Probes), g.Rep.ID, k, len(want), rep.ID)
			}
			if got, ok := tab.Lookup(k); !ok || got != r {
				t.Fatalf("seed %d: Lookup(%q) = %d, %t, want %d", seed, k, got, ok, r)
			}
			if city, asn, ok := ParseGroupKey(k); !ok || city != g.City || asn != g.ASN {
				t.Fatalf("seed %d: ParseGroupKey(%q) = %s, %d, %t", seed, k, city, asn, ok)
			}
			if got := Representative(retained, k); got != rep {
				t.Fatalf("seed %d: Representative(%q) is not probe %d", seed, k, rep.ID)
			}
		}
		for i, p := range retained {
			if k := tab.Groups[tab.Rank(i)].Key; k != p.GroupKey() {
				t.Fatalf("seed %d: probe %d ranked in group %s, not %s", seed, p.ID, k, p.GroupKey())
			}
		}
		g := tab.Groups[0]
		for _, bad := range malformedKeys(g.City, g.ASN) {
			if _, ok := tab.Lookup(bad); ok {
				t.Errorf("seed %d: Lookup(%q) found a group", seed, bad)
			}
			if _, _, ok := ParseGroupKey(bad); ok {
				t.Errorf("seed %d: ParseGroupKey(%q) parsed", seed, bad)
			}
			if Representative(retained, bad) != nil {
				t.Errorf("seed %d: Representative(%q) found a probe", seed, bad)
			}
		}

		// Grouping another order keeps key order and the lowest-ID
		// representative, and lists probes in that input order.
		rev := slices.Clone(retained)
		slices.Reverse(rev)
		rt := GroupProbes(rev)
		for r := range rt.Groups {
			got, want := rt.Groups[r], tab.Groups[r]
			wantProbes := slices.Clone(want.Probes)
			slices.Reverse(wantProbes)
			if got.Key != want.Key || got.Rep != want.Rep || !slices.Equal(got.Probes, wantProbes) {
				t.Fatalf("seed %d: reversed input regroups %s differently", seed, want.Key)
			}
		}

		// The platform is immutable, so both are built once.
		if n := testing.AllocsPerRun(10, func() { _, _ = pl.Retained(), pl.Groups() }); n != 0 {
			t.Errorf("seed %d: Retained and Groups allocate %v times per call", seed, n)
		}
		if again := pl.Retained(); &again[0] != &retained[0] || pl.Groups() != tab {
			t.Errorf("seed %d: Retained or Groups rebuilt on a second call", seed)
		}
	}
}

// TestGroupTableMedians: Medians walks groups in key order ("AMS|10" sorts
// before "AMS|9") and each group's probes in input order, skips a group
// with no value, and reports each median with its group's rank.
func TestGroupTableMedians(t *testing.T) {
	at := func(id int, city string, asn topo.ASN) *Probe { return &Probe{ID: id, City: city, ASN: asn} }
	probes := []*Probe{at(0, "FRA", 20), at(1, "AMS", 10), at(2, "FRA", 20), at(3, "AMS", 9), at(4, "AMS", 10), at(5, "FRA", 20)}
	vals := map[int]float64{0: 7, 1: 4, 2: 1, 4: 2, 5: 3}
	tab := GroupProbes(probes)
	var calls []int
	ranks, medians := tab.Medians(func(p *Probe) (float64, bool) {
		calls = append(calls, p.ID)
		v, ok := vals[p.ID]
		return v, ok
	})
	if want := []int{1, 4, 3, 0, 2, 5}; !slices.Equal(calls, want) {
		t.Errorf("probes visited in order %v, want %v", calls, want)
	}
	if want := []int{0, 2}; !slices.Equal(ranks, want) {
		t.Errorf("ranks = %v, want %v", ranks, want)
	}
	if want := []float64{3, 3}; !slices.Equal(medians, want) {
		t.Errorf("medians = %v, want %v", medians, want)
	}
	if tab.Groups[ranks[0]].Key != "AMS|10" || tab.Groups[ranks[1]].Key != "FRA|20" {
		t.Errorf("ranks name groups %s and %s", tab.Groups[ranks[0]].Key, tab.Groups[ranks[1]].Key)
	}
	if ranks, medians := tab.Medians(func(*Probe) (float64, bool) { return 0, false }); ranks != nil || medians != nil {
		t.Errorf("no values gave %v, %v", ranks, medians)
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
		site, _ := geo.CityIDOf(fwd.SiteCity())
		probeCity, _ := geo.CityIDOf(p.City)
		minRTT := geo.FiberRTTMs(geo.KmBetween(probeCity, site))
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
