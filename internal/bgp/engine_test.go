package bgp

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"anysim/internal/geo"
	"anysim/internal/topo"
)

var (
	pfxGlobal = netip.MustParsePrefix("198.18.0.0/24")
	pfxUS     = netip.MustParsePrefix("198.18.1.0/24")
	pfxEU     = netip.MustParsePrefix("198.18.2.0/24")
	pfxAsia   = netip.MustParsePrefix("198.18.3.0/24")
)

// figure1World reproduces the paper's Figure 1: a probe in Washington D.C.
// whose provider (Zayo) has SingTel as a customer and Level 3 as a peer.
// Imperva's Singapore site buys transit from SingTel, its Ashburn site from
// Level 3. Under common BGP policies Zayo prefers the customer route, so
// global anycast sends the probe to Singapore.
func figure1World(t testing.TB) (*topo.Topology, *Engine) {
	t.Helper()
	tp := topo.New()
	add := func(a *topo.AS) {
		t.Helper()
		if err := tp.AddAS(a); err != nil {
			t.Fatal(err)
		}
	}
	link := func(l topo.Link) {
		t.Helper()
		if err := tp.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	const (
		level3  topo.ASN = 3356
		zayo    topo.ASN = 6461
		singtel topo.ASN = 7473
		probeAS topo.ASN = 10745
		imperva topo.ASN = 19551
	)
	add(&topo.AS{ASN: level3, Name: "Level3", Tier: topo.Tier1, Home: "US", Cities: []string{"IAD", "WAS", "NYC", "LON", "SIN"}})
	add(&topo.AS{ASN: zayo, Name: "Zayo", Tier: topo.Tier2, Home: "US", Cities: []string{"WAS", "IAD", "NYC", "SIN"}})
	add(&topo.AS{ASN: singtel, Name: "SingTel", Tier: topo.Tier2, Home: "SG", Cities: []string{"SIN", "HKG"}})
	add(&topo.AS{ASN: probeAS, Name: "ProbeNet", Tier: topo.TierStub, Home: "US", Cities: []string{"WAS"}})
	add(&topo.AS{ASN: imperva, Name: "Imperva", Tier: topo.TierCDN, Home: "US", Cities: []string{"IAD", "SIN"}})

	link(topo.Link{A: probeAS, B: zayo, Type: topo.CustomerToProvider, Cities: []string{"WAS"}})
	link(topo.Link{A: singtel, B: zayo, Type: topo.CustomerToProvider, Cities: []string{"SIN"}})
	link(topo.Link{A: zayo, B: level3, Type: topo.PublicPeer, Cities: []string{"IAD", "NYC"}})
	link(topo.Link{A: imperva, B: level3, Type: topo.CustomerToProvider, Cities: []string{"IAD"}})
	link(topo.Link{A: imperva, B: singtel, Type: topo.CustomerToProvider, Cities: []string{"SIN"}})
	tp.Freeze()
	return tp, NewEngine(tp)
}

func TestFigure1GlobalAnycastPathology(t *testing.T) {
	_, e := figure1World(t)
	const imperva, probeAS topo.ASN = 19551, 10745

	// Global anycast: both sites announce the same prefix.
	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: imperva, Site: "ash", City: "IAD"},
		{Origin: imperva, Site: "sin", City: "SIN"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, ok := e.Lookup(pfxGlobal, probeAS, "WAS")
	if !ok {
		t.Fatal("no route for probe AS")
	}
	if fwd.Site != "sin" {
		t.Errorf("global anycast catchment = %s, want sin (customer-route preference)", fwd.Site)
	}
	if fwd.DistKm < 10000 {
		t.Errorf("global path distance = %.0f km, expected transpacific", fwd.DistKm)
	}

	// Regional anycast: the probe is handed the US regional prefix, which
	// only the Ashburn site announces.
	if err := e.Announce(pfxUS, []SiteAnnouncement{{Origin: imperva, Site: "ash", City: "IAD"}}); err != nil {
		t.Fatal(err)
	}
	fwd, ok = e.Lookup(pfxUS, probeAS, "WAS")
	if !ok {
		t.Fatal("no route to regional prefix")
	}
	if fwd.Site != "ash" {
		t.Errorf("regional catchment = %s, want ash", fwd.Site)
	}
	if fwd.DistKm > 200 {
		t.Errorf("regional path distance = %.0f km, want < 200", fwd.DistKm)
	}
}

// figure7World reproduces the paper's Figure 7: a Belarusian AS 6697 with a
// public peering to Zayo and a route-server peering to Imperva at DE-CIX.
// Because public peering is preferred to route-server peering, global
// anycast routes the probe through Zayo (whose customer chain ends in
// Singapore), while regional anycast reaches Frankfurt directly.
func figure7World(t *testing.T) (*topo.Topology, *Engine) {
	t.Helper()
	tp := topo.New()
	add := func(a *topo.AS) {
		t.Helper()
		if err := tp.AddAS(a); err != nil {
			t.Fatal(err)
		}
	}
	link := func(l topo.Link) {
		t.Helper()
		if err := tp.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	const (
		zayo    topo.ASN = 6461
		singtel topo.ASN = 7473
		belnet  topo.ASN = 6697
		imperva topo.ASN = 19551
	)
	add(&topo.AS{ASN: zayo, Name: "Zayo", Tier: topo.Tier2, Home: "US", Cities: []string{"FRA", "SIN", "NYC"}})
	add(&topo.AS{ASN: singtel, Name: "SingTel", Tier: topo.Tier2, Home: "SG", Cities: []string{"SIN"}})
	add(&topo.AS{ASN: belnet, Name: "Belnet", Tier: topo.TierStub, Home: "BY", Cities: []string{"MSQ", "FRA"}})
	add(&topo.AS{ASN: imperva, Name: "Imperva", Tier: topo.TierCDN, Home: "US", Cities: []string{"FRA", "AMS", "SIN"}})

	link(topo.Link{A: belnet, B: zayo, Type: topo.PublicPeer, Cities: []string{"FRA"}, IXP: "IX-FRA"})
	link(topo.Link{A: belnet, B: imperva, Type: topo.RouteServerPeer, Cities: []string{"FRA"}, IXP: "IX-FRA"})
	link(topo.Link{A: singtel, B: zayo, Type: topo.CustomerToProvider, Cities: []string{"SIN"}})
	link(topo.Link{A: imperva, B: singtel, Type: topo.CustomerToProvider, Cities: []string{"SIN"}})
	if err := tp.AddIXP(&topo.IXP{ID: "IX-FRA", City: "FRA", Members: []topo.ASN{zayo, belnet, imperva}}); err != nil {
		t.Fatal(err)
	}
	tp.Freeze()
	return tp, NewEngine(tp)
}

func TestFigure7PeeringTypePreference(t *testing.T) {
	_, e := figure7World(t)
	const imperva, belnet topo.ASN = 19551, 6697

	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: imperva, Site: "fra", City: "FRA"},
		{Origin: imperva, Site: "ams", City: "AMS"},
		{Origin: imperva, Site: "sin", City: "SIN"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, ok := e.Lookup(pfxGlobal, belnet, "MSQ")
	if !ok {
		t.Fatal("no route for Belnet")
	}
	if fwd.Site != "sin" {
		t.Errorf("global catchment = %s, want sin (public peer preferred over route server)", fwd.Site)
	}
	if fwd.Rel != FromPublicPeer {
		t.Errorf("global route learned via %s, want public-peer", fwd.Rel)
	}

	// Regional: the EU prefix is announced from FRA and AMS only. Belnet's
	// only path is the route-server peering, reaching Frankfurt.
	err = e.Announce(pfxEU, []SiteAnnouncement{
		{Origin: imperva, Site: "fra", City: "FRA"},
		{Origin: imperva, Site: "ams", City: "AMS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, ok = e.Lookup(pfxEU, belnet, "MSQ")
	if !ok {
		t.Fatal("no route to EU prefix")
	}
	if fwd.Site != "fra" {
		t.Errorf("regional catchment = %s, want fra", fwd.Site)
	}
	if fwd.Rel != FromRSPeer {
		t.Errorf("regional route learned via %s, want rs-peer", fwd.Rel)
	}
	if fwd.FinalIXP != "IX-FRA" {
		t.Errorf("FinalIXP = %q, want IX-FRA", fwd.FinalIXP)
	}
}

// TestHotPotato checks that a transit provider spanning two coasts delivers
// clients to the site nearest their ingress, not to a single global site.
func TestHotPotato(t *testing.T) {
	tp := topo.New()
	add := func(a *topo.AS) {
		t.Helper()
		if err := tp.AddAS(a); err != nil {
			t.Fatal(err)
		}
	}
	const (
		t1   topo.ASN = 100
		east topo.ASN = 200
		west topo.ASN = 201
		cdn  topo.ASN = 900
	)
	add(&topo.AS{ASN: t1, Name: "T1", Tier: topo.Tier1, Home: "US", Cities: []string{"NYC", "IAD", "LAX", "SEA"}})
	add(&topo.AS{ASN: east, Name: "EastStub", Tier: topo.TierStub, Home: "US", Cities: []string{"NYC"}})
	add(&topo.AS{ASN: west, Name: "WestStub", Tier: topo.TierStub, Home: "US", Cities: []string{"SEA"}})
	add(&topo.AS{ASN: cdn, Name: "CDN", Tier: topo.TierCDN, Home: "US", Cities: []string{"IAD", "LAX"}})
	link := func(l topo.Link) {
		t.Helper()
		if err := tp.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	link(topo.Link{A: east, B: t1, Type: topo.CustomerToProvider, Cities: []string{"NYC"}})
	link(topo.Link{A: west, B: t1, Type: topo.CustomerToProvider, Cities: []string{"SEA"}})
	link(topo.Link{A: cdn, B: t1, Type: topo.CustomerToProvider, Cities: []string{"IAD", "LAX"}})
	tp.Freeze()

	e := NewEngine(tp)
	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: cdn, Site: "ash", City: "IAD"},
		{Origin: cdn, Site: "lax", City: "LAX"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fe, ok := e.Lookup(pfxGlobal, east, "NYC")
	if !ok || fe.Site != "ash" {
		t.Errorf("east client catchment = %v (ok=%v), want ash", fe.Site, ok)
	}
	fw, ok := e.Lookup(pfxGlobal, west, "SEA")
	if !ok || fw.Site != "lax" {
		t.Errorf("west client catchment = %v (ok=%v), want lax", fw.Site, ok)
	}
}

func TestAnnounceValidation(t *testing.T) {
	_, e := figure1World(t)
	const imperva topo.ASN = 19551
	if err := e.Announce(pfxGlobal, nil); err == nil {
		t.Error("accepted empty announcement set")
	}
	if err := e.Announce(pfxGlobal, []SiteAnnouncement{{Origin: 424242, Site: "x", City: "IAD"}}); err == nil {
		t.Error("accepted unknown origin")
	}
	if err := e.Announce(pfxGlobal, []SiteAnnouncement{{Origin: imperva, Site: "x", City: "NYC"}}); err == nil {
		t.Error("accepted site city outside origin footprint")
	}
	if err := e.Announce(pfxGlobal, []SiteAnnouncement{{Origin: imperva, Site: "", City: "IAD"}}); err == nil {
		t.Error("accepted empty site ID")
	}
	if err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: imperva, Site: "dup", City: "IAD"},
		{Origin: imperva, Site: "dup", City: "SIN"},
	}); err == nil {
		t.Error("accepted duplicate site IDs")
	}
}

func TestWithdraw(t *testing.T) {
	_, e := figure1World(t)
	const imperva, probeAS topo.ASN = 19551, 10745
	if err := e.Announce(pfxGlobal, []SiteAnnouncement{{Origin: imperva, Site: "ash", City: "IAD"}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Lookup(pfxGlobal, probeAS, "WAS"); !ok {
		t.Fatal("lookup before withdraw failed")
	}
	e.Withdraw(pfxGlobal)
	if _, ok := e.Lookup(pfxGlobal, probeAS, "WAS"); ok {
		t.Error("lookup succeeded after withdraw")
	}
	if len(e.Prefixes()) != 0 {
		t.Error("Prefixes not empty after withdraw")
	}
}

// TestPrefixOfMatchesPrefixesScan holds PrefixOf to the first containing
// prefix in Prefixes order, over nested announcements where text order
// picks the outer prefix in one pair and the inner one in the other, and
// pins it allocation-free.
func TestPrefixOfMatchesPrefixesScan(t *testing.T) {
	_, e := figure1World(t)
	const imperva topo.ASN = 19551
	for _, p := range []string{"198.18.0.0/23", "198.18.1.0/24", "198.18.8.0/21", "198.18.10.0/23", "198.18.2.0/24"} {
		if err := e.Announce(netip.MustParsePrefix(p), []SiteAnnouncement{{Origin: imperva, Site: "ash", City: "IAD"}}); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(a netip.Addr) (netip.Prefix, bool) {
		for _, p := range e.Prefixes() {
			if p.Contains(a) {
				return p, true
			}
		}
		return netip.Prefix{}, false
	}
	for _, s := range []string{"198.18.0.1", "198.18.1.7", "198.18.2.1", "198.18.3.255", "198.18.9.1", "198.18.10.1", "198.18.11.1", "198.18.200.1", "10.0.0.1"} {
		a := netip.MustParseAddr(s)
		gotP, gotOK := e.PrefixOf(a)
		wantP, wantOK := scan(a)
		if gotP != wantP || gotOK != wantOK {
			t.Errorf("PrefixOf(%s) = %v %v, Prefixes scan %v %v", s, gotP, gotOK, wantP, wantOK)
		}
	}
	a := netip.MustParseAddr("198.18.1.7")
	if n := testing.AllocsPerRun(100, func() { e.PrefixOf(a) }); n != 0 {
		t.Errorf("PrefixOf allocates %.0f times, want 0", n)
	}
}

func TestReAnnounceReplaces(t *testing.T) {
	_, e := figure1World(t)
	const imperva, probeAS topo.ASN = 19551, 10745
	if err := e.Announce(pfxGlobal, []SiteAnnouncement{{Origin: imperva, Site: "sin", City: "SIN"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Announce(pfxGlobal, []SiteAnnouncement{{Origin: imperva, Site: "ash", City: "IAD"}}); err != nil {
		t.Fatal(err)
	}
	fwd, ok := e.Lookup(pfxGlobal, probeAS, "WAS")
	if !ok || fwd.Site != "ash" {
		t.Errorf("after re-announce, catchment = %v, want ash", fwd.Site)
	}
}

func TestOriginInternalLookup(t *testing.T) {
	_, e := figure1World(t)
	const imperva topo.ASN = 19551
	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: imperva, Site: "ash", City: "IAD"},
		{Origin: imperva, Site: "sin", City: "SIN"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, ok := e.Lookup(pfxGlobal, imperva, "SIN")
	if !ok || fwd.Site != "sin" {
		t.Errorf("origin-internal lookup = %v (ok=%v), want sin", fwd.Site, ok)
	}
	if fwd.Rel != FromOrigin {
		t.Errorf("origin-internal Rel = %v", fwd.Rel)
	}
}

func TestOnlyNeighborsRestrictsAnnouncement(t *testing.T) {
	_, e := figure1World(t)
	const imperva, probeAS topo.ASN = 19551, 10745
	// The Singapore site announces only to SingTel (7473); the Ashburn
	// site announces to nobody at all -> the probe must reach Singapore
	// via Zayo's customer chain, and a restriction that excludes SingTel
	// kills reachability entirely.
	err := e.Announce(pfxAsia, []SiteAnnouncement{
		{Origin: imperva, Site: "sin", City: "SIN", OnlyNeighbors: []topo.ASN{7473}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, ok := e.Lookup(pfxAsia, probeAS, "WAS")
	if !ok || fwd.Site != "sin" {
		t.Fatalf("restricted announcement unreachable: %v %v", fwd, ok)
	}

	err = e.Announce(pfxAsia, []SiteAnnouncement{
		{Origin: imperva, Site: "sin", City: "SIN", OnlyNeighbors: []topo.ASN{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Lookup(pfxAsia, probeAS, "WAS"); ok {
		t.Error("announcement with empty allowlist should be unreachable")
	}
}

// testRoute builds a route whose chain holds path and cities.
func testRoute(path []topo.ASN, cities []string, down float64, site string) Route {
	r := Route{DownKm: down, site: symbols.intern(site)}
	var s nodeSlab
	for i := len(path) - 1; i >= 0; i-- {
		r = r.prepend(&s, path[i], cityOf(cities[i]))
	}
	return r
}

func TestCapClass(t *testing.T) {
	mkNbr := func(ln int, handoff string, down float64, site string, nbr topo.ASN) Route {
		path := make([]topo.ASN, ln)
		path[0] = nbr
		cities := make([]string, ln)
		for i := range cities {
			cities[i] = handoff
		}
		return testRoute(path, cities, down, site)
	}
	mk := func(ln int, handoff string, down float64, site string) Route {
		return mkNbr(ln, handoff, down, site, 0)
	}
	// Longer paths are dropped.
	out := capClass(nil, []Route{mk(2, "NYC", 10, "a"), mk(3, "LON", 0, "b")}, MaxRoutesPerClass, false, nil)
	if len(out) != 1 || out[0].Site() != "a" {
		t.Errorf("capClass kept wrong routes: %v", out)
	}
	// Duplicate handoffs keep the cheapest downstream.
	out = capClass(nil, []Route{mk(2, "NYC", 10, "a"), mk(2, "NYC", 5, "b")}, MaxRoutesPerClass, false, nil)
	if len(out) != 1 || out[0].Site() != "b" {
		t.Errorf("capClass dedup failed: %v", out)
	}
	// The cap counts neighbours, not session cities: one neighbour with
	// many interconnection cities keeps them all (hot-potato diversity).
	var many []Route
	cities := []string{"NYC", "LON", "FRA", "SIN", "SYD", "SAO", "JNB", "BOM", "TYO", "SEA", "LAX", "MIA", "WAS", "CHI", "DEN"}
	for i, c := range cities {
		many = append(many, mkNbr(2, c, float64(i), "s", 7))
	}
	out = capClass(nil, many, 1, true, nil)
	if len(out) != len(cities) {
		t.Errorf("capClass kept %d routes, want all %d sessions of the single neighbour", len(out), len(cities))
	}
	// Distinct neighbours are capped.
	var multi []Route
	for i, c := range cities[:6] {
		multi = append(multi, mkNbr(2, c, float64(i), "s", topo.ASN(10+i)))
	}
	out = capClass(nil, multi, 2, false, nil)
	if len(out) != 2 {
		t.Errorf("capClass kept %d routes, want 2 neighbours' single sessions", len(out))
	}
	if capClass(nil, nil, 1, true, nil) != nil {
		t.Error("capClass(nil) should be nil")
	}
	// Arbitrary mode still avoids continental-scale detours: 9,000 km of
	// extra downstream carriage lands in a higher bucket and loses.
	out = capClass(nil, []Route{mkNbr(2, "SIN", 9000, "far", 9), mkNbr(2, "NYC", 0, "near", 8)}, 1, true, nil)
	if len(out) != 1 || out[0].Handoff() != "NYC" {
		t.Errorf("arbitrary capClass kept %v, want lower carriage bucket", out)
	}
	// Within a 3,000 km band neighbour choice is geography-blind: 2,500 km
	// of extra carriage does not beat the lower neighbour ASN.
	out = capClass(nil, []Route{mkNbr(2, "WAS", 2500, "x", 20), mkNbr(2, "BOS", 0, "y", 30)}, 1, true, nil)
	if len(out) != 1 || out[0].Path()[0] != 20 {
		t.Errorf("blind-in-band capClass kept %v, want lowest neighbour ASN", out)
	}
}

// TestCapClassKept: capClass's kept report matches the membership scan it
// replaces (an offer is retained when it equals a route of the result) on
// random candidate sets with duplicate offers, routes that tie under
// routeCmp but differ in fields it ignores, and more neighbour sessions
// than MaxRoutesPerClass.
func TestCapClassKept(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cities := []string{"NYC", "LON", "FRA", "SIN", "SYD", "SAO", "JNB", "BOM", "TYO", "SEA", "LAX", "MIA", "WAS", "CHI", "DEN"}
	truncated := false
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(200)
		routes := make([]Route, 0, n)
		for len(routes) < n {
			if len(routes) > 0 && rng.Intn(5) == 0 {
				// A duplicate offer, or one routeCmp cannot tell apart.
				r := routes[rng.Intn(len(routes))]
				if rng.Intn(2) == 0 {
					r.FinalUpstream++
				}
				routes = append(routes, r)
				continue
			}
			ln := 2 + rng.Intn(2)
			path := make([]topo.ASN, ln)
			path[0] = topo.ASN(1 + rng.Intn(10))
			cs := make([]string, ln)
			for i := range cs {
				cs[i] = cities[rng.Intn(len(cities))]
			}
			routes = append(routes, testRoute(path, cs, float64(rng.Intn(4)*1000), string(rune('a'+rng.Intn(3)))))
		}
		kept := make([]bool, len(routes))
		out := capClass(nil, routes, 1+rng.Intn(12), rng.Intn(2) == 0, kept)
		truncated = truncated || len(out) == MaxRoutesPerClass
		for j, r := range routes {
			want := slices.ContainsFunc(out, func(k Route) bool { return routeEqual(r, k) })
			if kept[j] != want {
				t.Fatalf("trial %d: kept[%d] = %v for %v, want %v", trial, j, kept[j], r, want)
			}
		}
	}
	if !truncated {
		t.Fatal("no trial hit MaxRoutesPerClass")
	}
}

// TestGeneratedWorldInvariants announces a global anycast prefix on a
// generated topology and checks reachability, determinism, valley-freeness,
// and geometric sanity of every AS's forwarding decision.
func TestGeneratedWorldInvariants(t *testing.T) {
	tp, err := topo.Generate(topo.GenConfig{Seed: 11, NumTier1: 4, NumTier2: 30, NumStub: 300, NumIXP: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Attach a CDN with three sites on three continents.
	cdn := &topo.AS{ASN: topo.CDNBase, Name: "CDN", Tier: topo.TierCDN, Home: "US", Cities: []string{"IAD", "FRA", "SIN"}}
	if err := tp.AddAS(cdn); err != nil {
		t.Fatal(err)
	}
	transitCities := map[topo.ASN][]string{}
	for _, city := range cdn.Cities {
		attached := false
		for _, asn := range tp.ASNs() {
			a := tp.MustAS(asn)
			if a.Tier == topo.Tier1 && a.PresentIn(city) {
				transitCities[asn] = append(transitCities[asn], city)
				attached = true
				break
			}
		}
		if !attached {
			t.Fatalf("no tier-1 present in %s", city)
		}
	}
	for asn, cities := range transitCities {
		if err := tp.AddLink(topo.Link{A: cdn.ASN, B: asn, Type: topo.CustomerToProvider, Cities: cities}); err != nil {
			t.Fatal(err)
		}
	}
	tp.Freeze()
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(tp)
	anns := []SiteAnnouncement{
		{Origin: cdn.ASN, Site: "iad", City: "IAD"},
		{Origin: cdn.ASN, Site: "fra", City: "FRA"},
		{Origin: cdn.ASN, Site: "sin", City: "SIN"},
	}
	if err := e.Announce(pfxGlobal, anns); err != nil {
		t.Fatal(err)
	}

	e2 := NewEngine(tp)
	if err := e2.Announce(pfxGlobal, anns); err != nil {
		t.Fatal(err)
	}

	var reached, total int
	for _, asn := range tp.ASNs() {
		a := tp.MustAS(asn)
		if a.Tier != topo.TierStub {
			continue
		}
		total++
		city := a.Cities[0]
		fwd, ok := e.Lookup(pfxGlobal, asn, city)
		if !ok {
			continue
		}
		reached++

		// Determinism across engines.
		fwd2, ok2 := e2.Lookup(pfxGlobal, asn, city)
		if !ok2 || fwd2.Site != fwd.Site || fwd2.DistKm != fwd.DistKm {
			t.Fatalf("nondeterministic catchment for %s: %v vs %v", asn, fwd, fwd2)
		}

		// Structural sanity.
		if len(fwd.Path) != len(fwd.Cities)+1 {
			t.Fatalf("%s: path/cities length mismatch: %v / %v", asn, fwd.Path, fwd.Cities)
		}
		if fwd.Path[len(fwd.Path)-1] != cdn.ASN {
			t.Fatalf("%s: path does not end at origin: %v", asn, fwd.Path)
		}
		if !validSite(fwd.Site) {
			t.Fatalf("%s: unknown site %q", asn, fwd.Site)
		}

		// Valley-free property.
		if !valleyFree(tp, fwd.Path) {
			t.Fatalf("%s: path not valley-free: %v", asn, fwd.Path)
		}

		// Distance is at least the straight line from client to site.
		probe, _ := geo.CityIDOf(city)
		site, _ := geo.CityIDOf(fwd.SiteCity())
		if direct := geo.KmBetween(probe, site); fwd.DistKm < direct-1 {
			t.Fatalf("%s: path distance %.0f km below direct %.0f km", asn, fwd.DistKm, direct)
		}
	}
	if total == 0 {
		t.Fatal("no stub ASes in generated world")
	}
	if frac := float64(reached) / float64(total); frac < 0.999 {
		t.Errorf("only %.1f%% of stubs reached the anycast prefix", frac*100)
	}
}

func validSite(s string) bool { return s == "iad" || s == "fra" || s == "sin" }

// valleyFree checks the Gao-Rexford valley-free property over an AS path
// ordered client -> origin: a path may climb customer->provider edges, cross
// at most one peering edge, then descend provider->customer edges.
//
// Our path is in forwarding direction (client first). Route export rules
// mean the *route announcement* travelled origin -> client, so the classic
// up/peer/down shape applies to the reversed path; equivalently, in
// forwarding direction the path must also be up*[peer]down* (traffic climbs
// out of the client's cone, crosses at most one peering, then descends into
// the origin's cone).
func valleyFree(tp *topo.Topology, path []topo.ASN) bool {
	const (
		up = iota
		crossed
		down
	)
	state := up
	for i := 0; i+1 < len(path); i++ {
		l, ok := tp.LinkBetween(path[i], path[i+1])
		if !ok {
			return false
		}
		var step int // 0=up (customer->provider), 1=peer, 2=down
		switch l.Type {
		case topo.CustomerToProvider:
			if l.A == path[i] {
				step = 0
			} else {
				step = 2
			}
		default:
			step = 1
		}
		switch state {
		case up:
			if step == 1 {
				state = crossed
			} else if step == 2 {
				state = down
			}
		case crossed, down:
			if step != 2 {
				return false
			}
			state = down
		}
	}
	return true
}
