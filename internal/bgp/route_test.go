package bgp

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"anysim/internal/geo"
	"anysim/internal/topo"
)

// TestRouteSize pins the route value at 40 bytes and a rib at 48: rib
// slices, offer lists and capClass results copy Routes by value, and every
// recomputed AS allocates a rib, so every word counts.
func TestRouteSize(t *testing.T) {
	if got := unsafe.Sizeof(Route{}); got > 40 {
		t.Fatalf("sizeof(Route) = %d bytes, want <= 40", got)
	}
	if got := unsafe.Sizeof(rib{}); got > 48 {
		t.Fatalf("sizeof(rib) = %d bytes, want <= 48", got)
	}
}

// TestPathCmpMatchesSlices checks the chain walk against the slice order it
// replaces — AS path first, then cities — including chains that share
// tails, where the walk stops early.
func TestPathCmpMatchesSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cities := []string{"AMS", "FRA", "LON", "NYC"}
	var s nodeSlab
	type built struct {
		r      Route
		path   []topo.ASN
		cities []string
	}
	// A pool of chains: half fresh, half one hop pushed onto an earlier
	// chain, so tails are shared at assorted depths.
	var pool []built
	for len(pool) < 200 {
		var b built
		if len(pool) > 0 && rng.Intn(2) == 0 {
			b = pool[rng.Intn(len(pool))]
		} else {
			b.r = Route{}
		}
		asn, c := topo.ASN(1+rng.Intn(3)), cities[rng.Intn(len(cities))]
		b.r = b.r.prepend(&s, asn, cityOf(c))
		b.path = append([]topo.ASN{asn}, b.path...)
		b.cities = append([]string{c}, b.cities...)
		pool = append(pool, b)
	}
	sign := func(x int) int { return min(max(x, -1), 1) }
	for _, a := range pool {
		if !slices.Equal(a.r.Path(), a.path) || !slices.Equal(a.r.Cities(), a.cities) || a.r.Len() != len(a.path) {
			t.Fatalf("chain %v/%v renders as %v/%v", a.path, a.cities, a.r.Path(), a.r.Cities())
		}
		for _, b := range pool {
			want := slices.Compare(a.path, b.path)
			if want == 0 {
				want = slices.Compare(a.cities, b.cities)
			}
			if got := pathCmp(a.r.path, b.r.path); sign(got) != sign(want) {
				t.Fatalf("pathCmp(%v/%v, %v/%v) = %d, want %d", a.path, a.cities, b.path, b.cities, got, want)
			}
			if got := pathEqual(a.r.path, b.r.path); got != (want == 0) {
				t.Fatalf("pathEqual(%v/%v, %v/%v) = %v", a.path, a.cities, b.path, b.cities, got)
			}
		}
	}
}

// TestCityIDsOrderAsNames checks the invariant routeCmp's handoff key rests
// on: the city ids cityOf hands out compare as their IATA codes do.
func TestCityIDsOrderAsNames(t *testing.T) {
	all := geo.Cities()
	for i := 1; i < len(all); i++ {
		prev, cur := all[i-1].IATA, all[i].IATA
		if cmp.Compare(cityOf(prev), cityOf(cur)) != strings.Compare(prev, cur) {
			t.Fatalf("ids of %q and %q do not compare as the codes do", prev, cur)
		}
		if cityOf(cur) != geo.CityID(i) {
			t.Fatalf("cityOf(%q) = %d, want %d", cur, cityOf(cur), i)
		}
	}
}

// TestLookupMaterialisesChain: Lookup's Forward is the chain rendered with
// the client AS in front, and a Table's Route read answers Lookup's route,
// class, site and distance from every AS and presence city, allocating
// nothing. It holds on the base engine and on forks after a site withdrawal
// and after a link fault, whose tables hold a mix of recomputed and
// carried-over ribs.
func TestLookupMaterialisesChain(t *testing.T) {
	tp, e, _ := generatedCDNWorld(t, 3)
	withdrawn := e.Fork()
	if err := withdrawn.WithdrawSite(pfxGlobal, "fra"); err != nil {
		t.Fatal(err)
	}
	// The fault is on a link of the CDN's transit, so the fork recomputes
	// a share of the world.
	li := tp.LinksOf(topo.CDNBase)[0]
	faulted := e.Fork()
	if err := tp.SetLinkEnabled(li, false); err != nil {
		t.Fatal(err)
	}
	defer tp.SetLinkEnabled(li, true)
	if err := faulted.ReconvergeLinks([]int{li}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Engine{withdrawn, faulted} {
		if len(f.RibsChangedFrom(e, pfxGlobal)) == 0 {
			t.Fatal("a fork's operation changed no rib")
		}
	}
	for _, eng := range []*Engine{e, withdrawn, faulted} {
		tab := eng.Table(pfxGlobal)
		for ai, asn := range tp.ASList() {
			cls, set, ok := eng.Routes(pfxGlobal, asn)
			for _, city := range tp.MustAS(asn).Cities {
				fwd, okF := eng.Lookup(pfxGlobal, asn, city)
				tr, tcls, distKm, okT := tab.Route(ai, cityOf(city))
				if okF != ok || okT != ok {
					t.Fatalf("%s@%s: Lookup ok %v, Table.Route ok %v, routes %v", asn, city, okF, okT, ok)
				}
				if !ok {
					continue
				}
				if tr.Site() != fwd.Site || tr.SiteSymbol() != Intern(fwd.Site) || distKm != fwd.DistKm || tcls != fwd.Rel {
					t.Fatalf("%s@%s: Table.Route = %s %.3f %s, Lookup = %s %.3f %s", asn, city, tr.Site(), distKm, tcls, fwd.Site, fwd.DistKm, fwd.Rel)
				}
				r, _ := hotPotato(set, cityOf(city))
				if tr != r {
					t.Fatalf("%s@%s: Table.Route %v, hot-potato route %v", asn, city, tr, r)
				}
				want := r.Path()
				if cls != FromOrigin {
					want = append([]topo.ASN{asn}, want...)
				}
				if !slices.Equal(fwd.Path, want) || !slices.Equal(fwd.Cities, r.Cities()) || fwd.Site != r.Site() {
					t.Fatalf("%s@%s: Forward %v %v %s, route %v %v %s", asn, city, fwd.Path, fwd.Cities, fwd.Site, want, r.Cities(), r.Site())
				}
			}
		}
	}
	tab, ai, c := e.Table(pfxGlobal), tp.ASIndexMap()[topo.CDNBase], cityOf(tp.MustAS(topo.CDNBase).Cities[0])
	if n := testing.AllocsPerRun(100, func() { tab.Route(ai, c) }); n != 0 {
		t.Fatalf("Table.Route allocates %v times per call", n)
	}
}
