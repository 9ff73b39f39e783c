package topo

import (
	"testing"
	"testing/quick"

	"anysim/internal/geo"
)

// TestGenerateAlwaysValid property-checks the generator across seeds: any
// seed must yield a validating, transit-connected topology with sane link
// structure.
func TestGenerateAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		tp, err := Generate(GenConfig{Seed: seed, NumTier1: 3, NumTier2: 12, NumStub: 60, NumIXP: 5})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		tp.Freeze()
		if err := tp.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Link invariants: endpoints exist, cities are dual-presence.
		for _, l := range tp.Links() {
			a, okA := tp.AS(l.A)
			b, okB := tp.AS(l.B)
			if !okA || !okB || len(l.Cities) == 0 {
				return false
			}
			for _, c := range l.Cities {
				if !a.PresentIn(c) || !b.PresentIn(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestCompactFootprints: generated tier-2 footprints must be geographically
// compact — every city within a bounded radius of the footprint's medoid.
func TestCompactFootprints(t *testing.T) {
	tp, err := Generate(GenConfig{Seed: 13, NumTier1: 4, NumTier2: 40, NumStub: 100, NumIXP: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range tp.ASNs() {
		a := tp.MustAS(asn)
		if a.Tier != Tier2 || len(a.Cities) < 4 {
			continue
		}
		// The widest allowed spread: an international carrier spans two
		// areas, so allow a generous bound; but a compact regional carrier
		// (single area) must stay continental.
		areas := map[geo.Area]bool{}
		for _, c := range a.Cities {
			areas[geo.MustCity(c).Area()] = true
		}
		if len(areas) > 1 {
			continue // international extension: exempt
		}
		var maxKm float64
		anchor, _ := geo.CityIDOf(a.Cities[0])
		for _, c := range a.Cities {
			id, _ := geo.CityIDOf(c)
			maxKm = max(maxKm, geo.KmBetween(anchor, id))
		}
		if maxKm > 12000 {
			t.Errorf("%s footprint spread %f km exceeds continental scale: %v", asn, maxKm, a.Cities)
		}
	}
}

// TestTier2Tier2TransitExists: the Figure-1 magnet channel requires some
// carrier-to-carrier customer relationships.
func TestTier2Tier2TransitExists(t *testing.T) {
	tp, err := Generate(GenConfig{Seed: 13, NumTier1: 4, NumTier2: 60, NumStub: 100, NumIXP: 6})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, l := range tp.Links() {
		if l.Type != CustomerToProvider {
			continue
		}
		if tp.MustAS(l.A).Tier == Tier2 && tp.MustAS(l.B).Tier == Tier2 {
			n++
		}
	}
	if n == 0 {
		t.Error("no tier2-to-tier2 transit links generated")
	}
}

// TestTier1NoOpenPeering: tier-1s never appear on IXP peering links.
func TestTier1NoOpenPeering(t *testing.T) {
	tp, err := Generate(GenConfig{Seed: 21, NumTier1: 5, NumTier2: 30, NumStub: 120, NumIXP: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range tp.Links() {
		if l.IXP == "" {
			continue
		}
		if tp.MustAS(l.A).Tier == Tier1 || tp.MustAS(l.B).Tier == Tier1 {
			t.Fatalf("tier-1 on IXP peering link %v-%v at %s", l.A, l.B, l.IXP)
		}
	}
}
