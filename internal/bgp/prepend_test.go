package bgp

import (
	"testing"

	"anysim/internal/topo"
)

// TestPrependZeroBitIdentical is the acceptance property: announcing with an
// explicit Prepend of 0 must produce routing state bit-identical to the
// pre-prepend engine (which seeded single-element origin paths
// unconditionally). A second engine over the same topology announces the
// same sites with Prepend set explicitly; every rib must match.
func TestPrependZeroBitIdentical(t *testing.T) {
	for _, seed := range []int64{11, 23} {
		tp, e, anns := generatedCDNWorld(t, seed)
		zero := make([]SiteAnnouncement, len(anns))
		for i, a := range anns {
			a.Prepend = 0
			zero[i] = a
		}
		e2 := NewEngine(tp)
		if err := e2.Announce(pfxGlobal, zero); err != nil {
			t.Fatal(err)
		}
		if asn, ok := ribsEqual(e, snapshotRibs(e, pfxGlobal), snapshotRibs(e2, pfxGlobal)); !ok {
			t.Fatalf("seed %d: rib for %s differs between implicit and explicit prepend=0", seed, asn)
		}
	}
}

// TestPrependIncrementalMatchesFull property-tests the second acceptance
// invariant: every incremental prepend update (escalation, de-escalation,
// removal) must land on exactly the state a from-scratch converge computes,
// and unwinding the prepend must restore the original ribs bit-identically.
func TestPrependIncrementalMatchesFull(t *testing.T) {
	for _, seed := range []int64{11, 23} {
		_, e, anns := generatedCDNWorld(t, seed)
		before := snapshotRibs(e, pfxGlobal)

		sawIncremental := false
		for _, p := range []int{1, 3, MaxPrepend, 2, 0} {
			a := anns[0]
			a.Prepend = p
			if err := e.AnnounceSite(pfxGlobal, a); err != nil {
				t.Fatalf("seed %d: prepend %d: %v", seed, p, err)
			}
			requireFullMatch(t, e, pfxGlobal, "prepend-update")
			sawIncremental = sawIncremental || !e.LastReconvergeStats().Full
		}
		if !sawIncremental {
			t.Errorf("seed %d: every prepend update fell back to full recompute", seed)
		}
		if asn, ok := ribsEqual(e, before, snapshotRibs(e, pfxGlobal)); !ok {
			t.Fatalf("seed %d: rib for %s not restored after prepend unwound to 0", seed, asn)
		}
	}
}

// TestPrependShedsCatchment checks the traffic-engineering semantics:
// escalating prepend on one site must weakly shrink that site's catchment
// (path length deters neighbours comparing lengths within a preference
// class) and never grow it, while by MaxPrepend at least some ASes should
// have moved away on a world of this shape.
func TestPrependShedsCatchment(t *testing.T) {
	_, e, anns := generatedCDNWorld(t, 11)
	count := func(site string) int {
		n := 0
		for _, s := range e.Catchments(pfxGlobal) {
			if s == site {
				n++
			}
		}
		return n
	}
	prev := count("iad")
	if prev == 0 {
		t.Fatal("iad serves no ASes before prepending")
	}
	base := prev
	for p := 1; p <= MaxPrepend; p++ {
		a := anns[0]
		a.Prepend = p
		if err := e.AnnounceSite(pfxGlobal, a); err != nil {
			t.Fatal(err)
		}
		cur := count("iad")
		if cur > prev {
			t.Fatalf("prepend %d grew iad catchment %d -> %d", p, prev, cur)
		}
		prev = cur
	}
	if prev >= base {
		t.Errorf("prepending to %d moved no ASes off iad (%d before, %d after)", MaxPrepend, base, prev)
	}
}

// TestPrependValidation checks announcement validation bounds.
func TestPrependValidation(t *testing.T) {
	tp, _, _ := generatedCDNWorld(t, 11)
	for _, p := range []int{-1, MaxPrepend + 1} {
		e := NewEngine(tp)
		err := e.Announce(pfxGlobal, []SiteAnnouncement{
			{Origin: topo.CDNBase, Site: "iad", City: "IAD", Prepend: p},
		})
		if err == nil {
			t.Errorf("prepend %d accepted; want error", p)
		}
	}
}

// TestPrependSelfRouteUnchanged: prepending shapes what a site exports, not
// how the origin reaches itself — the origin's own path must stay length 1.
func TestPrependSelfRouteUnchanged(t *testing.T) {
	_, e, anns := generatedCDNWorld(t, 11)
	a := anns[0]
	a.Prepend = 3
	if err := e.AnnounceSite(pfxGlobal, a); err != nil {
		t.Fatal(err)
	}
	_, routes, ok := e.Routes(pfxGlobal, topo.CDNBase)
	if !ok {
		t.Fatal("origin has no routes")
	}
	for _, r := range routes {
		if r.Rel == FromOrigin && r.Len() != 1 {
			t.Fatalf("origin self-route has length %d; want 1", r.Len())
		}
	}
}

// TestPrependLongerThanWorld: a path may be longer than the world has
// ASes, because prepends repeat the origin. Announcing every site of the
// five-AS Figure 1 world with the largest prepend converges, and the
// provider one hop above a site holds its route at 1+MaxPrepend hops.
func TestPrependLongerThanWorld(t *testing.T) {
	tp, e := figure1World(t)
	const level3, imperva topo.ASN = 3356, 19551
	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: imperva, Site: "iad", City: "IAD", Prepend: MaxPrepend},
		{Origin: imperva, Site: "sin", City: "SIN", Prepend: MaxPrepend},
	})
	if err != nil {
		t.Fatalf("announce with prepend %d in a %d-AS world: %v", MaxPrepend, tp.NumASes(), err)
	}
	if _, set, ok := e.Routes(pfxGlobal, level3); !ok || set[0].Len() != 1+MaxPrepend {
		t.Fatalf("level3 routes %v, want the %d-hop prepended customer route", set, 1+MaxPrepend)
	}
}
