package bgp

import (
	"errors"
	"net/netip"
	"strings"
	"testing"

	"anysim/internal/obs"
	"anysim/internal/topo"
)

// generatedCDNWorld builds a seeded synthetic topology with a three-site CDN
// attached to tier-1 transits, mirroring TestGeneratedWorldInvariants.
func generatedCDNWorld(t *testing.T, seed int64) (*topo.Topology, *Engine, []SiteAnnouncement) {
	t.Helper()
	tp, err := topo.Generate(topo.GenConfig{Seed: seed, NumTier1: 4, NumTier2: 30, NumStub: 300, NumIXP: 10})
	if err != nil {
		t.Fatal(err)
	}
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
	e := NewEngine(tp)
	anns := []SiteAnnouncement{
		{Origin: cdn.ASN, Site: "iad", City: "IAD"},
		{Origin: cdn.ASN, Site: "fra", City: "FRA"},
		{Origin: cdn.ASN, Site: "sin", City: "SIN"},
	}
	if err := e.Announce(pfxGlobal, anns); err != nil {
		t.Fatal(err)
	}
	return tp, e, anns
}

// snapshotRibs returns the current rib table for a prefix. Tables and rib
// values are never mutated after install, so holding the table is a stable
// snapshot.
func snapshotRibs(e *Engine, p netip.Prefix) ribTable {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ribs[p]
}

// ribsEqual compares two per-AS rib tables over e's dense index, treating an
// absent rib as empty.
func ribsEqual(e *Engine, a, b ribTable) (topo.ASN, bool) {
	for i := 0; i < e.n; i++ {
		var ra, rb *rib
		if i < len(a) {
			ra = a[i]
		}
		if i < len(b) {
			rb = b[i]
		}
		if !ribEqual(ra, rb) {
			return e.byIdx[i], false
		}
	}
	return 0, true
}

// requireFullMatch asserts the engine's installed state for p is
// bit-identical to a from-scratch converge over its current announcements.
func requireFullMatch(t *testing.T, e *Engine, p netip.Prefix, event string) {
	t.Helper()
	want, err := e.convergeFull(p, e.Announcements(p))
	if err != nil {
		t.Fatalf("%s: full reference converge: %v", event, err)
	}
	if asn, ok := ribsEqual(e, want, snapshotRibs(e, p)); !ok {
		t.Fatalf("%s: incremental rib for %s differs from full recompute", event, asn)
	}
}

// TestWithdrawReAnnounceBitIdentical is the regression test for the
// withdraw -> re-announce cycle: removing a site and announcing it back must
// restore bit-identical routing state, for both the whole-prefix API and the
// per-site incremental API.
func TestWithdrawReAnnounceBitIdentical(t *testing.T) {
	const imperva, probeAS topo.ASN = 19551, 10745
	anns := []SiteAnnouncement{
		{Origin: imperva, Site: "ash", City: "IAD"},
		{Origin: imperva, Site: "sin", City: "SIN"},
	}

	t.Run("whole-prefix", func(t *testing.T) {
		_, e := figure1World(t)
		if err := e.Announce(pfxGlobal, anns); err != nil {
			t.Fatal(err)
		}
		before := snapshotRibs(e, pfxGlobal)
		e.Withdraw(pfxGlobal)
		if _, ok := e.Lookup(pfxGlobal, probeAS, "WAS"); ok {
			t.Fatal("lookup succeeded after withdraw")
		}
		if err := e.Announce(pfxGlobal, anns); err != nil {
			t.Fatal(err)
		}
		if asn, ok := ribsEqual(e, before, snapshotRibs(e, pfxGlobal)); !ok {
			t.Fatalf("rib for %s not restored after withdraw + re-announce", asn)
		}
	})

	t.Run("per-site", func(t *testing.T) {
		_, e := figure1World(t)
		if err := e.Announce(pfxGlobal, anns); err != nil {
			t.Fatal(err)
		}
		before := snapshotRibs(e, pfxGlobal)
		if err := e.WithdrawSite(pfxGlobal, "sin"); err != nil {
			t.Fatal(err)
		}
		fwd, ok := e.Lookup(pfxGlobal, probeAS, "WAS")
		if !ok || fwd.Site != "ash" {
			t.Fatalf("after sin withdrawal probe forward = %+v, %v; want ash", fwd, ok)
		}
		if err := e.AnnounceSite(pfxGlobal, anns[1]); err != nil {
			t.Fatal(err)
		}
		if asn, ok := ribsEqual(e, before, snapshotRibs(e, pfxGlobal)); !ok {
			t.Fatalf("rib for %s not restored after per-site withdraw + re-announce", asn)
		}
		if fwd, ok := e.Lookup(pfxGlobal, probeAS, "WAS"); !ok || fwd.Site != "sin" {
			t.Fatalf("probe forward after restore = %+v, %v; want sin", fwd, ok)
		}
	})

	t.Run("per-site-generated", func(t *testing.T) {
		_, e, ganns := generatedCDNWorld(t, 11)
		before := snapshotRibs(e, pfxGlobal)
		if err := e.WithdrawSite(pfxGlobal, "fra"); err != nil {
			t.Fatal(err)
		}
		if err := e.AnnounceSite(pfxGlobal, ganns[1]); err != nil {
			t.Fatal(err)
		}
		if asn, ok := ribsEqual(e, before, snapshotRibs(e, pfxGlobal)); !ok {
			t.Fatalf("rib for %s not restored after withdraw + re-announce of fra", asn)
		}
	})
}

// TestIncrementalMatchesFull property-tests the tentpole invariant: for
// every supported event type, incremental reconvergence must land on
// exactly the routing state a from-scratch converge computes.
func TestIncrementalMatchesFull(t *testing.T) {
	for _, seed := range []int64{11, 23} {
		tp, e, anns := generatedCDNWorld(t, seed)
		sawIncremental := false

		// Event 1: site withdrawal.
		if err := e.WithdrawSite(pfxGlobal, "sin"); err != nil {
			t.Fatal(err)
		}
		requireFullMatch(t, e, pfxGlobal, "site-withdraw")
		sawIncremental = sawIncremental || !e.LastReconvergeStats().Full

		// Event 2: site restore (per-site re-announcement).
		if err := e.AnnounceSite(pfxGlobal, anns[2]); err != nil {
			t.Fatal(err)
		}
		requireFullMatch(t, e, pfxGlobal, "site-restore")
		sawIncremental = sawIncremental || !e.LastReconvergeStats().Full

		// Event 3: single-link failure and repair. Pick a mid-graph
		// customer-provider link (a tier-2's transit) so the failure has a
		// real blast radius without being the CDN's own uplink.
		li := -1
		for i, l := range tp.Links() {
			if l.Type != topo.CustomerToProvider {
				continue
			}
			if tp.MustAS(l.A).Tier == topo.Tier2 && tp.MustAS(l.B).Tier == topo.Tier1 {
				li = i
				break
			}
		}
		if li < 0 {
			t.Fatal("no tier-2 transit link in generated world")
		}
		for _, ev := range []struct {
			name    string
			enabled bool
		}{{"link-fail", false}, {"link-repair", true}} {
			if err := tp.SetLinkEnabled(li, ev.enabled); err != nil {
				t.Fatal(err)
			}
			if err := e.ReconvergeLinks([]int{li}); err != nil {
				t.Fatal(err)
			}
			requireFullMatch(t, e, pfxGlobal, ev.name)
			sawIncremental = sawIncremental || !e.LastReconvergeStats().Full
		}

		// Event 4: IXP outage — every link of one IXP goes down at once.
		ixp := ""
		for _, l := range tp.Links() {
			if l.IXP != "" {
				ixp = l.IXP
				break
			}
		}
		if ixp == "" {
			t.Fatal("no IXP links in generated world")
		}
		ixpLinks := tp.LinksOfIXP(ixp)
		for _, i := range ixpLinks {
			if err := tp.SetLinkEnabled(i, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ReconvergeLinks(ixpLinks); err != nil {
			t.Fatal(err)
		}
		requireFullMatch(t, e, pfxGlobal, "ixp-outage")
		sawIncremental = sawIncremental || !e.LastReconvergeStats().Full
		for _, i := range ixpLinks {
			if err := tp.SetLinkEnabled(i, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ReconvergeLinks(ixpLinks); err != nil {
			t.Fatal(err)
		}
		requireFullMatch(t, e, pfxGlobal, "ixp-restore")

		if !sawIncremental {
			t.Errorf("seed %d: every event fell back to full reconvergence; scoped path never exercised", seed)
		}
	}
}

// TestWithdrawLastSite checks a prefix goes dark when its only site is
// withdrawn and comes back via AnnounceSite.
func TestWithdrawLastSite(t *testing.T) {
	_, e := figure1World(t)
	const imperva, probeAS topo.ASN = 19551, 10745
	ann := SiteAnnouncement{Origin: imperva, Site: "ash", City: "IAD"}
	if err := e.Announce(pfxUS, []SiteAnnouncement{ann}); err != nil {
		t.Fatal(err)
	}
	before := snapshotRibs(e, pfxUS)
	if err := e.WithdrawSite(pfxUS, "ash"); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Lookup(pfxUS, probeAS, "WAS"); ok {
		t.Fatal("lookup succeeded on dark prefix")
	}
	if err := e.AnnounceSite(pfxUS, ann); err != nil {
		t.Fatal(err)
	}
	if asn, ok := ribsEqual(e, before, snapshotRibs(e, pfxUS)); !ok {
		t.Fatalf("rib for %s not restored after dark-prefix relight", asn)
	}
}

// TestFailoverMemoryPerSite pins the failover-memory rule: a change in
// which one site is the prefix's only changed site stores its footprint as
// that site's memory, a change to several sites leaves every site's memory
// as it was, and repeating an identical announcement does nothing at all.
func TestFailoverMemoryPerSite(t *testing.T) {
	_, e, anns := generatedCDNWorld(t, 3)
	reg := obs.NewRegistry()
	e.Instrument(reg, nil)
	siteOps := reg.Counter("bgp.op.site")
	hint := func(site string) *asBits {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.hints[pfxGlobal][site]
	}
	requireStored := func(site, op string) {
		t.Helper()
		st := e.LastReconvergeStats()
		if st.Full || st.Dirty == 0 {
			t.Fatalf("%s: stats %+v, want a non-empty incremental reconverge", op, st)
		}
		if h := hint(site); h == nil || h.len() != st.Dirty {
			t.Fatalf("%s: %s's memory is %v, want the %d-AS touched set", op, site, h, st.Dirty)
		}
	}

	for _, a := range anns {
		if err := e.WithdrawSite(pfxGlobal, a.Site); err != nil {
			t.Fatal(err)
		}
		requireStored(a.Site, "withdraw "+a.Site)
		withdrawn := hint(a.Site)
		if err := e.AnnounceSite(pfxGlobal, a); err != nil {
			t.Fatal(err)
		}
		requireStored(a.Site, "restore "+a.Site)
		if hint(a.Site) == withdrawn {
			t.Fatalf("restoring %s kept the withdrawal's memory", a.Site)
		}
	}

	iad, sin := hint("iad"), hint("sin")
	b := e.NewBatch()
	for _, a := range e.Announcements(pfxGlobal) {
		if a.Site == "fra" {
			continue
		}
		a.Prepend = 2
		if err := b.AnnounceSite(pfxGlobal, a); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if st := e.LastReconvergeStats(); st.Dirty == 0 {
		t.Fatalf("two-site batch did no work: %+v", st)
	}
	if hint("iad") != iad || hint("sin") != sin {
		t.Fatal("a two-site batch replaced a site's failover memory")
	}

	ops := siteOps.Value()
	ribs := snapshotRibs(e, pfxGlobal)
	if err := e.AnnounceSite(pfxGlobal, e.Announcements(pfxGlobal)[0]); err != nil {
		t.Fatal(err)
	}
	if st := e.LastReconvergeStats(); st != (ReconvergeStats{}) {
		t.Fatalf("repeating an announcement reconverged: %+v", st)
	}
	if got := siteOps.Value(); got != ops {
		t.Fatalf("repeating an announcement moved bgp.op.site %d -> %d", ops, got)
	}
	if snapshotRibs(e, pfxGlobal)[0] != ribs[0] || hint("iad") != iad {
		t.Fatal("repeating an announcement replaced routing state or memory")
	}
}

func TestIncrementalAPIErrors(t *testing.T) {
	_, e := figure1World(t)
	const imperva topo.ASN = 19551
	if err := e.WithdrawSite(pfxGlobal, "ash"); err == nil {
		t.Error("WithdrawSite on unannounced prefix succeeded")
	}
	if err := e.Announce(pfxGlobal, []SiteAnnouncement{{Origin: imperva, Site: "ash", City: "IAD"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.WithdrawSite(pfxGlobal, "nope"); err == nil {
		t.Error("WithdrawSite of unknown site succeeded")
	}
	if err := e.AnnounceSite(pfxGlobal, SiteAnnouncement{Origin: imperva, Site: "bad", City: "FRA"}); err == nil {
		t.Error("AnnounceSite at absent city succeeded")
	}
	if err := e.ReconvergeLinks([]int{999}); err == nil {
		t.Error("ReconvergeLinks with bad index succeeded")
	}
}

// TestNonTerminationError checks the typed error converge returns when a
// propagation phase exceeds its iteration budget. The level-synchronous
// algorithm finalizes each AS at most once per phase, so the budget is a
// defensive bound (it cannot be tripped through the public API on a valid
// topology); what matters is that it surfaces as an error through Announce
// plumbing rather than a panic, with the prefix and iteration count intact.
func TestNonTerminationError(t *testing.T) {
	nte := &NonTerminationError{Prefix: pfxGlobal, Phase: 3, Iterations: 42}
	var err error = nte
	var got *NonTerminationError
	if !errors.As(err, &got) || got.Iterations != 42 {
		t.Fatalf("errors.As round-trip failed: %v", err)
	}
	msg := err.Error()
	for _, want := range []string{"phase 3", pfxGlobal.String(), "42"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}

// TestDisabledLinkCarriesNoRoutes checks converge ignores disabled links
// entirely: with the probe's only uplink down, the probe learns nothing.
func TestDisabledLinkCarriesNoRoutes(t *testing.T) {
	tp, e := figure1World(t)
	const probeAS, zayo topo.ASN = 10745, 6461
	li, ok := tp.LinkIndexBetween(probeAS, zayo)
	if !ok {
		t.Fatal("probe uplink missing")
	}
	if err := tp.SetLinkEnabled(li, false); err != nil {
		t.Fatal(err)
	}
	defer tp.SetLinkEnabled(li, true)
	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: 19551, Site: "ash", City: "IAD"},
		{Origin: 19551, Site: "sin", City: "SIN"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Lookup(pfxGlobal, probeAS, "WAS"); ok {
		t.Fatal("probe has a route over a disabled link")
	}
}
