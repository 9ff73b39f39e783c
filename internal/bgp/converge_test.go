package bgp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"

	"anysim/internal/policy"
	"anysim/internal/topo"
)

// goldenWorld is generatedCDNWorld widened so every converge path carries
// offers: besides its tier-1 transits, the CDN peers publicly and over a
// route server with tier-2s in its cities (phase 2) and is the provider of a
// stub in each (phase-3 seeds). Nothing is announced yet.
func goldenWorld(t *testing.T) (*topo.Topology, topo.ASN) {
	t.Helper()
	tp, err := topo.Generate(topo.GenConfig{Seed: 23, NumTier1: 4, NumTier2: 30, NumStub: 300, NumIXP: 10})
	if err != nil {
		t.Fatal(err)
	}
	cdn := &topo.AS{ASN: topo.CDNBase, Name: "CDN", Tier: topo.TierCDN, Home: "US", Cities: []string{"IAD", "FRA", "SIN"}}
	if err := tp.AddAS(cdn); err != nil {
		t.Fatal(err)
	}
	link := func(l topo.Link) {
		t.Helper()
		if _, dup := tp.LinkBetween(l.A, l.B); dup {
			return
		}
		if err := tp.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	for _, city := range cdn.Cities {
		var t1, t2, stub int
		for _, asn := range tp.ASNs() {
			a := tp.MustAS(asn)
			if asn == cdn.ASN || !a.PresentIn(city) {
				continue
			}
			switch {
			case a.Tier == topo.Tier1 && t1 == 0:
				link(topo.Link{A: cdn.ASN, B: asn, Type: topo.CustomerToProvider, Cities: []string{city}})
				t1++
			case a.Tier == topo.Tier2 && t2 < 2:
				typ := topo.PublicPeer
				if t2 == 1 {
					typ = topo.RouteServerPeer
				}
				link(topo.Link{A: cdn.ASN, B: asn, Type: typ, Cities: []string{city}})
				t2++
			case a.Tier == topo.TierStub && stub == 0:
				link(topo.Link{A: asn, B: cdn.ASN, Type: topo.CustomerToProvider, Cities: []string{city}})
				stub++
			}
		}
		if t1 == 0 {
			t.Fatalf("no tier-1 present in %s", city)
		}
	}
	tp.Freeze()
	return tp, cdn.ASN
}

// digestRouting hashes every AS's rib for every prefix — class ends, and
// per route its class, site, downstream distance bits, IXP, final upstream,
// path, cities and communities — and every provenance record, plus the last
// reconvergence statistics.
func digestRouting(e *Engine) string {
	h := sha256.New()
	for _, p := range e.Prefixes() {
		h.Write([]byte(p.String()))
		e.mu.RLock()
		ribs := e.ribs[p]
		e.mu.RUnlock()
		for i, rb := range ribs {
			if rb == nil {
				continue
			}
			putInt(h, int64(i))
			for _, end := range rb.ends {
				putInt(h, int64(end))
			}
			for _, r := range rb.routes {
				digestRoute(h, r)
			}
			if pv := rb.prov; pv != nil {
				h.Write([]byte{'P', b2u(pv.Valid), byte(pv.WinnerClass), byte(pv.Step), b2u(pv.HasRunnerUp),
					byte(pv.RunnerClass), b2u(pv.Arbitrary)})
				putInt(h, int64(pv.AltInClass))
				digestRoute(h, pv.winner)
				digestRoute(h, pv.runnerUp)
			}
		}
	}
	st := e.LastReconvergeStats()
	putInt(h, int64(st.Dirty))
	putInt(h, int64(st.Passes))
	h.Write([]byte{b2u(st.Full)})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func digestRoute(h hash.Hash, r Route) {
	h.Write([]byte{'R', byte(r.Rel)})
	h.Write([]byte(r.Site()))
	putInt(h, int64(math.Float64bits(r.DownKm)))
	h.Write([]byte(r.FinalIXP()))
	putInt(h, int64(r.FinalUpstream))
	for n := r.path; n != nil; n = n.next {
		putInt(h, int64(n.asn))
		h.Write([]byte(n.city.String()))
	}
	h.Write([]byte(r.Comms.String()))
}

func putInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// TestRoutingStateGolden pins the full routing and provenance state after a
// fixed operation sequence to digests recorded before the converge storage
// was rewritten, so a bug common to full and incremental convergence cannot
// hide behind their agreement. The sequence runs twice on one engine, the
// prefix withdrawn in between, so the second run converges on arenas the
// first left idle; after each run every idle arena must be empty.
func TestRoutingStateGolden(t *testing.T) {
	want := []string{
		"announce: 11c7c4fc466a3b5a",
		"announce-prepended: 62f6f4a3167beaac",
		"withdraw-site: 878285e44ae26379",
		"link-fault-batch: 347798e88ede1098",
		"link-repair-batch: 4c96e640dbf68f7d",
	}
	tp, cdn := goldenWorld(t)
	pol := policy.MustParse("policy golden\nimport -> tag-metro\n")
	e := NewEngineWithConfig(tp, EngineConfig{Provenance: true, Policy: pol})
	for run := 1; run <= 2; run++ {
		e.Withdraw(pfxGlobal)
		got := goldenSequence(t, tp, e, cdn)
		for i, g := range got {
			if g != want[i] {
				t.Errorf("run %d: digest %q, want %q", run, g, want[i])
			}
		}
		requireIdleArenas(t, e)
	}
}

// goldenSequence runs the golden operation sequence on an engine holding
// no prefix and returns the digest after every step.
func goldenSequence(t *testing.T, tp *topo.Topology, e *Engine, cdn topo.ASN) []string {
	t.Helper()
	anns := policyTestAnnouncements([]SiteAnnouncement{
		{Origin: cdn, Site: "iad", City: "IAD"},
		{Origin: cdn, Site: "fra", City: "FRA"},
		{Origin: cdn, Site: "sin", City: "SIN"},
	}, t)
	var out []string
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, name+": "+digestRouting(e))
	}
	step("announce", e.Announce(pfxGlobal, anns))
	prepended := anns[2]
	prepended.Prepend = 3
	step("announce-prepended", e.AnnounceSite(pfxGlobal, prepended))
	step("withdraw-site", e.WithdrawSite(pfxGlobal, "iad"))

	// Fail the generated world's first two peering links and first two
	// tier-2 transit links in one batch, then repair them: both take
	// several worklist passes.
	var faults []int
	var peers, c2p int
	for li, l := range tp.Links() {
		switch {
		case l.Type == topo.PublicPeer && peers < 2:
			peers++
		case l.Type == topo.CustomerToProvider && tp.MustAS(l.A).Tier == topo.Tier2 && c2p < 2:
			c2p++
		default:
			continue
		}
		faults = append(faults, li)
	}
	setLinks := func(on bool) error {
		b := e.NewBatch()
		for _, li := range faults {
			if err := b.SetLink(li, on); err != nil {
				return err
			}
		}
		return e.ApplyBatch(b)
	}
	step("link-fault-batch", setLinks(false))
	step("link-repair-batch", setLinks(true))
	if st := e.LastReconvergeStats(); st.Full || st.Passes < 2 {
		t.Fatalf("link repair reconverged with %+v, want an incremental multi-pass run", st)
	}
	return out
}

// requireIdleArenas asserts every idle arena of e's pool is empty: no
// offer in any list, a zero grouping counter, and no route or rib
// reference anywhere in its buffers' backing arrays.
func requireIdleArenas(t *testing.T, e *Engine) {
	t.Helper()
	e.arenas.mu.Lock()
	defer e.arenas.mu.Unlock()
	if len(e.arenas.idle) == 0 {
		t.Fatal("no idle arena after converging")
	}
	for _, a := range e.arenas.idle {
		empty := len(a.exp) == 0 && len(a.peerSeeds) == 0 && len(a.provSeeds) == 0
		for _, l := range a.pre {
			empty = empty && len(l) == 0 && !slices.ContainsFunc(l[:cap(l)], func(o offer) bool { return o != offer{} })
		}
		for _, l := range a.exporters {
			empty = empty && len(l) == 0
		}
		for _, l := range a.bounds {
			empty = empty && len(l) == 0
		}
		for _, l := range [][]offer{a.exp, a.peerSeeds, a.provSeeds} {
			empty = empty && !slices.ContainsFunc(l[:cap(l)], func(o offer) bool { return o != offer{} })
		}
		for _, l := range [][]Route{a.buf, a.tmp} {
			empty = empty && !slices.ContainsFunc(l[:cap(l)], func(r Route) bool { return r != Route{} })
		}
		empty = empty && !slices.ContainsFunc(a.prev[:cap(a.prev)], func(r *rib) bool { return r != nil })
		empty = empty && !slices.ContainsFunc(a.slot, func(c int32) bool { return c != 0 })
		for _, dt := range []dropTable{a.prov.drops, a.prov.pol} {
			empty = empty && len(dt.slots) == 0 && len(dt.owners) == 0 &&
				!slices.ContainsFunc(dt.slots[:cap(dt.slots)], func(s [FromProvider + 1]dropSlot) bool { return s != [FromProvider + 1]dropSlot{} }) &&
				!slices.ContainsFunc(dt.idx, func(k int32) bool { return k != 0 })
		}
		if !empty {
			t.Fatal("an idle arena holds offers, counts or route references")
		}
	}
}

// TestArenaReuseAcrossConverges runs two converges back to back on one
// arena, as the passes of a reconverge do. The first leaves the stub's
// prepended seed at a level its descent never reaches; the second, with iad
// prepended so its climb runs that many rounds, must still match a converge
// on a fresh arena. The arena's provenance recorder carries the first
// pass's drops into the second unless the pass clears it.
func TestArenaReuseAcrossConverges(t *testing.T) {
	tp, _, iad, fra := lateOfferWorld(t)
	e := NewEngineWithConfig(tp, EngineConfig{Provenance: true})
	longIAD := iad
	longIAD.Prepend = 3
	a := e.arenas.get()
	defer e.arenas.put(a)
	if err := e.converge(a, pfxGlobal, []SiteAnnouncement{iad, fra}, make(ribTable, e.n), nil); err != nil {
		t.Fatal(err)
	}
	got := make(ribTable, e.n)
	if err := e.converge(a, pfxGlobal, []SiteAnnouncement{longIAD, fra}, got, nil); err != nil {
		t.Fatal(err)
	}
	want, err := e.convergeFull(pfxGlobal, []SiteAnnouncement{longIAD, fra})
	if err != nil {
		t.Fatal(err)
	}
	if asn, ok := ribsEqual(e, got, want); !ok {
		t.Fatalf("rib for %s differs after arena reuse", asn)
	}
	if asn, ok := provTablesEqual(e, tableOf(e, got), tableOf(e, want)); !ok {
		t.Fatalf("provenance for %s differs after arena reuse", asn)
	}

	// A converge whose policy rejects the fra seeds fills the recorder's
	// policy table. A converge of sin alone and no policy, on the same
	// arena, must record provenance equal to a fresh engine's: a policy
	// drop left over from the first would surface as a community-dropped
	// runner-up in a class the AS no longer hears.
	t.Run("after-policy-drops", func(t *testing.T) {
		tp, e := figure7World(t)
		const imperva topo.ASN = 19551
		e.SetProvenance(true)
		e.SetPolicy(policy.MustParse("policy no-fra\nimport metro FRA -> reject\n"))
		fra := SiteAnnouncement{Origin: imperva, Site: "fra", City: "FRA"}
		sin := SiteAnnouncement{Origin: imperva, Site: "sin", City: "SIN"}
		a := e.arenas.get()
		defer e.arenas.put(a)
		if err := e.converge(a, pfxGlobal, []SiteAnnouncement{fra, sin}, make(ribTable, e.n), nil); err != nil {
			t.Fatal(err)
		}
		if len(a.prov.pol.owners) == 0 {
			t.Fatal("the policy rejected no seed")
		}
		e.SetPolicy(nil)
		got := make(ribTable, e.n)
		if err := e.converge(a, pfxGlobal, []SiteAnnouncement{sin}, got, nil); err != nil {
			t.Fatal(err)
		}
		fresh := NewEngineWithConfig(tp, EngineConfig{Provenance: true})
		want, err := fresh.convergeFull(pfxGlobal, []SiteAnnouncement{sin})
		if err != nil {
			t.Fatal(err)
		}
		if asn, ok := ribsEqual(e, got, want); !ok {
			t.Fatalf("rib for %s differs after a policy pass on the arena", asn)
		}
		if asn, ok := provTablesEqual(e, tableOf(e, got), tableOf(e, want)); !ok {
			t.Fatalf("provenance for %s differs after a policy pass on the arena", asn)
		}
	})
}
