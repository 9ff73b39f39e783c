package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"anysim/internal/topo"
)

// enginesStateEqual asserts two engines hold bit-identical routing state for
// a prefix: announcements, per-AS ribs, and catchments.
func enginesStateEqual(t *testing.T, label string, a, b *Engine, p netip.Prefix) {
	t.Helper()
	aAnns, bAnns := a.Announcements(p), b.Announcements(p)
	if len(aAnns) != len(bAnns) {
		t.Fatalf("%s: announcement count %d != %d", label, len(aAnns), len(bAnns))
	}
	for i := range aAnns {
		if fmt.Sprintf("%+v", aAnns[i]) != fmt.Sprintf("%+v", bAnns[i]) {
			t.Fatalf("%s: announcement %d differs: %+v vs %+v", label, i, aAnns[i], bAnns[i])
		}
	}
	if asn, ok := ribsEqual(a, snapshotRibs(a, p), snapshotRibs(b, p)); !ok {
		t.Fatalf("%s: rib for %s differs between engines", label, asn)
	}
}

// randomAction mutates one site announcement at random: a prepend change, an
// export-scope (selective announcement) change, or a withdraw/restore pair
// expressed as the withdrawn state. It mirrors the action vocabulary of the
// traffic steering loop.
func randomAction(rng *rand.Rand, anns []SiteAnnouncement) (site string, ann SiteAnnouncement, withdraw bool) {
	a := anns[rng.Intn(len(anns))]
	switch rng.Intn(3) {
	case 0: // prepend knob
		a.Prepend = rng.Intn(MaxPrepend + 1)
		return a.Site, a, false
	case 1: // toggle prepend off
		a.Prepend = 0
		return a.Site, a, false
	default:
		return a.Site, a, true
	}
}

// TestForkApplyBitIdentical is the fork equivalence property test: for a
// sequence of random steering actions, applying each action on a fresh Fork
// must produce bit-identical routing state to applying it on the parent
// serially and rolling it back afterwards (the pre-fork steering trial
// discipline), and the parent must come back bit-identical after every
// rollback.
func TestForkApplyBitIdentical(t *testing.T) {
	_, e, anns := generatedCDNWorld(t, 17)
	rng := rand.New(rand.NewSource(99))
	initial := snapshotRibs(e, pfxGlobal)

	cur := make(map[string]SiteAnnouncement, len(anns))
	for _, a := range anns {
		cur[a.Site] = a
	}

	const trials = 24
	for i := 0; i < trials; i++ {
		site, ann, withdraw := randomAction(rng, anns)

		// Fork walk: apply on a snapshot, parent untouched.
		f := e.Fork()
		var ferr error
		if withdraw {
			ferr = f.WithdrawSite(pfxGlobal, site)
		} else {
			ferr = f.AnnounceSite(pfxGlobal, ann)
		}
		if ferr != nil {
			t.Fatalf("trial %d: fork apply: %v", i, ferr)
		}
		forkStats := f.LastReconvergeStats()

		// Serial walk: apply on the parent, compare, roll back.
		saved := cur[site]
		var serr error
		if withdraw {
			serr = e.WithdrawSite(pfxGlobal, site)
		} else {
			serr = e.AnnounceSite(pfxGlobal, ann)
		}
		if serr != nil {
			t.Fatalf("trial %d: serial apply: %v", i, serr)
		}
		if st := e.LastReconvergeStats(); st != forkStats {
			t.Fatalf("trial %d: fork stats %+v != serial stats %+v", i, forkStats, st)
		}
		enginesStateEqual(t, "trial apply", f, e, pfxGlobal)

		if err := e.AnnounceSite(pfxGlobal, saved); err != nil {
			t.Fatalf("trial %d: rollback: %v", i, err)
		}
	}
	if asn, ok := ribsEqual(e, initial, snapshotRibs(e, pfxGlobal)); !ok {
		t.Fatalf("parent rib for %s not restored after trial sequence", asn)
	}
}

// randomSiteOp applies one random site operation to an engine, keyed by the
// announcement plan: an announced site gets a new prepend or, while a
// sibling still announces, a withdrawal; a withdrawn site is restored at a
// random prepend. Withdraw/restore pairs are what the failover hints
// remember, so a sequence of these builds up hint state.
func randomSiteOp(rng *rand.Rand, e *Engine, plan []SiteAnnouncement) error {
	a := plan[rng.Intn(len(plan))]
	cur := e.Announcements(pfxGlobal)
	announced := false
	for _, c := range cur {
		announced = announced || c.Site == a.Site
	}
	if announced && len(cur) > 1 && rng.Intn(2) == 0 {
		return e.WithdrawSite(pfxGlobal, a.Site)
	}
	a.Prepend = rng.Intn(MaxPrepend + 1)
	return e.AnnounceSite(pfxGlobal, a)
}

// TestResetToBitIdentical is the ResetTo property test: after random ops,
// ResetTo(snap) leaves the engine indistinguishable from snap — one more op
// yields ribs, announcements, ReconvergeStats and failover hints
// bit-identical to the same op on an untouched fork of snap. The walk keeps
// going from the reset state, so later snapshots carry hints.
func TestResetToBitIdentical(t *testing.T) {
	_, e, plan := generatedCDNWorld(t, 17)
	rng := rand.New(rand.NewSource(5))
	const rounds = 12
	for r := 0; r < rounds; r++ {
		snap := e.Fork()
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			if err := randomSiteOp(rng, e, plan); err != nil {
				t.Fatalf("round %d: op %d: %v", r, i, err)
			}
		}
		if err := e.ResetTo(snap); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		ref := snap.Fork()
		seed := rng.Int63()
		if err := randomSiteOp(rand.New(rand.NewSource(seed)), e, plan); err != nil {
			t.Fatalf("round %d: op after reset: %v", r, err)
		}
		if err := randomSiteOp(rand.New(rand.NewSource(seed)), ref, plan); err != nil {
			t.Fatalf("round %d: op on fork: %v", r, err)
		}
		if got, want := e.LastReconvergeStats(), ref.LastReconvergeStats(); got != want {
			t.Fatalf("round %d: stats after reset %+v != fork stats %+v", r, got, want)
		}
		enginesStateEqual(t, fmt.Sprintf("round %d", r), e, ref, pfxGlobal)
		if got, want := e.ExportState(), ref.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: announcements or hints differ after reset:\n%+v\nvs\n%+v", r, got, want)
		}
	}
}

// TestResetToOtherTopology: a snapshot over a different topology, even an
// identically generated one, is refused.
func TestResetToOtherTopology(t *testing.T) {
	_, a, _ := generatedCDNWorld(t, 17)
	_, b, _ := generatedCDNWorld(t, 17)
	if err := a.ResetTo(b.Fork()); err == nil {
		t.Fatal("ResetTo accepted a snapshot over another topology")
	}
	if err := a.ResetTo(a.Fork()); err != nil {
		t.Fatalf("ResetTo own fork: %v", err)
	}
}

// TestForkIsolation pins down the copy-on-write contract from both sides: a
// mutation on the fork never leaks into the parent, and a mutation on the
// parent after forking never leaks into the fork.
func TestForkIsolation(t *testing.T) {
	_, e, anns := generatedCDNWorld(t, 11)
	before := snapshotRibs(e, pfxGlobal)

	f := e.Fork()
	if err := f.WithdrawSite(pfxGlobal, "sin"); err != nil {
		t.Fatal(err)
	}
	if asn, ok := ribsEqual(e, before, snapshotRibs(e, pfxGlobal)); !ok {
		t.Fatalf("fork withdraw leaked into parent rib for %s", asn)
	}
	if got := len(f.Announcements(pfxGlobal)); got != len(anns)-1 {
		t.Fatalf("fork announcements = %d, want %d", got, len(anns)-1)
	}

	// Parent-side mutation after forking: the fork's view must not move.
	forkView := snapshotRibs(f, pfxGlobal)
	hot := anns[0]
	hot.Prepend = 3
	if err := e.AnnounceSite(pfxGlobal, hot); err != nil {
		t.Fatal(err)
	}
	if asn, ok := ribsEqual(f, forkView, snapshotRibs(f, pfxGlobal)); !ok {
		t.Fatalf("parent mutation leaked into fork rib for %s", asn)
	}

	// A second prefix announced on the parent is invisible to the fork.
	p2 := netip.MustParsePrefix("198.18.200.0/24")
	if err := e.Announce(p2, []SiteAnnouncement{{Origin: topo.CDNBase, Site: "iad2", City: "IAD"}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Lookup(p2, topo.CDNBase, "IAD"); ok {
		t.Fatal("prefix announced on parent after Fork is visible in fork")
	}
}

// TestRibsChangedFrom is the property test behind delta load evaluation:
// after any site operation on a fork, every AS outside the reported set
// answers Routes and LookupSite exactly as on the parent, and the set is no
// larger than the operation's dirty set. An untouched prefix reports nil,
// and a full recompute reports every AS that holds a route.
func TestRibsChangedFrom(t *testing.T) {
	tp, e, plan := generatedCDNWorld(t, 17)
	other := netip.MustParsePrefix("198.18.201.0/24")
	if got := e.Fork().RibsChangedFrom(e, pfxGlobal); got != nil {
		t.Fatalf("fresh fork reports %d changed ASes; want nil", len(got))
	}
	rng := rand.New(rand.NewSource(11))
	for r := 0; r < 16; r++ {
		f := e.Fork()
		if err := randomSiteOp(rng, f, plan); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		changed := f.RibsChangedFrom(e, pfxGlobal)
		if dirty := f.LastReconvergeStats().Dirty; len(changed) > dirty {
			t.Fatalf("round %d: %d changed ASes, more than the %d dirty", r, len(changed), dirty)
		}
		if got := f.RibsChangedFrom(e, other); got != nil {
			t.Fatalf("round %d: untouched prefix reports %d changed ASes", r, len(got))
		}
		in := make(map[int]bool, len(changed))
		for _, i := range changed {
			in[i] = true
		}
		for i, asn := range tp.ASList() {
			if in[i] {
				continue
			}
			fc, fr, fok := f.Routes(pfxGlobal, asn)
			ec, er, eok := e.Routes(pfxGlobal, asn)
			if fc != ec || fok != eok || !reflect.DeepEqual(fr, er) {
				t.Fatalf("round %d: %s is outside the changed set but its routes moved", r, asn)
			}
			for _, city := range tp.MustAS(asn).Cities {
				fs, fd, fok := f.LookupSite(pfxGlobal, asn, city)
				es, ed, eok := e.LookupSite(pfxGlobal, asn, city)
				if fs != es || fd != ed || fok != eok {
					t.Fatalf("round %d: %s at %s is outside the changed set but looks up %q/%v, parent %q/%v",
						r, asn, city, fs, fd, es, ed)
				}
			}
		}
		// Adopt half the trials, so later forks start from states with
		// failover hints, as the steering walk's do.
		if rng.Intn(2) == 0 {
			if err := e.ResetTo(f); err != nil {
				t.Fatal(err)
			}
		}
	}

	f := e.Fork()
	if err := f.Announce(pfxGlobal, f.Announcements(pfxGlobal)); err != nil {
		t.Fatal(err)
	}
	if got, want := len(f.RibsChangedFrom(e, pfxGlobal)), snapshotRibs(e, pfxGlobal).populated(); got != want {
		t.Fatalf("full recompute reports %d changed ASes; want the %d that hold a route", got, want)
	}
}
