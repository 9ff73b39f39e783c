package glass

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"anysim/internal/bgp"
	"anysim/internal/geo"
	"anysim/internal/worldgen"
)

// sharedViews counts the views of got whose hop chain is the same storage
// as want's view at that index, and fails on a served view that shares its
// chain but is not the same view.
func sharedViews(t *testing.T, got, want CatchmentSet) int {
	t.Helper()
	n := 0
	for i := range got.Groups {
		g, w := got.Groups[i], want.Groups[i]
		if len(g.hops) == 0 || len(w.hops) == 0 || &g.hops[0] != &w.hops[0] {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: view shares its hop chain with the base but differs", g.Group)
		}
		n++
	}
	return n
}

// servedGroups counts a capture's served groups.
func servedGroups(s CatchmentSet) int {
	n := 0
	for _, g := range s.Groups {
		if g.Served {
			n++
		}
	}
	return n
}

// TestCaptureFromSameEngineReusesAll: a base captured on the very engine
// being captured reuses every view, hop storage included.
func TestCaptureFromSameEngineReusesAll(t *testing.T) {
	w := provWorld(t, 5)
	dep, probes := w.Imperva.IM6, w.Platform.Retained()
	full, err := Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CaptureFrom(w.Engine, dep, w.Measurer, w.Platform.Groups(), &full, w.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatal("delta capture against itself differs from the full capture")
	}
	if n, served := sharedViews(t, got, full), servedGroups(full); n != served {
		t.Fatalf("reused %d hop chains of %d served groups", n, served)
	}
}

// TestCaptureFromPrependedSite: a prepended re-announcement keeps the
// prefix's site set, so only the groups whose client or hop ribs changed
// are walked again. The delta must equal a full capture of the fork and
// still share the untouched groups with the base.
func TestCaptureFromPrependedSite(t *testing.T) {
	w := provWorld(t, 5)
	dep, probes := w.Imperva.IM6, w.Platform.Retained()
	base, err := Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	prefix := dep.Regions[0].Prefix
	fork := w.Engine.Fork()
	var ann bgp.SiteAnnouncement
	for _, a := range fork.Announcements(prefix) {
		if a.Site > ann.Site {
			ann = a
		}
	}
	ann.Prepend = 3
	if err := fork.AnnounceSite(prefix, ann); err != nil {
		t.Fatal(err)
	}
	if len(fork.RibsChangedFrom(w.Engine, prefix)) == 0 {
		t.Fatal("the prepend changed no rib")
	}
	full, err := Capture(fork, dep, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CaptureFrom(fork, dep, w.Measurer, w.Platform.Groups(), &base, w.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatal("delta capture differs from a full capture of the fork")
	}
	if n, served := sharedViews(t, got, base), servedGroups(full); n == 0 || n == served {
		t.Fatalf("reused %d hop chains of %d served groups; want some but not all", n, served)
	}
}

// TestCaptureFromNearestSiteMoved: a withdrawal that moves a city's
// nearest announced site changes the inflation and class of that city's
// served groups even where their forward and hop records stay the same, so
// the delta must walk every such group again. A withdrawal changes the
// origin's rib, the last hop of every served path, so the test picks one
// that leaves at least one such group with its forward and every hop record
// as they were: only the nearest site comparison can force its walk.
func TestCaptureFromNearestSiteMoved(t *testing.T) {
	w := provWorld(t, 5)
	dep, probes := w.Imperva.IM6, w.Platform.Retained()
	base, err := Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	groups := w.Platform.Groups().Groups
	for _, region := range dep.Regions {
		prefix := region.Prefix
		for _, ann := range w.Engine.Announcements(prefix) {
			fork := w.Engine.Fork()
			if err := fork.WithdrawSite(prefix, ann.Site); err != nil {
				t.Fatal(err)
			}
			// The served groups of the prefix whose city's nearest site
			// moved, and whether one of them kept its forward and hops.
			var moved []int
			quiet := false
			var tabs tableMemo
			for i, v := range base.Groups {
				if v.Prefix != prefix || !v.Served {
					continue
				}
				city, _ := geo.CityIDOf(groups[i].City)
				s0, km0 := nearestAnnouncedSite(w.Engine, dep, prefix, city)
				s1, km1 := nearestAnnouncedSite(fork, dep, prefix, city)
				if s0 == s1 && km0 == km1 {
					continue
				}
				moved = append(moved, i)
				ce, _, hops, err := explainProbe(fork, dep, w.Measurer, groups[i].Rep, groups[i].Key, nearestMemo{}, &tabs)
				if err != nil {
					t.Fatal(err)
				}
				quiet = quiet || ce.Site == v.Site && ce.RTTMs == v.RTTMs && slices.Equal(hops, v.hops)
			}
			if !quiet {
				continue
			}
			full, err := Capture(fork, dep, w.Measurer, probes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CaptureFrom(fork, dep, w.Measurer, w.Platform.Groups(), &base, w.Engine)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, full) {
				t.Fatalf("withdraw %s from %s: delta capture differs from a full capture of the fork", ann.Site, prefix)
			}
			for _, i := range moved {
				if got.Groups[i] == base.Groups[i] {
					t.Fatalf("withdraw %s from %s: %s kept its view although its nearest site moved", ann.Site, prefix, got.Groups[i].Group)
				}
			}
			return
		}
	}
	t.Fatal("no withdrawal moves a city's nearest site while keeping a group's forward and hops")
}

// TestCaptureFromSharesReusedViews: a reused view is the base's view, not a
// copy. A capture against itself points at every base view, and a delta of
// that delta still points at the first capture's views, so a history of
// captures holds each view once.
func TestCaptureFromSharesReusedViews(t *testing.T) {
	w := provWorld(t, 5)
	dep, probes := w.Imperva.IM6, w.Platform.Retained()
	full, err := Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	first, err := CaptureFrom(w.Engine, dep, w.Measurer, w.Platform.Groups(), &full, w.Engine)
	if err != nil {
		t.Fatal(err)
	}
	fork := w.Engine.Fork()
	var ann bgp.SiteAnnouncement
	prefix := dep.Regions[0].Prefix
	for _, a := range fork.Announcements(prefix) {
		if a.Site > ann.Site {
			ann = a
		}
	}
	ann.Prepend = 3
	if err := fork.AnnounceSite(prefix, ann); err != nil {
		t.Fatal(err)
	}
	second, err := CaptureFrom(fork, dep, w.Measurer, w.Platform.Groups(), &first, w.Engine)
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for i := range full.Groups {
		if first.Groups[i] != full.Groups[i] {
			t.Fatalf("%s: a capture against itself copied the view", full.Groups[i].Group)
		}
		if v := second.Groups[i]; v == full.Groups[i] {
			reused++
		} else if slices.Contains(full.Groups, v) {
			t.Fatalf("%s: the delta points at another group's view", v.Group)
		}
	}
	if reused == 0 || reused == len(full.Groups) {
		t.Fatalf("the prepend's delta reused %d of %d views; want some but not all", reused, len(full.Groups))
	}
}

// faultReuse applies one fault to a fork of w's engine, checks that the
// delta capture of the fork against base equals a full capture of it, and
// returns how many of the delta's views are the base's.
func faultReuse(t *testing.T, w *worldgen.World, base CatchmentSet, name string, fault func(fork *bgp.Engine) error) int {
	t.Helper()
	dep := w.Imperva.IM6
	fork := w.Engine.Fork()
	if err := fault(fork); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	full, err := Capture(fork, dep, w.Measurer, w.Platform.Retained())
	if err != nil {
		t.Fatal(err)
	}
	got, err := CaptureFrom(fork, dep, w.Measurer, w.Platform.Groups(), &base, w.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("%s: delta capture differs from a full capture of the fork", name)
	}
	n := 0
	for i, v := range got.Groups {
		if v == base.Groups[i] {
			n++
		}
	}
	return n
}

// linkFault fails links on a fork as one batch. The topology is shared
// with the base engine, so the caller repairs them once the fork is done.
func linkFault(links []int) func(*bgp.Engine) error {
	return func(fork *bgp.Engine) error {
		b := fork.NewBatch()
		for _, li := range links {
			if err := b.SetLink(li, false); err != nil {
				return err
			}
		}
		return fork.ApplyBatch(b)
	}
}

// requireReuse fails unless the deltas of a family of faults reused at
// least 90% of their views in all.
func requireReuse(t *testing.T, faults, reused, views int) {
	t.Helper()
	if faults == 0 {
		t.Fatal("no fault of this kind in the world")
	}
	frac := float64(reused) / float64(views)
	if frac < 0.9 {
		t.Fatalf("%d faults: deltas reused %.1f%% of views, want at least 90%%", faults, 100*frac)
	}
	t.Logf("%d faults: deltas reused %.1f%% of views", faults, 100*frac)
}

// The four fault families below are the delta-capture headroom table's
// rows (small world, seed 5, IM6): each delta must equal a full capture of
// its fork and reuse at least 90% of the base's views.

// TestCaptureFromDeploymentLinkFault: a fault on one of the deployment AS's
// links changes the origin's rib, the last hop of every served view.
func TestCaptureFromDeploymentLinkFault(t *testing.T) {
	w := provWorld(t, 5)
	dep := w.Imperva.IM6
	base, err := Capture(w.Engine, dep, w.Measurer, w.Platform.Retained())
	if err != nil {
		t.Fatal(err)
	}
	faults, reused := 0, 0
	for li, l := range w.Topo.Links() {
		if (l.A != dep.ASN && l.B != dep.ASN) || !w.Topo.LinkEnabled(li) {
			continue
		}
		reused += faultReuse(t, w, base, fmt.Sprintf("link %d", li), linkFault([]int{li}))
		w.Topo.SetLinkEnabled(li, true)
		faults++
	}
	requireReuse(t, faults, reused, faults*len(base.Groups))
}

// TestCaptureFromOtherLinkFault: a fault on a link away from the
// deployment AS, every 97th link.
func TestCaptureFromOtherLinkFault(t *testing.T) {
	w := provWorld(t, 5)
	dep := w.Imperva.IM6
	base, err := Capture(w.Engine, dep, w.Measurer, w.Platform.Retained())
	if err != nil {
		t.Fatal(err)
	}
	faults, reused := 0, 0
	for li, l := range w.Topo.Links() {
		if li%97 != 0 || l.A == dep.ASN || l.B == dep.ASN || !w.Topo.LinkEnabled(li) {
			continue
		}
		reused += faultReuse(t, w, base, fmt.Sprintf("link %d", li), linkFault([]int{li}))
		w.Topo.SetLinkEnabled(li, true)
		faults++
	}
	requireReuse(t, faults, reused, faults*len(base.Groups))
}

// TestCaptureFromSiteWithdrawal: each site's withdrawal from each prefix it
// announces. The prefix's site set changes, and with it some cities'
// nearest site.
func TestCaptureFromSiteWithdrawal(t *testing.T) {
	w := provWorld(t, 5)
	dep := w.Imperva.IM6
	base, err := Capture(w.Engine, dep, w.Measurer, w.Platform.Retained())
	if err != nil {
		t.Fatal(err)
	}
	faults, reused := 0, 0
	for _, region := range dep.Regions {
		for _, ann := range w.Engine.Announcements(region.Prefix) {
			reused += faultReuse(t, w, base, "withdraw "+ann.Site, func(fork *bgp.Engine) error {
				return fork.WithdrawSite(region.Prefix, ann.Site)
			})
			faults++
		}
	}
	requireReuse(t, faults, reused, faults*len(base.Groups))
}

// TestCaptureFromIXPOutage: every link of one IXP fails at once.
func TestCaptureFromIXPOutage(t *testing.T) {
	w := provWorld(t, 5)
	dep := w.Imperva.IM6
	base, err := Capture(w.Engine, dep, w.Measurer, w.Platform.Retained())
	if err != nil {
		t.Fatal(err)
	}
	faults, reused := 0, 0
	for _, ix := range w.Topo.IXPs() {
		links := w.Topo.LinksOfIXP(ix.ID)
		if len(links) == 0 {
			continue
		}
		reused += faultReuse(t, w, base, "ixp "+ix.ID, linkFault(links))
		for _, li := range links {
			w.Topo.SetLinkEnabled(li, true)
		}
		faults++
	}
	requireReuse(t, faults, reused, faults*len(base.Groups))
}

// TestCaptureFromFallsBack: a base that cannot describe this capture's
// groups (another deployment, another group count, one group key changed)
// gives a full capture, not an error and not a wrong reuse.
func TestCaptureFromFallsBack(t *testing.T) {
	w := provWorld(t, 5)
	dep, probes := w.Imperva.IM6, w.Platform.Retained()
	full, err := Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Capture(w.Engine, w.Imperva.NS, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	short := full
	short.Groups = full.Groups[1:]
	// Same length, but one key names another AS of the same city: the base
	// no longer has the table's keys in the table's order. Views are shared
	// and immutable, so the renamed one is a copy.
	renamed := full
	renamed.Groups = slices.Clone(full.Groups)
	v := *renamed.Groups[len(renamed.Groups)/2]
	v.Group += "0"
	renamed.Groups[len(renamed.Groups)/2] = &v
	bases := map[string]CatchmentSet{"other deployment": other, "fewer groups": short, "one key changed": renamed}
	for name, base := range bases {
		got, err := CaptureFrom(w.Engine, dep, w.Measurer, w.Platform.Groups(), &base, w.Engine)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("%s: capture differs from a full one", name)
		}
		if n := sharedViews(t, got, full); n != 0 {
			t.Fatalf("%s: reused %d views of an unusable base", name, n)
		}
	}
}
