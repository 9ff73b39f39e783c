package glass

import (
	"reflect"
	"slices"
	"testing"

	"anysim/internal/bgp"
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

// TestCaptureFromSiteSetChange: a prefix whose announced site set differs
// from the base's has every group walked again, even where no rib changed,
// because the site set alone decides the nearest site and so the inflation
// and class. The base here is the engine's own capture with one prefix's
// site list altered, so only the site-set rule can tell.
func TestCaptureFromSiteSetChange(t *testing.T) {
	w := provWorld(t, 5)
	dep, probes := w.Imperva.IM6, w.Platform.Retained()
	full, err := Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	prefix := dep.Regions[0].Prefix
	base := full
	base.Announced = append([]PrefixSites(nil), full.Announced...)
	for i, ps := range base.Announced {
		if ps.Prefix == prefix.String() {
			base.Announced[i].Sites = ps.Sites[1:]
		}
	}
	got, err := CaptureFrom(w.Engine, dep, w.Measurer, w.Platform.Groups(), &base, w.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatal("delta capture differs from the full capture")
	}
	for i, g := range got.Groups {
		shared := len(g.hops) > 0 && &g.hops[0] == &base.Groups[i].hops[0]
		if onPrefix := g.Prefix == prefix; g.Served && shared == onPrefix {
			t.Fatalf("%s (prefix %s): hop chain shared = %v", g.Group, g.Prefix, shared)
		}
	}
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
	// no longer has the table's keys in the table's order.
	renamed := full
	renamed.Groups = slices.Clone(full.Groups)
	renamed.Groups[len(renamed.Groups)/2].Group += "0"
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
