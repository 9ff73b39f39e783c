package glass

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"anysim/internal/obs"
	"anysim/internal/worldgen"
)

// provWorld builds a reduced-scale world with provenance recording on.
func provWorld(t testing.TB, seed int64) *worldgen.World {
	t.Helper()
	cfg := worldgen.SmallConfig(seed)
	cfg.Provenance = true
	w, err := worldgen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestExplainChain checks the structural contract of a decision chain: the
// path starts at the client, ends at the deployment, hops hand off city to
// city, and every hop carries provenance.
func TestExplainChain(t *testing.T) {
	w := provWorld(t, 5)
	dep := w.Imperva.IM6
	probes := w.Platform.Retained()
	checked := 0
	for _, p := range probes[:50] {
		region, ok := dep.RegionForCountry(p.Country)
		if !ok {
			continue
		}
		exp, err := ExplainFrom(w.Engine, p.ASN, p.City, region.Prefix)
		if err != nil {
			continue // group has no route; covered by catchment tests
		}
		checked++
		if len(exp.Hops) == 0 {
			t.Fatalf("%s: empty hop chain", p.GroupKey())
		}
		if exp.Hops[0].ASN != p.ASN {
			t.Fatalf("%s: chain starts at %s, not the client", p.GroupKey(), exp.Hops[0].ASN)
		}
		if last := exp.Hops[len(exp.Hops)-1]; last.ASN != dep.ASN {
			t.Fatalf("%s: chain ends at %s, not the deployment %s", p.GroupKey(), last.ASN, dep.ASN)
		}
		for i := 1; i < len(exp.Hops); i++ {
			if exp.Hops[i].Entry != exp.Hops[i-1].Handoff {
				t.Fatalf("%s: hop %d enters at %s but previous hop hands off at %s",
					p.GroupKey(), i, exp.Hops[i].Entry, exp.Hops[i-1].Handoff)
			}
		}
		for i, h := range exp.Hops {
			if !h.HasProv {
				t.Fatalf("%s: hop %d (%s) has no provenance", p.GroupKey(), i, h.ASN)
			}
		}
		if exp.Hops[len(exp.Hops)-1].Handoff != exp.SiteCity {
			t.Fatalf("%s: final handoff %s != site city %s", p.GroupKey(), exp.Hops[len(exp.Hops)-1].Handoff, exp.SiteCity)
		}
	}
	if checked == 0 {
		t.Fatal("no probe produced an explanation")
	}
}

// TestCaptureClassifiesEveryGroup: every served group gets a pathology
// class, inefficient groups are never classified Efficient, and
// ExplainCatchment agrees with the captured view of every group.
func TestCaptureClassifiesEveryGroup(t *testing.T) {
	w := provWorld(t, 5)
	set, err := Capture(w.Engine, w.Imperva.IM6, w.Measurer, w.Platform.Retained())
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Groups) == 0 {
		t.Fatal("empty capture")
	}
	byClass := map[Pathology]int{}
	for _, g := range set.Groups {
		if g.Class == "" {
			t.Fatalf("%s: no pathology class", g.Group)
		}
		byClass[g.Class]++
		if g.Served && g.InflationMs > InflationThresholdMs && g.Class == Efficient {
			t.Fatalf("%s: inflated %.1f ms but classified efficient", g.Group, g.InflationMs)
		}
		if g.Served && g.InflationMs <= InflationThresholdMs && g.Class != Efficient {
			t.Fatalf("%s: inflation %.1f ms under threshold but classified %s", g.Group, g.InflationMs, g.Class)
		}
	}
	if byClass[Efficient] == 0 {
		t.Fatal("no group classified efficient")
	}
	// The explain query classifies from the same hop records as the
	// capture, so it must agree with every view.
	for _, g := range set.Groups {
		ce, err := ExplainCatchment(w.Engine, w.Imperva.IM6, w.Measurer, w.Platform.Retained(), g.Group)
		if err != nil {
			t.Fatal(err)
		}
		if ce.Served != g.Served || ce.Site != g.Site || ce.RTTMs != g.RTTMs || ce.InflationMs != g.InflationMs || ce.Class != g.Class {
			t.Fatalf("%s: explained %v %q %.3f ms %.3f ms %s, captured %v %q %.3f ms %.3f ms %s", g.Group,
				ce.Served, ce.Site, ce.RTTMs, ce.InflationMs, ce.Class, g.Served, g.Site, g.RTTMs, g.InflationMs, g.Class)
		}
	}
	if byClass[PolicyOverGeography]+byClass[HotPotatoEgress]+byClass[NoRegionalRoute] == 0 {
		t.Fatal("no inefficiency found — the paper's pathologies should appear in the small world")
	}
}

// TestHopRecordCompact pins a view's per-hop record at 16 bytes or less
// and free of pointers, so the hop slices the retained captures hold are
// small and never scanned by the GC.
func TestHopRecordCompact(t *testing.T) {
	f, ok := reflect.TypeOf(GroupView{}).FieldByName("hops")
	if !ok || f.Type != reflect.TypeOf([]hop(nil)) {
		t.Fatalf("GroupView.hops is %v, want []hop", f.Type)
	}
	if got := unsafe.Sizeof(hop{}); got > 16 {
		t.Fatalf("sizeof(hop) = %d bytes, want <= 16", got)
	}
	// Bool through Complex128 are the scalar kinds: no field may be a
	// string, slice, map, pointer, interface or composite.
	ty := reflect.TypeOf(hop{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); f.Type.Kind() < reflect.Bool || f.Type.Kind() > reflect.Complex128 {
			t.Fatalf("hop.%s (%v) is not a scalar", f.Name, f.Type)
		}
	}
}

// TestCaptureDeterministic: identical worlds render identical JSON captures
// and explanations.
func TestCaptureDeterministic(t *testing.T) {
	w1 := provWorld(t, 9)
	w2 := provWorld(t, 9)
	s1, err := Capture(w1.Engine, w1.Imperva.IM6, w1.Measurer, w1.Platform.Retained())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Capture(w2.Engine, w2.Imperva.IM6, w2.Measurer, w2.Platform.Retained())
	if err != nil {
		t.Fatal(err)
	}
	j1, err := JSON(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := JSON(s2)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("captures of identical worlds differ")
	}
	g := s1.Groups[0].Group
	e1, err := ExplainCatchment(w1.Engine, w1.Imperva.IM6, w1.Measurer, w1.Platform.Retained(), g)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ExplainCatchment(w2.Engine, w2.Imperva.IM6, w2.Measurer, w2.Platform.Retained(), g)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Text() != e2.Text() {
		t.Fatal("explanations of identical worlds differ")
	}

	// Only the canonical spelling of a group key names the group.
	p := w1.Platform.Retained()[0]
	num := strconv.FormatUint(uint64(p.ASN), 10)
	if _, err := ExplainCatchment(w1.Engine, w1.Imperva.IM6, w1.Measurer, w1.Platform.Retained(), p.City+"|"+num); err != nil {
		t.Fatalf("canonical key: %v", err)
	}
	for _, key := range []string{
		p.City + "|0" + num,
		p.City + "|+" + num,
		"|" + num,
		p.City + "|",
		p.City + "|" + num + "|x",
		p.City + "|" + strconv.FormatUint(uint64(p.ASN)+1<<32, 10),
	} {
		if _, err := ExplainCatchment(w1.Engine, w1.Imperva.IM6, w1.Measurer, w1.Platform.Retained(), key); err == nil {
			t.Errorf("non-canonical key %q explained a group", key)
		}
	}
}

// TestDiffAttributesEveryMove withdraws a site and checks that the diff
// attributes a cause to 100% of moved groups, that groups leaving the
// withdrawn site are attributed to the withdrawal, and that the restore
// diff flows back.
func TestDiffAttributesEveryMove(t *testing.T) {
	w := provWorld(t, 5)
	dep := w.Imperva.IM6
	probes := w.Platform.Retained()
	before, err := Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	// Withdraw the busiest site of the first region.
	prefix := dep.Regions[0].Prefix
	anns := w.Engine.Announcements(prefix)
	if len(anns) < 2 {
		t.Fatalf("region %s has %d sites, need >= 2", dep.Regions[0].Name, len(anns))
	}
	site := anns[0].Site
	if err := w.Engine.WithdrawSite(prefix, site); err != nil {
		t.Fatal(err)
	}
	after, err := Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if d.Moved == 0 {
		t.Fatalf("withdrawing %s moved no groups", site)
	}
	attributed := 0
	for _, m := range d.Moves {
		if m.Cause == "" {
			t.Fatalf("%s: move without a cause", m.Group)
		}
		attributed++
		if m.FromSite == site && m.Cause != CauseSiteWithdrawn {
			t.Fatalf("%s: left withdrawn site %s but cause is %s", m.Group, site, m.Cause)
		}
	}
	if attributed != d.Moved {
		t.Fatalf("attributed %d of %d moves", attributed, d.Moved)
	}
	// Restore and diff back: the returning groups are attributed to the
	// restored site.
	if err := w.Engine.AnnounceSite(prefix, anns[0]); err != nil {
		t.Fatal(err)
	}
	restored, err := Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Diff(after, restored)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range back.Moves {
		if m.ToSite == site && m.Cause != CauseSiteRestored {
			t.Fatalf("%s: moved to restored site %s but cause is %s", m.Group, site, m.Cause)
		}
	}
	// Full cycle restores the original capture bit for bit.
	jBefore, _ := JSON(before)
	jRestored, _ := JSON(restored)
	if jBefore != jRestored {
		t.Fatal("withdraw+restore did not return to the original catchment state")
	}
}

// TestDiffTraces checks header gating and divergence detection.
func TestDiffTraces(t *testing.T) {
	mk := func(seed int64, world string, events ...obs.Event) *bytes.Buffer {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		tr.WriteHeader(obs.NewTraceHeader(seed, world))
		for _, ev := range events {
			tr.Emit(ev)
		}
		return &buf
	}
	evA := obs.Event{Scope: "bgp", Name: "announce", Clock: []obs.Coord{{Key: "op", V: 1}}}
	evB := obs.Event{Scope: "bgp", Name: "withdraw", Clock: []obs.Coord{{Key: "op", V: 1}}}

	d, err := DiffTraces(mk(7, "w1", evA, evB), mk(7, "w1", evA, evB))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Identical || d.EventsA != 2 || d.EventsB != 2 {
		t.Fatalf("identical traces: %+v", d)
	}
	d, err = DiffTraces(mk(7, "w1", evA, evA), mk(7, "w1", evA, evB))
	if err != nil {
		t.Fatal(err)
	}
	if d.Identical || d.FirstDivergence != 2 {
		t.Fatalf("divergence not found: %+v", d)
	}
	if _, err := DiffTraces(mk(7, "w1"), mk(8, "w1")); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	if _, err := DiffTraces(mk(7, "w1"), mk(7, "w2")); err == nil {
		t.Fatal("world hash mismatch accepted")
	}
	if _, err := DiffTraces(strings.NewReader("{}\n"), mk(7, "w1")); err == nil {
		t.Fatal("headerless trace accepted")
	}
}
