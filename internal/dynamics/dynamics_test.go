package dynamics

import (
	"reflect"
	"testing"

	"anysim/internal/bgp"
	"anysim/internal/obs/ts"
	"anysim/internal/topo"
	"anysim/internal/worldgen"
)

var smallWorld = func() func(t *testing.T) *worldgen.World {
	var cached *worldgen.World
	return func(t *testing.T) *worldgen.World {
		t.Helper()
		if cached == nil {
			w, err := worldgen.Small(7)
			if err != nil {
				t.Fatal(err)
			}
			cached = w
		}
		return cached
	}
}()

func TestGenerateDeterminism(t *testing.T) {
	w := smallWorld(t)
	cfg := GenConfig{Seed: 42, Faults: 12}
	a, err := Generate(cfg, w.Topo, w.Imperva.IM6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, w.Topo, w.Imperva.IM6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different scenarios:\n%s\nvs\n%s", a, b)
	}
	c, err := Generate(GenConfig{Seed: 43, Faults: 12}, w.Topo, w.Imperva.IM6)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical scenarios")
	}
	if len(a.Events) == 0 {
		t.Fatal("generator produced no events")
	}
	// Every outage must have a matching repair so scenarios self-restore.
	downs, ups := 0, 0
	for _, ev := range a.Events {
		switch ev.Kind {
		case SiteDown, LinkDown, IXPDown:
			downs++
		case SiteUp, LinkUp, IXPUp:
			ups++
		}
	}
	if downs != ups {
		t.Fatalf("unpaired faults: %d downs vs %d ups", downs, ups)
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	text := `scenario failover-demo
# take the Frankfurt site out, then a backbone link, then an IXP
at 1 site-down fra
at 3 link-down 3356 6461
at 5 ixp-down IX-FRA
at 7 reannounce ams
at 10 site-up fra
at 12 link-up 3356 6461
at 14 ixp-up IX-FRA
`
	sc, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "failover-demo" || len(sc.Events) != 7 {
		t.Fatalf("parsed %q with %d events", sc.Name, len(sc.Events))
	}
	if ev := sc.Events[1]; ev.Kind != LinkDown || ev.A != 3356 || ev.B != 6461 || ev.At != 3 {
		t.Fatalf("link event parsed as %+v", ev)
	}
	sc2, err := ParseString(sc.String())
	if err != nil {
		t.Fatalf("re-parsing serialized scenario: %v", err)
	}
	if !reflect.DeepEqual(sc, sc2) {
		t.Fatalf("round-trip mismatch:\n%s\nvs\n%s", sc, sc2)
	}

	// Generator output must round-trip too.
	w := smallWorld(t)
	gen, err := Generate(GenConfig{Seed: 5, Faults: 8}, w.Topo, w.Imperva.IM6)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := ParseString(gen.String())
	if err != nil {
		t.Fatalf("re-parsing generated scenario: %v", err)
	}
	if gen.String() != gen2.String() {
		t.Fatalf("generated scenario does not round-trip:\n%s\nvs\n%s", gen, gen2)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"at 1 site-down x\n",                       // no header
		"scenario a\nscenario b\n",                 // duplicate header
		"scenario a\nat -1 site-down x\n",          // negative tick
		"scenario a\nat 1 warp-core-breach x\n",    // unknown kind
		"scenario a\nat 1 link-down 12\n",          // missing ASN
		"scenario a\nat 1 link-down twelve 13\n",   // non-numeric ASN
		"scenario a\nat 1 site-down\n",             // missing site
		"scenario a\nwibble 1 site-down x\n",       // unknown directive
		"scenario a\nat 1 site-down x extra-arg\n", // trailing junk
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("accepted invalid scenario %q", bad)
		}
	}
}

// TestScenarioSelfRestores drives a mixed scenario end to end on the small
// world and checks the paired events return every catchment to its initial
// state, with real churn along the way.
func TestScenarioSelfRestores(t *testing.T) {
	w := smallWorld(t)
	r := NewRunner(w.Engine, w.Imperva.IM6)
	before := r.Snapshot()

	gen, err := Generate(GenConfig{Seed: 9, Faults: 8}, w.Topo, w.Imperva.IM6)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := r.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("scenario produced no steps")
	}
	churned := false
	for _, st := range steps {
		if st.Churn.ChangedFraction() > 0 {
			churned = true
		}
	}
	if !churned {
		t.Error("no event moved any catchment")
	}
	after := r.Snapshot()
	if !reflect.DeepEqual(before, after) {
		t.Fatal("catchments not restored after self-restoring scenario")
	}
	if len(w.Topo.DisabledLinks()) != 0 {
		t.Fatalf("links left disabled: %v", w.Topo.DisabledLinks())
	}
}

// TestRunnerErrors exercises the failure paths of Apply.
func TestRunnerErrors(t *testing.T) {
	w := smallWorld(t)
	r := NewRunner(w.Engine, w.Imperva.IM6)
	for _, ev := range []Event{
		{Kind: SiteDown, Site: "nope"},
		{Kind: SiteUp, Site: "nope"},
		{Kind: LinkDown, A: 1, B: 2},
		{Kind: IXPDown, IXP: "IX-NOPE"},
		{Kind: Kind(99)},
	} {
		if err := r.Apply(ev); err == nil {
			t.Errorf("Apply(%+v) succeeded", ev)
		}
	}
	// A flight recording needs the evaluator behind its load plane.
	r.Series = ts.New(ts.Config{})
	if _, err := r.Run(&Scenario{Name: "x"}); err == nil {
		t.Error("Run with Series and no Eval succeeded")
	}
}

// fullReference recomputes routing for every prefix of the runner's
// deployment on a fresh engine over the same topology (sharing link up/down
// state) and returns its catchments.
func fullReference(t *testing.T, r *Runner, tp *topo.Topology) Snapshot {
	t.Helper()
	ref := bgp.NewEngine(tp)
	out := make(Snapshot, len(r.Prefixes()))
	for _, p := range r.Prefixes() {
		anns := r.Engine.Announcements(p)
		if len(anns) == 0 {
			out[p] = map[topo.ASN]string{}
			continue
		}
		if err := ref.Announce(p, anns); err != nil {
			t.Fatalf("reference announce %s: %v", p, err)
		}
		out[p] = ref.Catchments(p)
	}
	return out
}

func requireSnapshotsEqual(t *testing.T, event string, got, want Snapshot) {
	t.Helper()
	for p, wm := range want {
		gm := got[p]
		if len(gm) != len(wm) {
			t.Fatalf("%s: prefix %s: %d ASes with routes incrementally vs %d fully", event, p, len(gm), len(wm))
		}
		for asn, site := range wm {
			if gm[asn] != site {
				t.Fatalf("%s: prefix %s: AS %d served by %q incrementally, %q fully", event, p, asn, gm[asn], site)
			}
		}
	}
}

// TestIncrementalMatchesFullDefaultWorld is the acceptance property test:
// on the default (paper-scale) world, incremental reconvergence must
// produce catchments identical to a from-scratch recompute for at least
// three distinct event types.
func TestIncrementalMatchesFullDefaultWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("default world is expensive; skipped in -short mode")
	}
	w, err := worldgen.Default()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(w.Engine, w.Imperva.IM6)
	site := w.Imperva.IM6.Sites[0].ID

	li := -1
	for i, l := range w.Topo.Links() {
		if l.Type != topo.CustomerToProvider {
			continue
		}
		if w.Topo.MustAS(l.A).Tier == topo.Tier2 && w.Topo.MustAS(l.B).Tier == topo.Tier1 {
			li = i
			break
		}
	}
	if li < 0 {
		t.Fatal("no tier-2 transit link in default world")
	}
	l := w.Topo.Links()[li]
	ixp := ""
	for _, lk := range w.Topo.Links() {
		if lk.IXP != "" {
			ixp = lk.IXP
			break
		}
	}
	if ixp == "" {
		t.Fatal("no IXP links in default world")
	}

	events := []Event{
		{At: 1, Kind: SiteDown, Site: site},
		{At: 2, Kind: SiteUp, Site: site},
		{At: 3, Kind: LinkDown, A: l.A, B: l.B},
		{At: 4, Kind: LinkUp, A: l.A, B: l.B},
		{At: 5, Kind: IXPDown, IXP: ixp},
		{At: 6, Kind: IXPUp, IXP: ixp},
	}
	for _, ev := range events {
		if err := r.Apply(ev); err != nil {
			t.Fatalf("%s: %v", ev, err)
		}
		requireSnapshotsEqual(t, ev.String(), r.Snapshot(), fullReference(t, r, w.Topo))
	}
}

// TestProbeAnalyses checks the probe-level churn and failover-penalty
// machinery on a site outage.
func TestProbeAnalyses(t *testing.T) {
	w := smallWorld(t)
	r := NewRunner(w.Engine, w.Imperva.IM6)
	r.Measurer = w.Measurer
	r.Probes = w.Platform.Retained()

	pre := r.ProbeViews()
	if len(pre) != len(r.Probes) {
		t.Fatalf("%d views for %d probes", len(pre), len(r.Probes))
	}
	served := 0
	for _, v := range pre {
		if v.OK {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no probe served before the event")
	}

	// Withdraw the site serving the most probes to guarantee churn.
	bySite := map[string]int{}
	for _, v := range pre {
		if v.OK {
			bySite[v.Site]++
		}
	}
	site, best := "", 0
	for s, n := range bySite {
		if n > best || (n == best && s < site) {
			site, best = s, n
		}
	}
	if err := r.Apply(Event{Kind: SiteDown, Site: site}); err != nil {
		t.Fatal(err)
	}
	post := r.ProbeViews()
	changed, total := r.GroupChurn(pre, post)
	if total == 0 || changed == 0 {
		t.Fatalf("group churn %d/%d after withdrawing busiest site %s", changed, total, site)
	}
	pens := Penalties(pre, post)
	if len(pens) == 0 {
		t.Fatalf("no failover penalties after withdrawing %s", site)
	}
	if err := r.Apply(Event{Kind: SiteUp, Site: site}); err != nil {
		t.Fatal(err)
	}
	restored := r.ProbeViews()
	if !reflect.DeepEqual(pre, restored) {
		t.Fatal("probe views not restored after site restore")
	}
}
