package dynamics

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"anysim/internal/bgp"
	"anysim/internal/geo"
	"anysim/internal/topo"
	"anysim/internal/worldgen"
)

// runnerState is everything a batch of events can change: per prefix the
// announcement order and every AS's routes and decision record, the failed
// links, and the flash crowds.
type runnerState struct {
	anns     map[netip.Prefix][]bgp.SiteAnnouncement
	routes   map[netip.Prefix][][]bgp.Route // per AS (ASList order), classes concatenated
	prov     map[netip.Prefix][]bgp.Provenance
	disabled []int
	flash    map[geo.Area]float64
}

func stateOf(r *Runner) runnerState {
	e, tp := r.Engine, r.Engine.Topology()
	st := runnerState{
		anns:     map[netip.Prefix][]bgp.SiteAnnouncement{},
		routes:   map[netip.Prefix][][]bgp.Route{},
		prov:     map[netip.Prefix][]bgp.Provenance{},
		disabled: tp.DisabledLinks(),
		flash:    r.ActiveFlash(),
	}
	for _, p := range r.Prefixes() {
		st.anns[p] = e.Announcements(p)
		for _, asn := range tp.ASList() {
			var rs []bgp.Route
			for c := bgp.FromOrigin; c <= bgp.FromProvider; c++ {
				rs = append(rs, e.RoutesByClass(p, asn, c)...)
			}
			pv, _ := e.Provenance(p, asn)
			st.routes[p] = append(st.routes[p], rs)
			st.prov[p] = append(st.prov[p], pv)
		}
	}
	return st
}

// eventGen draws valid random events for a deployment, tracking what is
// down, so faults overlap (an IXP outage over a failed member link, a site
// down across several prefixes) and repairs land in the same body.
type eventGen struct {
	rng   *rand.Rand
	sites []string
	links [][2]topo.ASN
	ixps  []string
	down  map[string]bool // site IDs, "link i", IXP IDs
	flash map[geo.Area]bool
}

func newEventGen(seed int64, w *worldgen.World) *eventGen {
	g := &eventGen{rng: rand.New(rand.NewSource(seed)), down: map[string]bool{}, flash: map[geo.Area]bool{}}
	for _, s := range w.Imperva.IM6.Sites {
		g.sites = append(g.sites, s.ID)
	}
	slices.Sort(g.sites)
	g.ixps = []string{w.Topo.IXPs()[0].ID, w.Topo.IXPs()[1].ID}
	for _, id := range g.ixps {
		for _, li := range w.Topo.LinksOfIXP(id)[:2] {
			l := w.Topo.Links()[li]
			g.links = append(g.links, [2]topo.ASN{l.A, l.B})
		}
	}
	for _, li := range w.Topo.LinksOf(w.Imperva.IM6.ASN)[:4] {
		l := w.Topo.Links()[li]
		g.links = append(g.links, [2]topo.ASN{l.A, l.B})
	}
	return g
}

func (g *eventGen) next(at int) Event {
	toggle := func(key string, down, up Kind) Kind {
		g.down[key] = !g.down[key]
		if g.down[key] {
			return down
		}
		return up
	}
	switch g.rng.Intn(5) {
	case 0:
		site := g.sites[g.rng.Intn(len(g.sites))]
		if !g.down[site] && g.rng.Intn(3) == 0 {
			return Event{At: at, Kind: Reannounce, Site: site}
		}
		return Event{At: at, Kind: toggle(site, SiteDown, SiteUp), Site: site}
	case 1, 2:
		i := g.rng.Intn(len(g.links))
		l := g.links[i]
		return Event{At: at, Kind: toggle(fmt.Sprint("link ", i), LinkDown, LinkUp), A: l[0], B: l[1]}
	case 3:
		ixp := g.ixps[g.rng.Intn(len(g.ixps))]
		return Event{At: at, Kind: toggle(ixp, IXPDown, IXPUp), IXP: ixp}
	default:
		area := []geo.Area{geo.EMEA, geo.NA}[g.rng.Intn(2)]
		g.flash[area] = !g.flash[area]
		if g.flash[area] {
			return Event{At: at, Kind: FlashBegin, Area: area, Factor: 1 + float64(g.rng.Intn(4))}
		}
		return Event{At: at, Kind: FlashEnd, Area: area}
	}
}

// TestRunnerBatchMatchesSequential: random bodies of 1-20 site down/up,
// re-announcement, link, IXP and flash-crowd events applied as one
// Runner.ApplyBatch leave announcement order, every AS's routes and
// decision record, link states and flash crowds exactly as applying the
// same events one at a time with Runner.Apply. A body that fails leaves
// everything as it was.
func TestRunnerBatchMatchesSequential(t *testing.T) {
	cfg := worldgen.SmallConfig(7)
	cfg.Provenance = true
	w, err := worldgen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewRunner(w.Engine, w.Imperva.IM6)
	bat := NewRunner(w.Engine, w.Imperva.IM6)
	gen := newEventGen(3, w)
	tick := 0
	for body := 0; body < 16; body++ {
		evs := make([]Event, 1+gen.rng.Intn(20))
		for i := range evs {
			tick++
			evs[i] = gen.next(tick)
		}
		snap, disabled := w.Engine.Fork(), w.Topo.DisabledLinks()
		for _, ev := range evs {
			if err := seq.Apply(ev); err != nil {
				t.Fatalf("body %d: sequential %s: %v", body, ev, err)
			}
		}
		want := stateOf(seq)

		for _, li := range w.Topo.DisabledLinks() {
			w.Topo.SetLinkEnabled(li, true)
		}
		for _, li := range disabled {
			w.Topo.SetLinkEnabled(li, false)
		}
		if err := w.Engine.ResetTo(snap); err != nil {
			t.Fatal(err)
		}
		before := stateOf(bat)
		bad := append(slices.Clone(evs), Event{At: tick, Kind: SiteDown, Site: "no-such-site"})
		if _, err := bat.ApplyBatch(bad); err == nil {
			t.Fatalf("body %d: a batch ending in an unknown site applied", body)
		}
		if !reflect.DeepEqual(stateOf(bat), before) {
			t.Fatalf("body %d: a failed batch changed state", body)
		}
		if _, err := bat.ApplyBatch(evs); err != nil {
			t.Fatalf("body %d: batch: %v", body, err)
		}
		if got := stateOf(bat); !reflect.DeepEqual(got, want) {
			for p := range want.anns {
				if !reflect.DeepEqual(got.anns[p], want.anns[p]) {
					t.Errorf("%s announcements %v, want %v", p, got.anns[p], want.anns[p])
				}
			}
			t.Fatalf("body %d (%d events from %s): batch state differs from sequential", body, len(evs), evs[0])
		}
	}
}
