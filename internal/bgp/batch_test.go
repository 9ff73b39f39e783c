package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"anysim/internal/policy"
	"anysim/internal/topo"
)

// batchWorld is the generated CDN world with provenance on and the CDN's
// sites spread over three prefixes: pfxGlobal from every site, pfxUS from
// two, pfxEU from one, so withdrawing a site can take a prefix dark.
func batchWorld(t *testing.T, seed int64) (*topo.Topology, *Engine, map[netip.Prefix][]SiteAnnouncement) {
	t.Helper()
	tp, e, anns := provWorld(t, seed)
	plan := map[netip.Prefix][]SiteAnnouncement{
		pfxGlobal: anns,
		pfxUS:     {anns[0], anns[1]},
		pfxEU:     {anns[1]},
	}
	for _, p := range []netip.Prefix{pfxUS, pfxEU} {
		if err := e.Announce(p, plan[p]); err != nil {
			t.Fatal(err)
		}
	}
	return tp, e, plan
}

// routingView is an engine's complete routing state: per prefix, the rib
// table, its provenance and the announcement order.
type routingView struct {
	ribs map[netip.Prefix]ribTable
	prov map[netip.Prefix]provTable
	anns map[netip.Prefix][]SiteAnnouncement
}

func viewOf(e *Engine) routingView {
	v := routingView{ribs: map[netip.Prefix]ribTable{}, prov: map[netip.Prefix]provTable{}, anns: map[netip.Prefix][]SiteAnnouncement{}}
	for _, p := range e.Prefixes() {
		v.ribs[p] = snapshotRibs(e, p)
		v.prov[p] = e.provFor(p)
		v.anns[p] = e.Announcements(p)
	}
	return v
}

func requireViewsEqual(t *testing.T, label string, e *Engine, got, want routingView) {
	t.Helper()
	if len(got.anns) != len(want.anns) {
		t.Fatalf("%s: %d prefixes, want %d", label, len(got.anns), len(want.anns))
	}
	for p, wa := range want.anns {
		if ga := got.anns[p]; !slices.EqualFunc(ga, wa, annEqual) {
			t.Fatalf("%s: %s announcements %+v, want %+v", label, p, ga, wa)
		}
		if asn, ok := ribsEqual(e, got.ribs[p], want.ribs[p]); !ok {
			t.Fatalf("%s: %s rib of %s differs", label, p, asn)
		}
		if asn, ok := provTablesEqual(e, got.prov[p], want.prov[p]); !ok {
			t.Fatalf("%s: %s provenance of %s differs", label, p, asn)
		}
	}
}

// batchOp is one routing event of the batch property test: a site change
// on every prefix the site is planned on, or link state changes.
type batchOp struct {
	name     string
	withdraw []netip.Prefix // withdraw the site here first
	announce map[netip.Prefix]SiteAnnouncement
	site     string
	links    map[int]bool
}

// engineOps is how many one-at-a-time engine operations the op costs.
func (op batchOp) engineOps() int {
	n := len(op.withdraw) + len(op.announce)
	if len(op.links) > 0 {
		n++
	}
	return n
}

// sequential applies the op through the one-at-a-time API.
func (op batchOp) sequential(tp *topo.Topology, e *Engine) error {
	for _, p := range op.withdraw {
		if err := e.WithdrawSite(p, op.site); err != nil {
			return err
		}
	}
	for _, p := range sortedPrefixes(op.announce) {
		if err := e.AnnounceSite(p, op.announce[p]); err != nil {
			return err
		}
	}
	var changed []int
	for li, on := range op.links {
		if tp.LinkEnabled(li) != on {
			tp.SetLinkEnabled(li, on)
			changed = append(changed, li)
		}
	}
	return e.ReconvergeLinks(changed)
}

// stage stages the op on a batch.
func (op batchOp) stage(b *Batch) error {
	for _, p := range op.withdraw {
		if err := b.WithdrawSite(p, op.site); err != nil {
			return err
		}
	}
	for _, p := range sortedPrefixes(op.announce) {
		if err := b.AnnounceSite(p, op.announce[p]); err != nil {
			return err
		}
	}
	for li, on := range op.links {
		if err := b.SetLink(li, on); err != nil {
			return err
		}
	}
	return nil
}

func sortedPrefixes(m map[netip.Prefix]SiteAnnouncement) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b netip.Prefix) int { return a.Addr().Compare(b.Addr()) })
	return out
}

// opGen draws valid random ops, tracking which sites are up and which
// links are down. The candidate links are the CDN's uplinks, a few
// mid-graph links, and one IXP's links, so faults overlap.
type opGen struct {
	rng   *rand.Rand
	plan  map[netip.Prefix][]SiteAnnouncement
	sites []string
	down  map[string]bool
	links []int
	ixp   []int
	tp    *topo.Topology
}

func newOpGen(seed int64, tp *topo.Topology, plan map[netip.Prefix][]SiteAnnouncement) *opGen {
	g := &opGen{rng: rand.New(rand.NewSource(seed)), plan: plan, down: map[string]bool{}, tp: tp}
	for _, a := range plan[pfxGlobal] {
		g.sites = append(g.sites, a.Site)
		g.links = append(g.links, tp.LinksOf(a.Origin)...)
	}
	for i, l := range tp.Links() {
		if l.IXP != "" && g.ixp == nil {
			g.ixp = tp.LinksOfIXP(l.IXP)
			g.links = append(g.links, g.ixp[0])
		}
		if l.Type == topo.CustomerToProvider && i%97 == 0 {
			g.links = append(g.links, i)
		}
	}
	return g
}

// prefixesOf returns the planned prefixes of a site, in sorted order.
func (g *opGen) prefixesOf(site string) []netip.Prefix {
	var out []netip.Prefix
	for p, anns := range g.plan {
		if _, ok := findSite(anns, site); ok {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b netip.Prefix) int { return a.Addr().Compare(b.Addr()) })
	return out
}

// announce returns a site's planned announcements with the given prepend.
func (g *opGen) announce(site string, prepend int) map[netip.Prefix]SiteAnnouncement {
	m := map[netip.Prefix]SiteAnnouncement{}
	for _, p := range g.prefixesOf(site) {
		a, _ := findSite(g.plan[p], site)
		a.Prepend = prepend
		m[p] = a
	}
	return m
}

// reannounce is a flap of an up site: withdraw and restore.
func (g *opGen) reannounce(site string) batchOp {
	return batchOp{name: "reannounce " + site, site: site, withdraw: g.prefixesOf(site), announce: g.announce(site, 0)}
}

func (g *opGen) next() batchOp {
	site := g.sites[g.rng.Intn(len(g.sites))]
	ps := g.prefixesOf(site)
	announce := func(prepend int) map[netip.Prefix]SiteAnnouncement { return g.announce(site, prepend) }
	switch k := g.rng.Intn(6); {
	case k == 0 && !g.down[site]:
		g.down[site] = true
		return batchOp{name: "site-down " + site, site: site, withdraw: ps}
	case k == 0 || k == 1 && g.down[site]:
		g.down[site] = false
		return batchOp{name: "site-up " + site, site: site, announce: announce(0)}
	case k == 1:
		return g.reannounce(site)
	case k == 2 && !g.down[site]:
		return batchOp{name: "prepend " + site, site: site, announce: announce(g.rng.Intn(3))}
	case k == 3:
		on := !g.tp.LinkEnabled(g.ixp[0])
		links := map[int]bool{}
		for _, li := range g.ixp {
			links[li] = on
		}
		return batchOp{name: "ixp", links: links}
	default:
		li := g.links[g.rng.Intn(len(g.links))]
		return batchOp{name: "link", links: map[int]bool{li: !g.tp.LinkEnabled(li)}}
	}
}

// TestBatchMatchesSequential is the batch ingest property test: a random
// body of 1-20 site down/up, re-announcement, prepend, link and IXP events
// staged and applied as one batch leaves ribs, provenance and announcement
// order bit-identical to applying the events one at a time. Bodies overlap
// faults, cancel pairs, and take prefixes dark and back. A one-op body also
// reconverges with the same stats as the op alone.
func TestBatchMatchesSequential(t *testing.T) {
	for _, seed := range []int64{11, 23} {
		tp, e, plan := batchWorld(t, seed)
		gen := newOpGen(seed, tp, plan)
		sawDark := false
		for body := 0; body < 40; body++ {
			n := 1 + gen.rng.Intn(20)
			if body%4 == 0 || body%10 == 5 {
				n = 1
			}
			ops := make([]batchOp, n)
			flap := body%10 == 5 && !gen.down["iad"]
			for i := range ops {
				if flap {
					ops[i] = gen.reannounce("iad")
				} else {
					ops[i] = gen.next()
				}
			}
			snap := e.Fork()
			disabled := tp.DisabledLinks()

			for _, op := range ops {
				if err := op.sequential(tp, e); err != nil {
					t.Fatalf("seed %d body %d: sequential %s: %v", seed, body, op.name, err)
				}
			}
			want, wantStats, wantDisabled := viewOf(e), e.LastReconvergeStats(), tp.DisabledLinks()

			setDisabled(t, tp, disabled)
			if err := e.ResetTo(snap); err != nil {
				t.Fatal(err)
			}
			b := e.NewBatch()
			for _, op := range ops {
				if err := op.stage(b); err != nil {
					t.Fatalf("seed %d body %d: stage %s: %v", seed, body, op.name, err)
				}
			}
			if err := e.ApplyBatch(b); err != nil {
				t.Fatalf("seed %d body %d: batch: %v", seed, body, err)
			}
			label := fmt.Sprintf("seed %d body %d (%d ops from %s)", seed, body, len(ops), ops[0].name)
			requireViewsEqual(t, label, e, viewOf(e), want)
			if got := tp.DisabledLinks(); !slices.Equal(got, wantDisabled) {
				t.Fatalf("%s: disabled links %v, want %v", label, got, wantDisabled)
			}
			if n == 1 && ops[0].engineOps() == 1 {
				if got := e.LastReconvergeStats(); got != wantStats {
					t.Fatalf("%s: one-op batch stats %+v, want %+v", label, got, wantStats)
				}
			}
			if flap {
				// A flap only moves the site to the end of each slice.
				if got := e.LastReconvergeStats(); got != (ReconvergeStats{}) {
					t.Fatalf("%s: a flap reconverged: %+v", label, got)
				}
			}
			sawDark = sawDark || len(e.Announcements(pfxEU)) == 0
		}
		if !sawDark {
			t.Errorf("seed %d: no body took a prefix dark", seed)
		}
	}
}

// setDisabled sets the topology's failed links to exactly the given set.
func setDisabled(t *testing.T, tp *topo.Topology, disabled []int) {
	t.Helper()
	for _, li := range tp.DisabledLinks() {
		if err := tp.SetLinkEnabled(li, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, li := range disabled {
		if err := tp.SetLinkEnabled(li, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchErrorChangesNothing: a batch that fails to stage is never
// applied, and staging itself mutates nothing.
func TestBatchErrorChangesNothing(t *testing.T) {
	tp, e, _ := batchWorld(t, 11)
	before := viewOf(e)
	b := e.NewBatch()
	if err := b.WithdrawSite(pfxEU, "fra"); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLink(0, false); err != nil {
		t.Fatal(err)
	}
	if err := b.WithdrawSite(pfxEU, "fra"); err == nil {
		t.Fatal("second withdrawal of a staged-away site succeeded")
	}
	if err := b.SetLink(len(tp.Links()), false); err == nil {
		t.Fatal("SetLink out of range succeeded")
	}
	if err := b.AnnounceSite(pfxEU, SiteAnnouncement{Origin: topo.CDNBase, Site: "x", City: "NRT"}); err == nil {
		t.Fatal("AnnounceSite at an absent city succeeded")
	}
	requireViewsEqual(t, "staged", e, viewOf(e), before)
	if len(tp.DisabledLinks()) != 0 {
		t.Fatalf("staging disabled links %v", tp.DisabledLinks())
	}
}

// TestAnnouncementOrderInvariant proves what lets a batch install a
// reordered announcement slice without reconverging: converging any
// permutation of an announcement set yields identical ribs and provenance,
// with and without a policy layer.
func TestAnnouncementOrderInvariant(t *testing.T) {
	pol := policy.MustParse("policy tag\nimport -> tag-metro\n")
	for _, withPolicy := range []bool{false, true} {
		for _, seed := range []int64{11, 23} {
			_, e, anns := provWorld(t, seed)
			if withPolicy {
				e.SetPolicy(pol)
				anns = policyTestAnnouncements(anns, t)
			}
			anns[2].Prepend = 1
			var ref routingView
			for i, perm := range permutations(anns) {
				if err := e.Announce(pfxGlobal, perm); err != nil {
					t.Fatal(err)
				}
				v := viewOf(e)
				if i == 0 {
					ref = v
					continue
				}
				// Announcement order differs by construction; routing must not.
				v.anns = ref.anns
				requireViewsEqual(t, "permutation", e, v, ref)
			}
		}
	}
}

// permutations returns every ordering of a small slice.
func permutations(s []SiteAnnouncement) [][]SiteAnnouncement {
	if len(s) <= 1 {
		return [][]SiteAnnouncement{slices.Clone(s)}
	}
	var out [][]SiteAnnouncement
	for i := range s {
		rest := slices.Delete(slices.Clone(s), i, i+1)
		for _, p := range permutations(rest) {
			out = append(out, append([]SiteAnnouncement{s[i]}, p...))
		}
	}
	return out
}
