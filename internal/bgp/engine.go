package bgp

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"anysim/internal/geo"
	"anysim/internal/policy"
	"anysim/internal/topo"
)

// MaxRoutesPerClass caps how many equally-preferred routes (distinct egress
// cities) a tier-1 AS retains per preference class. Retaining a set rather
// than a single best route lets the engine model hot-potato egress selection
// inside backbone ASes, which is what keeps global anycast from collapsing
// every tier-1's whole customer cone onto one site.
//
// Smaller networks behave like classic single-best BGP: a tier-2 keeps the
// routes of Tier2NeighborsPerClass neighbours and everyone else of exactly
// one neighbour. How neighbours are ranked depends on the operator trait
// (see capClass).
const (
	MaxRoutesPerClass      = 64
	Tier2NeighborsPerClass = 1
)

// Engine computes and stores anycast routing state for a frozen topology.
// Announce may be called for multiple prefixes; Lookup answers catchment
// queries. Announce and Lookup are safe for concurrent use. Fork snapshots
// the engine cheaply for concurrent what-if evaluation (see fork.go).
type Engine struct {
	topo *topo.Topology

	cityIdx map[string]int
	cityKm  [][]float64 // pairwise great-circle distances

	// Dense AS indexing, cached from topo.Topology.ASIndex at construction
	// for lock-free access: per-AS routing state lives in slices indexed by
	// the dense index instead of maps keyed by ASN. linkA/linkB hold each
	// link's endpoint indices so hot loops never hash an ASN.
	n            int
	asIdx        map[topo.ASN]int
	byIdx        []topo.ASN
	linkA, linkB []int32

	// eobs holds the cached observability handles (see obs.go). The zero
	// value is the disabled state; Fork copies it with the tracer stripped.
	eobs engineObs

	mu        sync.RWMutex
	ribs      map[netip.Prefix]ribTable
	anns      map[netip.Prefix][]SiteAnnouncement
	lastStats ReconvergeStats
	// hints is the failover memory of incremental reconvergence: per
	// (prefix, site), the ASes the last withdraw/restore of that site
	// touched, used to pre-seed the next operation on the same site.
	hints map[netip.Prefix]map[string]*asBits
	// provOn enables decision-provenance recording (see prov.go). The
	// records themselves live on the ribs.
	provOn bool
	// policy is the optional community/filter layer (see policy.go). nil —
	// the default — means the engine behaves exactly as it did before the
	// layer existed: no seed-time evaluation, no community pointers set.
	policy *policy.Policy
}

// ribTable is one prefix's converged routing state: the per-AS RIB, indexed
// by dense AS index. An AS with no route has a nil entry. Tables and the
// ribs they point to are immutable once installed — converge builds a fresh
// table and fresh ribs for every recomputed AS, carrying clean ASes' ribs
// over by pointer — which is what makes Fork a shallow-copy operation.
type ribTable []*rib

// rib holds one AS's routes for one prefix, bucketed by preference class,
// and, when the converge that built it recorded provenance, the decision
// record behind the selection (nil otherwise). The pointer keeps the struct
// at 128 B, the allocation size class it had without the field.
type rib struct {
	classes [FromProvider + 1][]Route
	prov    *Provenance
}

// best returns the most-preferred non-empty class and its routes.
func (r *rib) best() (RelClass, []Route, bool) {
	for c := FromOrigin; c <= FromProvider; c++ {
		if len(r.classes[c]) > 0 {
			return c, r.classes[c], true
		}
	}
	return 0, nil, false
}

// selLen returns the AS-path length of the rib's selected routes.
func (r *rib) selLen() (int, bool) {
	if _, routes, ok := r.best(); ok {
		return routes[0].Len(), true
	}
	return 0, false
}

// hasOrigin reports whether a (possibly nil) rib carries origin self routes.
func hasOrigin(r *rib) bool { return r != nil && len(r.classes[FromOrigin]) > 0 }

// NewEngine builds an engine over a topology. The topology should be frozen;
// mutating it after constructing an engine invalidates computed state.
func NewEngine(t *topo.Topology) *Engine {
	cities := geo.Cities()
	idx := make(map[string]int, len(cities))
	for i, c := range cities {
		idx[c.IATA] = i
	}
	km := make([][]float64, len(cities))
	for i := range km {
		km[i] = make([]float64, len(cities))
		for j := range km[i] {
			km[i][j] = geo.DistanceKm(cities[i].Coord, cities[j].Coord)
		}
	}
	asIdx := t.ASIndexMap()
	links := t.Links()
	la := make([]int32, len(links))
	lb := make([]int32, len(links))
	for i, l := range links {
		la[i] = int32(asIdx[l.A])
		lb[i] = int32(asIdx[l.B])
	}
	return &Engine{
		topo:    t,
		cityIdx: idx,
		cityKm:  km,
		n:       t.NumASes(),
		asIdx:   asIdx,
		byIdx:   t.ASList(),
		linkA:   la,
		linkB:   lb,
		ribs:    make(map[netip.Prefix]ribTable),
		anns:    make(map[netip.Prefix][]SiteAnnouncement),
		hints:   make(map[netip.Prefix]map[string]*asBits),
	}
}

// Topology returns the engine's topology.
func (e *Engine) Topology() *topo.Topology { return e.topo }

// linkEnds returns the dense endpoint indices of link li.
func (e *Engine) linkEnds(li int) (ai, bi int) {
	return int(e.linkA[li]), int(e.linkB[li])
}

// km returns the inter-city distance, panicking on unknown cities (which
// indicates a bug, since all cities are validated at topology build time).
func (e *Engine) km(a, b string) float64 {
	ia, okA := e.cityIdx[a]
	ib, okB := e.cityIdx[b]
	if !okA || !okB {
		panic(fmt.Sprintf("bgp: unknown city in distance query: %q, %q", a, b))
	}
	return e.cityKm[ia][ib]
}

// Announcements returns the announcements for a prefix.
func (e *Engine) Announcements(p netip.Prefix) []SiteAnnouncement {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.anns[p]
}

// Prefixes returns all announced prefixes in sorted order.
func (e *Engine) Prefixes() []netip.Prefix {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]netip.Prefix, 0, len(e.anns))
	for p := range e.anns {
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b netip.Prefix) int { return strings.Compare(a.String(), b.String()) })
	return out
}

// PrefixOf returns the announced prefix containing addr. When announced
// prefixes nest, it returns the one Prefixes lists first. It allocates
// nothing, so measurement paths can call it per probe.
func (e *Engine) PrefixOf(addr netip.Addr) (netip.Prefix, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var best netip.Prefix
	found := false
	for p := range e.anns {
		if p.Contains(addr) && (!found || prefixTextLess(p, best)) {
			best, found = p, true
		}
	}
	return best, found
}

// prefixTextLess orders prefixes as Prefixes does, by their String form,
// formatting into stack buffers.
func prefixTextLess(a, b netip.Prefix) bool {
	var ab, bb [64]byte
	return bytes.Compare(a.AppendTo(ab[:0]), b.AppendTo(bb[:0])) < 0
}

// Withdraw removes all routing state for a prefix.
func (e *Engine) Withdraw(p netip.Prefix) {
	e.mu.Lock()
	delete(e.ribs, p)
	delete(e.anns, p)
	delete(e.hints, p)
	e.mu.Unlock()
	e.eobs.withdraws.Inc()
	e.traceOp("withdraw", p, ReconvergeStats{})
}

// NonTerminationError reports that route propagation failed to reach a fixed
// point within its iteration budget — the signature of a topology bug (e.g. a
// customer-provider cycle slipping past validation), not a recoverable
// condition.
type NonTerminationError struct {
	Prefix     netip.Prefix
	Phase      int // propagation phase: 1 = customer climb, 3 = provider descent
	Iterations int
}

func (err *NonTerminationError) Error() string {
	return fmt.Sprintf("bgp: phase %d for %s failed to terminate after %d iterations",
		err.Phase, err.Prefix, err.Iterations)
}

// Announce originates a prefix from a set of anycast sites and converges
// routing for it. Calling Announce again for the same prefix replaces the
// previous announcement set.
func (e *Engine) Announce(prefix netip.Prefix, anns []SiteAnnouncement) error {
	if len(anns) == 0 {
		return fmt.Errorf("bgp: no announcements for %s", prefix)
	}
	siteIDs := map[string]bool{}
	for _, a := range anns {
		if err := e.validateAnn(prefix, a); err != nil {
			return err
		}
		if siteIDs[a.Site] {
			return fmt.Errorf("bgp: duplicate site ID %q for %s", a.Site, prefix)
		}
		siteIDs[a.Site] = true
	}

	ribs, err := e.converge(prefix, anns, nil)
	if err != nil {
		return err
	}
	st := ReconvergeStats{Dirty: ribs.populated(), Passes: 1, Full: true}
	e.install(prefix, anns, ribs, st)
	e.eobs.announces.Inc()
	e.eobs.dirty.Observe(int64(st.Dirty))
	e.traceOp("announce", prefix, st)
	return nil
}

// populated counts the ASes holding state in a table.
func (t ribTable) populated() int {
	n := 0
	for _, r := range t {
		if r != nil {
			n++
		}
	}
	return n
}

// validateAnn checks a single site announcement against the topology.
func (e *Engine) validateAnn(prefix netip.Prefix, a SiteAnnouncement) error {
	origin, ok := e.topo.AS(a.Origin)
	if !ok {
		return fmt.Errorf("bgp: announcement for %s from unknown %s", prefix, a.Origin)
	}
	if !origin.PresentIn(a.City) {
		return fmt.Errorf("bgp: %s announces %s at %s where it has no presence", a.Origin, prefix, a.City)
	}
	if a.Site == "" {
		return fmt.Errorf("bgp: announcement for %s with empty site ID", prefix)
	}
	if a.Prepend < 0 || a.Prepend > MaxPrepend {
		return fmt.Errorf("bgp: site %q announces %s with prepend %d outside [0,%d]", a.Site, prefix, a.Prepend, MaxPrepend)
	}
	if len(a.Communities) > 0 && e.policy == nil {
		return fmt.Errorf("bgp: site %q announces %s with communities but the engine has no policy layer", a.Site, prefix)
	}
	return nil
}

// install publishes a converged routing table for a prefix.
func (e *Engine) install(prefix netip.Prefix, anns []SiteAnnouncement, ribs ribTable, st ReconvergeStats) {
	e.mu.Lock()
	e.ribs[prefix] = ribs
	e.anns[prefix] = append([]SiteAnnouncement(nil), anns...)
	e.lastStats = st
	e.mu.Unlock()
}

// convergeScope restricts convergence to a dirty region for incremental
// reconvergence. dirty lists the ASes whose RIBs must be recomputed; old
// holds the previous table, carried over untouched for clean ASes and used
// as the source of boundary exports into the dirty region. A nil scope
// recomputes every AS.
type convergeScope struct {
	dirty *asBits
	old   ribTable
}

// isDirty reports whether AS index i must be recomputed; with no scope every
// AS is.
func (sc *convergeScope) isDirty(i int) bool {
	return sc == nil || sc.dirty.has(i)
}

// converge runs the three Gao-Rexford propagation phases and returns the
// per-AS RIB table. With a scope it recomputes only the dirty ASes,
// injecting the offers clean neighbours would export at the round the full
// computation delivers them: in phases 1 and 3 an offer's arrival round
// equals its AS-path length, so boundary exports can be scheduled exactly.
// Links disabled via Topology.SetLinkEnabled carry no offers in any phase.
//
// With provenance on, a recorder captures the best rejected offer per
// (AS, class) at every point an offer is suppressed or capped out, and each
// recomputed AS's rib gets a record pairing its selection with its
// runner-up. With provenance off, pr stays nil, every capture site is a
// single branch, and the ribs carry no record.
func (e *Engine) converge(prefix netip.Prefix, anns []SiteAnnouncement, sc *convergeScope) (ribTable, error) {
	var pr *provRecorder
	if e.provOn {
		dirty := e.n
		if sc != nil {
			dirty = sc.dirty.len()
		}
		pr = newProvRecorder(e.n, dirty)
	}
	links := e.topo.Links()
	ribs := make(ribTable, e.n)
	if sc != nil {
		copy(ribs, sc.old)
		sc.dirty.forEach(func(i int) { ribs[i] = nil })
	}
	getRIB := func(i int) *rib {
		r := ribs[i]
		if r == nil {
			r = &rib{}
			ribs[i] = r
		}
		return r
	}

	// Phase 0: origin self routes and seed routes at direct neighbours.
	// A site announces its prefixes over the BGP sessions at the site's
	// own city only; other cities of the same link do not carry it. In
	// scoped mode only dirty origins rebuild their self routes (a clean
	// origin's carried-over rib must never be appended to) and only dirty
	// neighbours receive seeds.
	type offer struct {
		to int // dense AS index
		r  Route
	}
	var custSeeds, peerSeeds, provSeeds []offer
	dirtyOrigins := map[int]bool{}
	for _, a := range anns {
		oi := e.asIdx[a.Origin]
		if sc.isDirty(oi) {
			// The origin's own rib carries the plain one-hop self route:
			// prepending shapes what the site exports, not how the origin
			// reaches itself.
			dirtyOrigins[oi] = true
			getRIB(oi).classes[FromOrigin] = append(getRIB(oi).classes[FromOrigin], Route{
				Rel:           FromOrigin,
				Path:          []topo.ASN{a.Origin},
				Cities:        []string{a.City},
				Site:          a.Site,
				FinalUpstream: a.Origin,
			})
		}
		seedPath, seedCities := a.seedPath(), a.seedCities()
		for _, li := range e.topo.LinksOf(a.Origin) {
			if !e.topo.LinkEnabled(li) {
				continue
			}
			l := links[li]
			if !containsCity(l.Cities, a.City) {
				continue
			}
			nbr, ni := l.B, int(e.linkB[li])
			if l.B == a.Origin {
				nbr, ni = l.A, int(e.linkA[li])
			}
			if !a.announcesTo(nbr) || !sc.isDirty(ni) {
				continue
			}
			rel := classify(l, nbr)
			var comms *policy.Set
			if e.policy != nil {
				var rejected bool
				comms, rel, rejected = e.applySeedPolicy(prefix, a, nbr, rel)
				if rejected {
					if pr != nil {
						pr.dropPolicy(ni, Route{
							Rel:           rel,
							Path:          seedPath,
							Cities:        seedCities,
							Site:          a.Site,
							FinalIXP:      l.IXP,
							FinalUpstream: nbr,
						})
					}
					continue
				}
			}
			r := Route{
				Rel:           rel,
				Path:          seedPath,
				Cities:        seedCities,
				Site:          a.Site,
				DownKm:        0,
				FinalIXP:      l.IXP,
				FinalUpstream: nbr,
				Comms:         comms,
			}
			switch rel {
			case FromCustomer:
				custSeeds = append(custSeeds, offer{ni, r})
			case FromPublicPeer, FromRSPeer:
				peerSeeds = append(peerSeeds, offer{ni, r})
			case FromProvider:
				provSeeds = append(provSeeds, offer{ni, r})
			}
		}
	}
	// Canonicalise self-route order so routing state is a function of the
	// announcement *set*, not its slice order (withdraw + re-announce moves
	// a site to the end of the announcement list).
	for i := range dirtyOrigins {
		slices.SortFunc(ribs[i].classes[FromOrigin], routeCmp)
	}

	// Phase 1: customer routes climb the provider hierarchy level by
	// level; each AS keeps only its first (shortest) generation. An
	// offer's arrival round equals its AS-path length: a prepended seed
	// enters the climb at round 1+Prepend, so a provider hearing both a
	// prepended and an unprepended site finalizes on the shorter path
	// alone — which is how prepending sheds a customer cone. The same
	// invariant lets scoped runs inject boundary exports from clean
	// customers at the round the full computation would deliver them.
	pending := map[int][]Route{}
	sched1 := map[int]map[int][]Route{} // arrival round -> AS index -> offers
	maxRound := 0
	sched := func(round, to int, offers []Route) {
		m := sched1[round]
		if m == nil {
			m = map[int][]Route{}
			sched1[round] = m
		}
		m[to] = append(m[to], offers...)
		if round > maxRound {
			maxRound = round
		}
	}
	for _, o := range custSeeds {
		sched(o.r.Len(), o.to, []Route{o.r})
	}
	if sc != nil {
		sc.dirty.forEach(func(i int) {
			asn := e.byIdx[i]
			for _, li := range e.topo.LinksOf(asn) {
				if !e.topo.LinkEnabled(li) {
					continue
				}
				l := links[li]
				if l.Type != topo.CustomerToProvider || l.B != asn {
					continue
				}
				ci := int(e.linkA[li])
				if sc.dirty.has(ci) {
					continue
				}
				crib := sc.old[ci]
				if crib == nil || hasOrigin(crib) {
					continue // origin exports arrive as per-site seeds
				}
				offers := e.export(l.A, crib.classes[FromCustomer], l, asn)
				if len(offers) == 0 {
					continue
				}
				sched(offers[0].Len(), i, offers)
			}
		})
	}
	finalizedCust := make([]bool, e.n)
	round := 1
	for ; len(pending) > 0 || round <= maxRound; round++ {
		if round > e.n+1 {
			return nil, &NonTerminationError{Prefix: prefix, Phase: 1, Iterations: round}
		}
		for i, offers := range sched1[round] {
			pending[i] = append(pending[i], offers...)
		}
		delete(sched1, round)
		frontier := make([]int, 0, len(pending))
		for i, routes := range pending {
			if hasOrigin(ribs[i]) || finalizedCust[i] {
				pr.dropRoutes(i, routes) // arrived after the AS settled: lost
				continue
			}
			cap, arb := e.capFor(e.byIdx[i])
			kept := capClass(routes, cap, arb)
			getRIB(i).classes[FromCustomer] = kept
			pr.dropMissing(i, routes, kept)
			finalizedCust[i] = true
			frontier = append(frontier, i)
		}
		pending = map[int][]Route{}
		slices.Sort(frontier)
		for _, i := range frontier {
			set := ribs[i].classes[FromCustomer]
			asn := e.byIdx[i]
			for _, li := range e.topo.LinksOf(asn) {
				if !e.topo.LinkEnabled(li) {
					continue
				}
				l := links[li]
				if l.Type != topo.CustomerToProvider || l.A != asn {
					continue // only climb customer->provider edges
				}
				pi := int(e.linkB[li])
				if !sc.isDirty(pi) || finalizedCust[pi] || hasOrigin(ribs[pi]) {
					// A dirty receiver that already settled still *heard*
					// this export; record it as dropped so its runner-up
					// reflects the full offer stream. Clean receivers keep
					// their carried-over provenance instead.
					if pr != nil && sc.isDirty(pi) {
						pr.dropRoutes(pi, e.export(asn, set, l, l.B))
					}
					continue
				}
				for _, nr := range e.export(asn, set, l, l.B) {
					pending[pi] = append(pending[pi], nr)
				}
			}
		}
	}
	e.eobs.p1rounds.Observe(int64(round - 1))

	// Phase 2: one hop over peering links; only own/customer routes are
	// exported to peers (Gao-Rexford). Collected per receiving AS so a
	// scoped run visits only the dirty region's peering sessions.
	peerOffers := map[int][]Route{}
	for _, o := range peerSeeds {
		peerOffers[o.to] = append(peerOffers[o.to], o.r)
	}
	collectPeer := func(ti int) {
		to := e.byIdx[ti]
		for _, li := range e.topo.LinksOf(to) {
			if !e.topo.LinkEnabled(li) {
				continue
			}
			l := links[li]
			if l.Type != topo.PublicPeer && l.Type != topo.RouteServerPeer {
				continue
			}
			from, fi := l.A, int(e.linkA[li])
			if l.A == to {
				from, fi = l.B, int(e.linkB[li])
			}
			fromRIB := ribs[fi]
			if fromRIB == nil {
				continue
			}
			// Origin exports were already seeded per site; skip here.
			if hasOrigin(fromRIB) {
				continue
			}
			set := fromRIB.classes[FromCustomer]
			if len(set) == 0 {
				continue
			}
			peerOffers[ti] = append(peerOffers[ti], e.export(from, set, l, to)...)
		}
	}
	if sc == nil {
		for i := 0; i < e.n; i++ {
			collectPeer(i)
		}
	} else {
		sc.dirty.forEach(collectPeer)
	}
	for i, offers := range peerOffers {
		if hasOrigin(ribs[i]) {
			pr.dropRoutes(i, offers) // origins never import peer routes
			continue
		}
		var pub, rs []Route
		for _, r := range offers {
			switch r.Rel {
			case FromPublicPeer:
				pub = append(pub, r)
			case FromRSPeer:
				rs = append(rs, r)
			}
		}
		cap, arb := e.capFor(e.byIdx[i])
		rb := getRIB(i)
		rb.classes[FromPublicPeer] = capClass(pub, cap, arb)
		rb.classes[FromRSPeer] = capClass(rs, cap, arb)
		pr.dropMissing(i, pub, rb.classes[FromPublicPeer])
		pr.dropMissing(i, rs, rb.classes[FromRSPeer])
	}

	// Phase 3: selected routes descend provider->customer edges
	// level-synchronously by path length. Every AS always exports its
	// final selection to its customers. A clean provider's selection is
	// unchanged by definition, so a scoped run injects its export at the
	// level its selected-path length dictates.
	exportersByLen := map[int][]int{}
	finalized := make([]bool, e.n)
	maxLen := 0
	for i, rb := range ribs {
		if rb == nil {
			continue
		}
		if sc != nil && !sc.dirty.has(i) {
			continue // clean ASes export via sched3 below
		}
		if ln, ok := rb.selLen(); ok {
			exportersByLen[ln] = append(exportersByLen[ln], i)
			finalized[i] = true
			if ln > maxLen {
				maxLen = ln
			}
		}
	}
	sched3 := map[int][]int{} // selected-path length -> clean provider->dirty customer links
	if sc != nil {
		sc.dirty.forEach(func(i int) {
			asn := e.byIdx[i]
			for _, li := range e.topo.LinksOf(asn) {
				if !e.topo.LinkEnabled(li) {
					continue
				}
				l := links[li]
				if l.Type != topo.CustomerToProvider || l.A != asn {
					continue
				}
				pi := int(e.linkB[li])
				if sc.dirty.has(pi) {
					continue
				}
				prib := sc.old[pi]
				if prib == nil {
					continue
				}
				cls, set, ok := prib.best()
				if !ok || cls == FromOrigin {
					continue // origin exports arrive as per-site seeds
				}
				ln := set[0].Len()
				sched3[ln] = append(sched3[ln], li)
				if ln > maxLen {
					maxLen = ln
				}
			}
		})
	}
	provPending := map[int][]Route{}
	for _, o := range provSeeds {
		if !finalized[o.to] {
			provPending[o.to] = append(provPending[o.to], o.r)
		} else if pr != nil {
			pr.drop(o.to, o.r)
		}
	}
	ln := 0
	for ; ln <= maxLen || len(provPending) > 0; ln++ {
		if ln > e.n {
			return nil, &NonTerminationError{Prefix: prefix, Phase: 3, Iterations: ln}
		}
		// Finalize ASes whose cheapest provider offers have length ln.
		var newly []int
		for i, offers := range provPending {
			minLen := offers[0].Len()
			for _, r := range offers {
				if r.Len() < minLen {
					minLen = r.Len()
				}
			}
			if minLen != ln {
				continue
			}
			var keep []Route
			for _, r := range offers {
				if r.Len() == ln {
					keep = append(keep, r)
				}
			}
			cap, arb := e.capFor(e.byIdx[i])
			kept := capClass(keep, cap, arb)
			getRIB(i).classes[FromProvider] = kept
			pr.dropMissing(i, offers, kept)
			finalized[i] = true
			newly = append(newly, i)
		}
		for _, i := range newly {
			delete(provPending, i)
		}
		slices.Sort(newly)
		exps := append(exportersByLen[ln], newly...)
		slices.Sort(exps)
		for _, i := range exps {
			rb := ribs[i]
			cls, set, ok := rb.best()
			if !ok || cls == FromOrigin {
				continue // origin exports were seeded per site
			}
			asn := e.byIdx[i]
			for _, li := range e.topo.LinksOf(asn) {
				if !e.topo.LinkEnabled(li) {
					continue
				}
				l := links[li]
				if l.Type != topo.CustomerToProvider || l.B != asn {
					continue // only descend provider->customer edges
				}
				ci := int(e.linkA[li])
				if !sc.isDirty(ci) || finalized[ci] {
					if pr != nil && sc.isDirty(ci) {
						pr.dropRoutes(ci, e.export(asn, set, l, l.A))
					}
					continue
				}
				provPending[ci] = append(provPending[ci], e.export(asn, set, l, l.A)...)
			}
		}
		// Inject boundary exports whose selected-path length is ln.
		for _, li := range sched3[ln] {
			l := links[li]
			ci, pi := e.linkEnds(li)
			if finalized[ci] {
				if pr != nil {
					_, set, _ := sc.old[pi].best()
					pr.dropRoutes(ci, e.export(l.B, set, l, l.A))
				}
				continue
			}
			_, set, _ := sc.old[pi].best()
			provPending[ci] = append(provPending[ci], e.export(l.B, set, l, l.A)...)
		}
		delete(sched3, ln)
	}
	e.eobs.p3levels.Observe(int64(ln))
	if pr != nil {
		e.record(ribs, sc, pr)
	}
	return ribs, nil
}

// ArbitraryTieBreakFraction is the share of non-tier-1 ASes whose
// equal-preference tie-break is geography-blind (modelling router-ID/oldest-
// route tie-breaks and single-exit designs); the rest pick the exit with
// the least downstream carriage (well-engineered hot-potato). Operator
// heterogeneity is what makes catchment inefficiency common but not
// universal (cf. Koch et al.'s ~30% of users with 30+ ms inflation).
const ArbitraryTieBreakFraction = 0.7

// capFor returns the per-class route-retention policy for an AS: how many
// routes it keeps and whether its tie-break is geography-blind (arbitrary)
// rather than nearest-downstream. The trait is a deterministic property of
// the AS.
func (e *Engine) capFor(asn topo.ASN) (cap int, arbitrary bool) {
	as, ok := e.topo.AS(asn)
	if !ok {
		return 1, true
	}
	switch as.Tier {
	case topo.Tier1:
		return MaxRoutesPerClass, false
	case topo.Tier2:
		return Tier2NeighborsPerClass, arbitraryOperator(asn)
	default:
		// Edge networks are effectively single-homed per destination and
		// hand traffic to whichever of their providers serves them best;
		// the catchment randomness of the Internet lives in the carriers
		// above them.
		return 1, false
	}
}

// arbitraryOperator deterministically assigns the geography-blind trait to
// ArbitraryTieBreakFraction of ASes.
func arbitraryOperator(asn topo.ASN) bool {
	// Knuth multiplicative hash for a stable pseudo-random trait.
	h := uint32(asn) * 2654435761
	return float64(h)/float64(^uint32(0)) < ArbitraryTieBreakFraction
}

// export derives the routes AS `to` learns from `from` over link l:
// one per interconnection city, carrying from's hot-potato egress choice for
// traffic entering at that city.
func (e *Engine) export(from topo.ASN, set []Route, l topo.Link, to topo.ASN) []Route {
	rel := classify(l, to)
	out := make([]Route, 0, len(l.Cities))
	for _, c := range l.Cities {
		r, ok := e.hotPotato(set, c)
		if !ok {
			continue
		}
		nr := Route{
			Rel:           rel,
			Path:          prependASN(from, r.Path),
			Cities:        prependCity(c, r.Cities),
			Site:          r.Site,
			DownKm:        e.km(c, r.Cities[0]) + r.DownKm,
			FinalIXP:      r.FinalIXP,
			FinalUpstream: r.FinalUpstream,
			Comms:         r.Comms,
		}
		out = append(out, nr)
	}
	return out
}

// hotPotato picks the route whose handoff city is nearest to the entry
// city, breaking ties deterministically by downstream distance, handoff
// city, then site.
func (e *Engine) hotPotato(set []Route, entry string) (Route, bool) {
	if len(set) == 0 {
		return Route{}, false
	}
	best := -1
	bestKm := 0.0
	for i, r := range set {
		d := e.km(entry, r.Handoff())
		if best == -1 || less(d, r, bestKm, set[best]) {
			best, bestKm = i, d
		}
	}
	return set[best], true
}

func less(d1 float64, r1 Route, d2 float64, r2 Route) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return routeLess(r1, r2)
}

// routeCmp is a total order on routes: downstream carriage, handoff city,
// site, then path and city identity. The trailing identity keys make every
// route-set computation independent of offer arrival and iteration order,
// which incremental reconvergence relies on to reproduce a full recompute
// bit-for-bit.
func routeCmp(a, b Route) int {
	if a.DownKm != b.DownKm {
		if a.DownKm < b.DownKm {
			return -1
		}
		return 1
	}
	if c := strings.Compare(a.Handoff(), b.Handoff()); c != 0 {
		return c
	}
	if c := strings.Compare(a.Site, b.Site); c != 0 {
		return c
	}
	if c := slices.Compare(a.Path, b.Path); c != 0 {
		return c
	}
	return slices.Compare(a.Cities, b.Cities)
}

// routeLess reports routeCmp(a, b) < 0.
func routeLess(a, b Route) bool { return routeCmp(a, b) < 0 }

// capClass normalises a class's candidate set. It keeps only shortest AS
// paths, then selects up to `cap` *neighbours* (distinct next-hop ASes) and
// retains every interconnection-city variant of the chosen neighbours'
// routes, deduplicated per handoff city. Egress toward a chosen neighbour
// is always hot-potato (nearest session); what differs between operators is
// how they rank neighbours:
//
//   - well-engineered operators (arbitrary=false) rank neighbours by the
//     least downstream carriage any of their sessions offers;
//   - the rest (arbitrary=true) only distinguish downstream carriage in
//     coarse ~3,000 km bands and fall back to router-ID-style order inside
//     a band — the catchment-inefficiency engine of the paper (§2.1): a
//     carrier picks its customer's or an arbitrary neighbour's route and
//     funnels its whole cone to whichever site sits behind it.
//
// The grouping is slice-based with linear scans: candidate sets are small
// (bounded by neighbour count x interconnection cities), so avoiding the
// per-call maps is both faster and allocation-lean on the Announce hot path.
func capClass(routes []Route, cap int, arbitrary bool) []Route {
	if len(routes) == 0 {
		return nil
	}
	if cap <= 0 {
		cap = 1
	}
	minLen := routes[0].Len()
	for _, r := range routes {
		if r.Len() < minLen {
			minLen = r.Len()
		}
	}
	// Group shortest routes by neighbour, deduplicating handoff cities
	// (keeping the routeCmp-least route per city).
	type nbrGroup struct {
		nbr    topo.ASN
		byCity []Route
		bestKm float64
	}
	var groups []nbrGroup
	for _, r := range routes {
		if r.Len() != minLen {
			continue
		}
		gi := -1
		for i := range groups {
			if groups[i].nbr == r.Path[0] {
				gi = i
				break
			}
		}
		if gi < 0 {
			groups = append(groups, nbrGroup{nbr: r.Path[0], bestKm: r.DownKm})
			gi = len(groups) - 1
		}
		g := &groups[gi]
		ci := -1
		for i := range g.byCity {
			if g.byCity[i].Handoff() == r.Handoff() {
				ci = i
				break
			}
		}
		if ci < 0 {
			g.byCity = append(g.byCity, r)
		} else if routeLess(r, g.byCity[ci]) {
			g.byCity[ci] = r
		}
		if r.DownKm < g.bestKm {
			g.bestKm = r.DownKm
		}
	}
	// Arbitrary operators distinguish downstream carriage only in coarse
	// ~4,000 km bands (roughly: "this exit works" vs "this exit hauls the
	// traffic to another continent"), and rank by router-ID style order
	// inside a band. Policy preferences (customer > peer > provider) are
	// applied before this function and are never overridden by distance —
	// that is the paper's catchment-inefficiency engine.
	const bucketKm = 4000.0
	slices.SortFunc(groups, func(a, b nbrGroup) int {
		if arbitrary {
			ba, bb := int(a.bestKm/bucketKm), int(b.bestKm/bucketKm)
			if ba != bb {
				return ba - bb
			}
		} else if a.bestKm != b.bestKm {
			if a.bestKm < b.bestKm {
				return -1
			}
			return 1
		}
		if a.nbr < b.nbr {
			return -1
		}
		if a.nbr > b.nbr {
			return 1
		}
		return 0
	})
	if len(groups) > cap {
		groups = groups[:cap]
	}
	var out []Route
	for _, g := range groups {
		out = append(out, g.byCity...)
	}
	slices.SortFunc(out, routeCmp)
	if len(out) > MaxRoutesPerClass {
		out = out[:MaxRoutesPerClass]
	}
	return out
}

func prependASN(a topo.ASN, rest []topo.ASN) []topo.ASN {
	out := make([]topo.ASN, 0, len(rest)+1)
	out = append(out, a)
	return append(out, rest...)
}

func prependCity(c string, rest []string) []string {
	out := make([]string, 0, len(rest)+1)
	out = append(out, c)
	return append(out, rest...)
}

func containsCity(cities []string, c string) bool {
	for _, x := range cities {
		if x == c {
			return true
		}
	}
	return false
}

// Lookup returns the anycast catchment for traffic originated by asn from
// the given city toward the prefix. ok is false when the prefix is unknown
// or the AS has no route to it.
func (e *Engine) Lookup(prefix netip.Prefix, asn topo.ASN, city string) (Forward, bool) {
	i, known := e.asIdx[asn]
	if !known {
		return Forward{}, false
	}
	e.mu.RLock()
	ribs := e.ribs[prefix]
	e.mu.RUnlock()
	if ribs == nil {
		return Forward{}, false
	}
	rb := ribs[i]
	if rb == nil {
		return Forward{}, false
	}
	cls, set, ok := rb.best()
	if !ok {
		return Forward{}, false
	}
	r, ok := e.hotPotato(set, city)
	if !ok {
		return Forward{}, false
	}
	path := r.Path
	if cls != FromOrigin {
		path = prependASN(asn, r.Path)
	}
	return Forward{
		Prefix:        prefix,
		Site:          r.Site,
		Path:          path,
		Cities:        r.Cities,
		DistKm:        e.km(city, r.Cities[0]) + r.DownKm,
		Rel:           cls,
		FinalIXP:      r.FinalIXP,
		FinalUpstream: r.FinalUpstream,
	}, true
}

// Routes returns the full selected route set for (prefix, asn), most
// preferred class only. It is used by the cause-classification analysis
// (§5.4) to examine alternatives an AS held.
func (e *Engine) Routes(prefix netip.Prefix, asn topo.ASN) (RelClass, []Route, bool) {
	i, known := e.asIdx[asn]
	if !known {
		return 0, nil, false
	}
	e.mu.RLock()
	ribs := e.ribs[prefix]
	e.mu.RUnlock()
	if ribs == nil || ribs[i] == nil {
		return 0, nil, false
	}
	return ribs[i].best()
}

// RoutesByClass returns all routes an AS holds for a prefix in a given
// class, including classes it did not select.
func (e *Engine) RoutesByClass(prefix netip.Prefix, asn topo.ASN, cls RelClass) []Route {
	i, known := e.asIdx[asn]
	if !known {
		return nil
	}
	e.mu.RLock()
	ribs := e.ribs[prefix]
	e.mu.RUnlock()
	if ribs == nil || ribs[i] == nil {
		return nil
	}
	return ribs[i].classes[cls]
}
