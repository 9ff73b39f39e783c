package bgp

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"strings"
	"sync"

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

	// Dense AS indexing, cached from topo.Topology.ASIndex at construction
	// for lock-free access: per-AS routing state lives in slices indexed by
	// the dense index instead of maps keyed by ASN. linkA/linkB hold each
	// link's endpoint indices so hot loops never hash an ASN; linkCities
	// and linkIXP hold its interconnection cities and IXP as dense ids.
	n            int
	asIdx        map[topo.ASN]int
	byIdx        []topo.ASN
	linkA, linkB []int32
	linkCities   [][]cityID
	linkIXP      []symbol

	// eobs holds the cached observability handles (see obs.go). The zero
	// value is the disabled state; Fork copies it with the tracer stripped.
	eobs engineObs

	mu sync.RWMutex
	routeState
	// provOn enables decision-provenance recording (see prov.go). The
	// records themselves live on the ribs.
	provOn bool
	// policy is the optional community/filter layer (see policy.go). nil —
	// the default — means the engine behaves exactly as it did before the
	// layer existed: no seed-time evaluation, no community pointers set.
	policy *policy.Policy
}

// routeState is the engine's mutable routing state, guarded by Engine.mu.
// Every map value in it is immutable once installed — operations install
// fresh tables, announcement slices and hint maps — so Fork and ResetTo
// copy only the outer maps (see fork.go).
type routeState struct {
	ribs      map[netip.Prefix]ribTable
	anns      map[netip.Prefix][]SiteAnnouncement
	lastStats ReconvergeStats
	// hints is the failover memory of incremental reconvergence: per
	// (prefix, site), the ASes the last withdraw/restore of that site
	// touched, used to pre-seed the next operation on the same site.
	hints map[netip.Prefix]map[string]*asBits
}

// ribTable is one prefix's converged routing state: the per-AS RIB, indexed
// by dense AS index. An AS with no route has a nil entry. Tables and the
// ribs they point to are immutable once installed — converge builds a fresh
// table and fresh ribs for every recomputed AS, carrying clean ASes' ribs
// over by pointer — which is what makes Fork a shallow-copy operation.
type ribTable []*rib

// rib holds one AS's routes for one prefix, bucketed by preference class,
// and, when the converge that built it recorded provenance, the decision
// record behind the selection (nil otherwise). The classes share one
// slice, most preferred first: class c is routes[ends[c-1]:ends[c]].
// converge fills a rib's classes in preference order — origin, customer,
// the peer classes, provider — each at most once, so a class is always
// appended at the end (see close). The struct is 48 B, prov included.
type rib struct {
	routes []Route
	ends   [FromProvider + 1]uint16
	prov   *Provenance
}

// class returns the routes of class c, capped so an append by the caller
// cannot reach the next class.
func (r *rib) class(c RelClass) []Route {
	var lo uint16
	if c > FromOrigin {
		lo = r.ends[c-1]
	}
	return r.routes[lo:r.ends[c]:r.ends[c]]
}

// close ends class c at the current end of routes: every route appended
// since the previous class closed belongs to c, and the classes after it
// stay empty until they are closed in turn.
func (r *rib) close(c RelClass) {
	n := len(r.routes)
	if n > math.MaxUint16 {
		panic("bgp: more than 65535 routes in one rib")
	}
	for k := c; k <= FromProvider; k++ {
		r.ends[k] = uint16(n)
	}
}

// best returns the most-preferred non-empty class and its routes.
func (r *rib) best() (RelClass, []Route, bool) {
	for c := FromOrigin; c <= FromProvider; c++ {
		if set := r.class(c); len(set) > 0 {
			return c, set, true
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
func hasOrigin(r *rib) bool { return r != nil && r.ends[FromOrigin] > 0 }

// NewEngine builds an engine over a topology. The topology should be frozen;
// mutating it after constructing an engine invalidates computed state.
func NewEngine(t *topo.Topology) *Engine {
	asIdx := t.ASIndexMap()
	links := t.Links()
	la := make([]int32, len(links))
	lb := make([]int32, len(links))
	lc := make([][]cityID, len(links))
	lx := make([]symbol, len(links))
	for i, l := range links {
		la[i] = int32(asIdx[l.A])
		lb[i] = int32(asIdx[l.B])
		lc[i] = make([]cityID, len(l.Cities))
		for j, c := range l.Cities {
			lc[i][j] = cityOf(c)
		}
		lx[i] = symbols.intern(l.IXP)
	}
	return &Engine{
		topo:       t,
		n:          t.NumASes(),
		asIdx:      asIdx,
		byIdx:      t.ASList(),
		linkA:      la,
		linkB:      lb,
		linkCities: lc,
		linkIXP:    lx,
		routeState: routeState{
			ribs:  make(map[netip.Prefix]ribTable),
			anns:  make(map[netip.Prefix][]SiteAnnouncement),
			hints: make(map[netip.Prefix]map[string]*asBits),
		},
	}
}

// Topology returns the engine's topology.
func (e *Engine) Topology() *topo.Topology { return e.topo }

// linkEnds returns the dense endpoint indices of link li.
func (e *Engine) linkEnds(li int) (ai, bi int) {
	return int(e.linkA[li]), int(e.linkB[li])
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
	// Every node this converge creates comes from its slab; see nodeSlab.
	slab := &nodeSlab{}
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
		site := symbols.intern(a.Site)
		chain, head := a.seedChain(slab)
		if sc.isDirty(oi) {
			// The origin's own rib carries the plain one-hop self route:
			// prepending shapes what the site exports, not how the origin
			// reaches itself.
			dirtyOrigins[oi] = true
			rb := getRIB(oi)
			rb.routes = append(rb.routes, Route{
				Rel:           FromOrigin,
				path:          head,
				plen:          1,
				site:          site,
				FinalUpstream: a.Origin,
			})
			rb.close(FromOrigin)
		}
		for _, li := range e.topo.LinksOf(a.Origin) {
			if !e.topo.LinkEnabled(li) {
				continue
			}
			l := links[li]
			if !slices.Contains(e.linkCities[li], head.city) {
				continue
			}
			nbr, ni := l.B, int(e.linkB[li])
			if l.B == a.Origin {
				nbr, ni = l.A, int(e.linkA[li])
			}
			if !a.announcesTo(nbr) || !sc.isDirty(ni) {
				continue
			}
			r := Route{
				Rel:           classify(l, nbr),
				path:          chain,
				plen:          uint16(a.Prepend + 1),
				site:          site,
				ixp:           e.linkIXP[li],
				FinalUpstream: nbr,
			}
			if e.policy != nil {
				var rejected bool
				r.Comms, r.Rel, rejected = e.applySeedPolicy(prefix, a, nbr, r.Rel)
				if rejected {
					if pr != nil {
						pr.dropPolicy(ni, r)
					}
					continue
				}
			}
			switch r.Rel {
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
		slices.SortFunc(ribs[i].class(FromOrigin), routeCmp)
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
				offers := e.export(slab, nil, l.A, crib.class(FromCustomer), li, asn)
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
			rb := getRIB(i)
			rb.routes = capClass(rb.routes, routes, cap, arb)
			rb.close(FromCustomer)
			pr.dropMissing(i, routes, rb.class(FromCustomer))
			finalizedCust[i] = true
			frontier = append(frontier, i)
		}
		pending = map[int][]Route{}
		slices.Sort(frontier)
		for _, i := range frontier {
			set := ribs[i].class(FromCustomer)
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
						pr.dropRoutes(pi, e.export(slab, nil, asn, set, li, l.B))
					}
					continue
				}
				pending[pi] = e.export(slab, pending[pi], asn, set, li, l.B)
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
			set := fromRIB.class(FromCustomer)
			if len(set) == 0 {
				continue
			}
			peerOffers[ti] = e.export(slab, peerOffers[ti], from, set, li, to)
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
		// Public-peer offers to the front; every other offer over a
		// peering session is a route-server one.
		np := partition(offers, func(r Route) bool { return r.Rel == FromPublicPeer })
		pub, rs := offers[:np], offers[np:]
		cap, arb := e.capFor(e.byIdx[i])
		rb := getRIB(i)
		rb.routes = capClass(rb.routes, pub, cap, arb)
		rb.close(FromPublicPeer)
		rb.routes = capClass(rb.routes, rs, cap, arb)
		rb.close(FromRSPeer)
		pr.dropMissing(i, pub, rb.class(FromPublicPeer))
		pr.dropMissing(i, rs, rb.class(FromRSPeer))
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
	var newly []int // reused across levels
	for ; ln <= maxLen || len(provPending) > 0; ln++ {
		if ln > e.n {
			return nil, &NonTerminationError{Prefix: prefix, Phase: 3, Iterations: ln}
		}
		// Finalize ASes whose cheapest provider offers have length ln.
		newly = newly[:0]
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
			keep := offers[:partition(offers, func(r Route) bool { return r.Len() == ln })]
			cap, arb := e.capFor(e.byIdx[i])
			rb := getRIB(i)
			rb.routes = capClass(rb.routes, keep, cap, arb)
			rb.close(FromProvider)
			pr.dropMissing(i, offers, rb.class(FromProvider))
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
						pr.dropRoutes(ci, e.export(slab, nil, asn, set, li, l.A))
					}
					continue
				}
				provPending[ci] = e.export(slab, provPending[ci], asn, set, li, l.A)
			}
		}
		// Inject boundary exports whose selected-path length is ln.
		for _, li := range sched3[ln] {
			l := links[li]
			ci, pi := e.linkEnds(li)
			if finalized[ci] {
				if pr != nil {
					_, set, _ := sc.old[pi].best()
					pr.dropRoutes(ci, e.export(slab, nil, l.B, set, li, l.A))
				}
				continue
			}
			_, set, _ := sc.old[pi].best()
			provPending[ci] = e.export(slab, provPending[ci], l.B, set, li, l.A)
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

// export appends to dst the routes AS `to` learns from `from` over link
// li: one per interconnection city, carrying from's hot-potato egress
// choice for traffic entering at that city. Each prepends one node, taken
// from s, to the chosen route's shared chain.
func (e *Engine) export(s *nodeSlab, dst []Route, from topo.ASN, set []Route, li int, to topo.ASN) []Route {
	if len(set) == 0 {
		return dst
	}
	rel := classify(e.topo.Links()[li], to)
	for _, c := range e.linkCities[li] {
		r, _ := hotPotato(set, c)
		nr := r.prepend(s, from, c)
		nr.Rel = rel
		nr.DownKm = km(c, r.handoff()) + r.DownKm
		dst = append(dst, nr)
	}
	return dst
}

// hotPotato picks the route whose handoff city is nearest to the entry
// city, breaking ties deterministically by downstream distance, handoff
// city, then site.
func hotPotato(set []Route, entry cityID) (Route, bool) {
	if len(set) == 0 {
		return Route{}, false
	}
	best := 0
	bestKm := km(entry, set[0].handoff())
	for i := 1; i < len(set); i++ {
		d := km(entry, set[i].handoff())
		if less(d, set[i], bestKm, set[best]) {
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
// site name, then path and city identity. City ids order as their names
// do; site symbols do not, so sites compare by name. The trailing identity
// keys make every route-set computation independent of offer arrival and
// iteration order, which incremental reconvergence relies on to reproduce
// a full recompute bit-for-bit.
func routeCmp(a, b Route) int {
	if a.DownKm != b.DownKm {
		if a.DownKm < b.DownKm {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.handoff(), b.handoff()); c != 0 {
		return c
	}
	if c := symbolCmp(a.site, b.site); c != 0 {
		return c
	}
	return pathCmp(a.path, b.path)
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
// capClass appends its result to dst, sorted by routeCmp, and permutes
// routes in place; it allocates only when dst must grow. The grouping
// sorts the shortest routes by (neighbour, handoff city, routeCmp), so each
// neighbour is one run and each of its handoff cities one sub-run led by
// the routeCmp-least route: no per-call maps or per-group slices.
func capClass(dst, routes []Route, cap int, arbitrary bool) []Route {
	if len(routes) == 0 {
		return dst
	}
	if cap <= 0 {
		cap = 1
	}
	minLen := routes[0].plen
	for _, r := range routes {
		minLen = min(minLen, r.plen)
	}
	short := routes[:partition(routes, func(r Route) bool { return r.plen == minLen })]
	slices.SortFunc(short, func(a, b Route) int {
		if c := cmp.Compare(a.path.asn, b.path.asn); c != 0 {
			return c
		}
		if c := cmp.Compare(a.handoff(), b.handoff()); c != 0 {
			return c
		}
		return routeCmp(a, b)
	})
	// newCity reports whether short[j] leads its handoff city's sub-run.
	newCity := func(j int) bool {
		return j == 0 || short[j].path.asn != short[j-1].path.asn || short[j].handoff() != short[j-1].handoff()
	}
	type nbrGroup struct {
		nbr        topo.ASN
		start, end int // the neighbour's run in short
		cities     int // distinct handoff cities in the run
		bestKm     float64
	}
	var buf [8]nbrGroup
	groups := buf[:0]
	for i := 0; i < len(short); {
		g := nbrGroup{nbr: short[i].path.asn, start: i, bestKm: short[i].DownKm}
		for i < len(short) && short[i].path.asn == g.nbr {
			g.bestKm = min(g.bestKm, short[i].DownKm)
			if newCity(i) {
				g.cities++
			}
			i++
		}
		g.end = i
		groups = append(groups, g)
	}
	// Arbitrary operators distinguish downstream carriage only in coarse
	// ~4,000 km bands (roughly: "this exit works" vs "this exit hauls the
	// traffic to another continent"), and rank by router-ID style order
	// inside a band. Policy preferences (customer > peer > provider) are
	// applied before this function and are never overridden by distance —
	// that is the paper's catchment-inefficiency engine. Only the chosen
	// set matters (the result is sorted by routeCmp), so ranking is needed
	// only when there are more neighbours than the cap.
	if len(groups) > cap {
		const bucketKm = 4000.0
		slices.SortFunc(groups, func(a, b nbrGroup) int {
			if arbitrary {
				if c := cmp.Compare(int(a.bestKm/bucketKm), int(b.bestKm/bucketKm)); c != 0 {
					return c
				}
			} else if c := cmp.Compare(a.bestKm, b.bestKm); c != 0 {
				return c
			}
			return cmp.Compare(a.nbr, b.nbr)
		})
		groups = groups[:cap]
	}
	n := 0
	for _, g := range groups {
		n += g.cities
	}
	base := len(dst)
	dst = slices.Grow(dst, n)
	for _, g := range groups {
		for j := g.start; j < g.end; j++ {
			if newCity(j) {
				dst = append(dst, short[j])
			}
		}
	}
	slices.SortFunc(dst[base:], routeCmp)
	return dst[:base+min(n, MaxRoutesPerClass)]
}

// partition moves the routes satisfying keep to the front, preserving the
// multiset (provenance still reads every offer), and returns their count.
func partition(routes []Route, keep func(Route) bool) int {
	k := 0
	for i := range routes {
		if keep(routes[i]) {
			routes[i], routes[k] = routes[k], routes[i]
			k++
		}
	}
	return k
}

// Lookup returns the anycast catchment for traffic originated by asn from
// the given city toward the prefix. ok is false when the prefix is unknown
// or the AS has no route to it.
func (e *Engine) Lookup(prefix netip.Prefix, asn topo.ASN, city string) (Forward, bool) {
	r, cls, distKm, ok := e.lookup(prefix, asn, city)
	if !ok {
		return Forward{}, false
	}
	// Materialise the chain: the client AS (unless it is the origin itself)
	// and then the route's hops.
	path, cities := forwardSlices(int(r.plen))
	if cls != FromOrigin {
		path = append(path, asn)
	}
	for n := r.path; n != nil; n = n.next {
		path = append(path, n.asn)
		cities = append(cities, n.city.String())
	}
	return Forward{
		Prefix:        prefix,
		Site:          r.Site(),
		Path:          path,
		Cities:        cities,
		DistKm:        distKm,
		Rel:           cls,
		FinalIXP:      r.FinalIXP(),
		FinalUpstream: r.FinalUpstream,
	}, true
}

// forwardSlices returns empty path and city slices with room for a route
// of n hops and the client AS. Routes of two to four hops — over 99% of a
// measurement campaign's lookups — take one allocation, of the size the two
// slices would take apart; longer ones take two.
func forwardSlices(n int) ([]topo.ASN, []string) {
	switch {
	case n <= 2:
		b := new(struct {
			path   [3]topo.ASN
			cities [2]string
		})
		return b.path[: 0 : n+1], b.cities[:0:n]
	case n == 3:
		b := new(struct {
			path   [4]topo.ASN
			cities [3]string
		})
		return b.path[:0], b.cities[:0]
	case n == 4:
		b := new(struct {
			path   [5]topo.ASN
			cities [4]string
		})
		return b.path[:0], b.cities[:0]
	}
	return make([]topo.ASN, 0, n+1), make([]string, 0, n)
}

// LookupSite answers the part of Lookup a load evaluation reads — the
// catchment site and the forwarding distance — without materialising the
// path, so it allocates nothing.
func (e *Engine) LookupSite(prefix netip.Prefix, asn topo.ASN, city string) (site string, distKm float64, ok bool) {
	r, _, distKm, ok := e.lookup(prefix, asn, city)
	if !ok {
		return "", 0, false
	}
	return r.Site(), distKm, true
}

// lookup selects the route traffic from (asn, city) takes toward the
// prefix, its class, and the one-way forwarding distance.
func (e *Engine) lookup(prefix netip.Prefix, asn topo.ASN, city string) (Route, RelClass, float64, bool) {
	i, known := e.asIdx[asn]
	if !known {
		return Route{}, 0, 0, false
	}
	e.mu.RLock()
	ribs := e.ribs[prefix]
	e.mu.RUnlock()
	if ribs == nil || ribs[i] == nil {
		return Route{}, 0, 0, false
	}
	cls, set, ok := ribs[i].best()
	if !ok {
		return Route{}, 0, 0, false
	}
	c := cityOf(city)
	r, _ := hotPotato(set, c)
	return r, cls, km(c, r.handoff()) + r.DownKm, true
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
	return ribs[i].class(cls)
}
