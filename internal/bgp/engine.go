package bgp

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"net/netip"
	"slices"
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

	// Dense AS indexing, cached from topo.Topology.ASIndex at construction
	// for lock-free access: per-AS routing state lives in slices indexed by
	// the dense index instead of maps keyed by ASN. linkA/linkB hold each
	// link's endpoint indices so hot loops never hash an ASN; linkCities
	// and linkIXP hold its interconnection cities and IXP as dense ids.
	n            int
	asIdx        map[topo.ASN]int
	byIdx        []topo.ASN
	linkA, linkB []int32
	linkCities   [][]geo.CityID
	linkIXP      []Symbol
	// adj is the dense per-AS view converge reads instead of scanning
	// LinksOf and looking ASes up; arenas holds converge's idle working
	// storage. Forks share both.
	adj    *adjacency
	arenas *arenaPool

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
// ribs they point to are immutable once installed — every operation works
// on a private table, gives every recomputed AS a fresh rib and carries
// clean ASes' ribs over by pointer — which is what makes Fork a
// shallow-copy operation.
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
	byIdx := t.ASList()
	links := t.Links()
	la := make([]int32, len(links))
	lb := make([]int32, len(links))
	lc := make([][]geo.CityID, len(links))
	lx := make([]Symbol, len(links))
	for i, l := range links {
		la[i] = int32(asIdx[l.A])
		lb[i] = int32(asIdx[l.B])
		lc[i] = make([]geo.CityID, len(l.Cities))
		for j, c := range l.Cities {
			lc[i][j] = cityOf(c)
		}
		lx[i] = symbols.intern(l.IXP)
	}
	return &Engine{
		topo:       t,
		n:          len(byIdx),
		asIdx:      asIdx,
		byIdx:      byIdx,
		linkA:      la,
		linkB:      lb,
		linkCities: lc,
		linkIXP:    lx,
		adj:        newAdjacency(t, asIdx, byIdx),
		arenas:     &arenaPool{n: len(byIdx)},
		routeState: routeState{
			ribs:  make(map[netip.Prefix]ribTable),
			anns:  make(map[netip.Prefix][]SiteAnnouncement),
			hints: make(map[netip.Prefix]map[string]*asBits),
		},
	}
}

// Topology returns the engine's topology.
func (e *Engine) Topology() *topo.Topology { return e.topo }

// adjacency holds every AS's links split by the role the neighbour plays —
// providers, then customers, then peers, each run in LinksOf order, whether
// the link is up or not — and every AS's route-retention trait.
type adjacency struct {
	links []nbrLink
	// off[3i+k] starts AS i's run of role k.
	off    []int32
	traits []asTrait
}

// nbrLink is one entry of an AS's adjacency: the link, the neighbour's
// dense index, and the class under which the neighbour files the routes
// the AS exports over the link.
type nbrLink struct {
	li, nbr int32
	rel     RelClass
}

// newAdjacency builds the adjacency of a topology over its dense index.
func newAdjacency(t *topo.Topology, asIdx map[topo.ASN]int, byIdx []topo.ASN) *adjacency {
	links := t.Links()
	n := len(byIdx)
	adj := &adjacency{
		links:  make([]nbrLink, 0, 2*len(links)),
		off:    make([]int32, 3*n+1),
		traits: make([]asTrait, n),
	}
	for i, asn := range byIdx {
		for role := range 3 {
			adj.off[3*i+role] = int32(len(adj.links))
			for _, li := range t.LinksOf(asn) {
				l := links[li]
				nbr, _ := l.Other(asn)
				rel := classify(l, nbr)
				r := 2 // a peer
				switch rel {
				case FromCustomer:
					r = 0 // nbr is a provider
				case FromProvider:
					r = 1 // nbr is a customer
				}
				if r == role {
					adj.links = append(adj.links, nbrLink{li: int32(li), nbr: int32(asIdx[nbr]), rel: rel})
				}
			}
		}
		adj.traits[i] = traitOf(t.MustAS(asn))
	}
	adj.off[3*n] = int32(len(adj.links))
	return adj
}

// providers, customers and peers return AS i's links by the role the
// neighbour plays; adjacent returns all three runs.
func (e *Engine) providers(i int32) []nbrLink { return e.adj.run(3*i, 3*i+1) }
func (e *Engine) customers(i int32) []nbrLink { return e.adj.run(3*i+1, 3*i+2) }
func (e *Engine) peers(i int32) []nbrLink     { return e.adj.run(3*i+2, 3*i+3) }
func (e *Engine) adjacent(i int32) []nbrLink  { return e.adj.run(3*i, 3*i+3) }

func (a *adjacency) run(from, to int32) []nbrLink { return a.links[a.off[from]:a.off[to]] }

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
	slices.SortFunc(out, prefixTextCompare)
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

// prefixTextCompare orders prefixes by their String form, formatting into
// stack buffers: the order Prefixes lists them in.
func prefixTextCompare(a, b netip.Prefix) int {
	var ab, bb [64]byte
	return bytes.Compare(a.AppendTo(ab[:0]), b.AppendTo(bb[:0]))
}

func prefixTextLess(a, b netip.Prefix) bool { return prefixTextCompare(a, b) < 0 }

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

	ribs, err := e.convergeFull(prefix, anns)
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

// offer is a route on its way to a receiving AS (dense index).
type offer struct {
	to int32
	r  Route
}

// boundary is a phase-3 offer from outside a scoped pass: clean provider
// pi exports its selection to dirty customer ci over link li.
type boundary struct{ li, ci, pi int32 }

// isDirty reports whether AS index i is recomputed: every AS when dirty is
// nil (a full converge), else the members of dirty.
func isDirty(dirty *asBits, i int32) bool {
	return dirty == nil || dirty.has(int(i))
}

// convergeFull computes a prefix's routing from scratch into a fresh table.
func (e *Engine) convergeFull(prefix netip.Prefix, anns []SiteAnnouncement) (ribTable, error) {
	a := e.arenas.get()
	defer e.arenas.put(a)
	ribs := make(ribTable, e.n)
	if err := e.converge(a, prefix, anns, ribs, nil); err != nil {
		return nil, err
	}
	return ribs, nil
}

// converge runs the three Gao-Rexford propagation phases over ribs in
// place. With a nil dirty set it computes every AS, and ribs must hold no
// rib. Otherwise it recomputes only the dirty ASes, whose entries must be
// nil on entry, and reads every other entry as an immutable boundary: the
// offers clean neighbours export are injected at the round the full
// computation delivers them. In phases 1 and 3 an offer's arrival round
// equals its AS-path length, so boundary exports can be scheduled exactly.
// Links disabled via Topology.SetLinkEnabled carry no offers in any phase.
//
// Offers live in the arena's flat lists, never in per-AS maps: phases 1
// and 3 keep one list per path length (a level), and settle a level by
// grouping its list by receiving AS, ascending, each receiver's offers in
// arrival order. Phase 2 visits receivers in ascending order and gathers
// each one's offers as it goes. Every AS sees its offers in one fixed
// order, which matters because capClass's sorts are unstable and routeCmp
// ignores fields (IXP, class, final upstream, communities) that still tell
// two routes apart.
//
// With provenance on, a recorder captures the best rejected offer per
// (AS, class) at every point an offer is suppressed or capped out, and each
// recomputed AS's rib gets a record pairing its selection with its
// runner-up. With provenance off, pr stays nil, every capture site is a
// single branch, and the ribs carry no record.
func (e *Engine) converge(a *arena, prefix netip.Prefix, anns []SiteAnnouncement, ribs ribTable, dirty *asBits) error {
	a.begin(dirty)
	var pr *provRecorder
	if e.provOn {
		pr = &a.prov
		pr.begin(a.n)
	}
	// Every node this converge creates comes from its slab; see nodeSlab.
	slab := &nodeSlab{}
	getRIB := func(i int32) *rib {
		r := ribs[i]
		if r == nil {
			r = &rib{}
			ribs[i] = r
		}
		return r
	}
	// settle runs capClass for AS i's offers of one class and closes it.
	settle := func(i int32, routes []Route, c RelClass) {
		t := e.adj.traits[i]
		rb := getRIB(i)
		var kept []bool
		if pr != nil {
			a.kept = slices.Grow(a.kept[:0], len(routes))[:len(routes)]
			kept = a.kept
		}
		rb.routes = capClass(rb.routes, routes, int(t.cap), t.arbitrary, kept)
		rb.close(c)
		pr.dropMissing(int(i), routes, kept)
	}
	// dropExport records, with provenance on, the offers a dirty receiver
	// heard after it had settled.
	dropExport := func(to int32, from topo.ASN, set []Route, li int32, rel RelClass) {
		if pr != nil && isDirty(dirty, to) {
			a.tmp = e.export(slab, a.tmp[:0], from, set, li, rel)
			pr.dropRoutes(int(to), a.tmp)
		}
	}

	// Phase 0: origin self routes and seed routes at direct neighbours.
	// A site announces its prefixes over the BGP sessions at the site's
	// own city only; other cities of the same link do not carry it. In
	// scoped mode only dirty origins rebuild their self routes (a clean
	// origin's carried-over rib must never be appended to) and only dirty
	// neighbours receive seeds. A neighbour hears at most one seed per
	// announcement (there is one link per AS pair), so its seeds arrive in
	// announcement order.
	for _, ann := range anns {
		oi := int32(e.asIdx[ann.Origin])
		site := symbols.intern(ann.Site)
		chain, head := ann.seedChain(slab)
		if isDirty(dirty, oi) {
			// The origin's own rib carries the plain one-hop self route:
			// prepending shapes what the site exports, not how the origin
			// reaches itself.
			a.origins.add(int(oi))
			rb := getRIB(oi)
			rb.routes = append(rb.routes, Route{
				Rel:           FromOrigin,
				path:          head,
				plen:          1,
				site:          site,
				FinalUpstream: ann.Origin,
			})
			rb.close(FromOrigin)
		}
		for _, nl := range e.adjacent(oi) {
			if !e.topo.LinkEnabled(int(nl.li)) || !slices.Contains(e.linkCities[nl.li], head.city) {
				continue
			}
			nbr := e.byIdx[nl.nbr]
			if !ann.announcesTo(nbr) || !isDirty(dirty, nl.nbr) {
				continue
			}
			r := Route{
				Rel:           nl.rel,
				path:          chain,
				plen:          uint16(ann.Prepend + 1),
				site:          site,
				ixp:           e.linkIXP[nl.li],
				FinalUpstream: nbr,
			}
			if e.policy != nil {
				var rejected bool
				r.Comms, r.Rel, rejected = e.applySeedPolicy(prefix, ann, nbr, r.Rel)
				if rejected {
					if pr != nil {
						pr.dropPolicy(int(nl.nbr), r)
					}
					continue
				}
			}
			o := offer{nl.nbr, r}
			switch r.Rel {
			case FromCustomer:
				l := a.level(r.Len())
				*l = append(*l, o)
			case FromPublicPeer, FromRSPeer:
				a.peerSeeds = append(a.peerSeeds, o)
			case FromProvider:
				a.provSeeds = append(a.provSeeds, o)
			}
		}
	}
	// Canonicalise self-route order so routing state is a function of the
	// announcement *set*, not its slice order (withdraw + re-announce moves
	// a site to the end of the announcement list).
	a.origins.forEach(func(i int) {
		slices.SortFunc(ribs[i].class(FromOrigin), routeCmp)
	})

	// Phase 1: customer routes climb the provider hierarchy level by
	// level; each AS keeps only its first (shortest) generation. An
	// offer's arrival round equals its AS-path length: a prepended seed
	// enters the climb at round 1+Prepend, so a provider hearing both a
	// prepended and an unprepended site finalizes on the shorter path
	// alone — which is how prepending sheds a customer cone. The same
	// invariant lets scoped runs inject boundary exports from clean
	// customers at the round the full computation would deliver them. A
	// round's offers arrive as the previous round's exports, then the
	// round's scheduled seeds and boundary exports.
	if dirty != nil {
		for _, i := range a.dirty {
			for _, nl := range e.customers(i) {
				ci := nl.nbr
				if !e.topo.LinkEnabled(int(nl.li)) || dirty.has(int(ci)) {
					continue
				}
				crib := ribs[ci]
				if crib == nil || hasOrigin(crib) {
					continue // origin exports arrive as per-site seeds
				}
				set := crib.class(FromCustomer)
				if len(set) == 0 {
					continue
				}
				l := a.level(set[0].Len() + 1)
				*l = e.exportTo(slab, *l, i, e.byIdx[ci], set, nl.li, FromCustomer)
			}
		}
	}
	maxRound := a.top
	round := 1
	for ; len(a.exp) > 0 || round <= maxRound; round++ {
		// A path visits each AS at most once, plus the origin's prepends.
		if round > e.n+1+MaxPrepend {
			return &NonTerminationError{Prefix: prefix, Phase: 1, Iterations: round}
		}
		work := a.exp
		if round < len(a.pre) {
			work = append(work, a.pre[round]...)
			a.pre[round] = a.pre[round][:0]
		}
		a.group(work)
		a.exp = work[:0]
		frontier := a.frontier[:0]
		for k, i := range a.recv {
			routes := a.buf[a.off[k]:a.off[k+1]]
			if hasOrigin(ribs[i]) || a.settled.has(int(i)) {
				pr.dropRoutes(int(i), routes) // arrived after the AS settled: lost
				continue
			}
			settle(i, routes, FromCustomer)
			a.settled.add(int(i))
			frontier = append(frontier, i)
		}
		a.frontier = frontier
		for _, i := range frontier {
			set := ribs[i].class(FromCustomer)
			asn := e.byIdx[i]
			for _, nl := range e.providers(i) {
				if !e.topo.LinkEnabled(int(nl.li)) {
					continue
				}
				pi := nl.nbr
				if !isDirty(dirty, pi) || a.settled.has(int(pi)) || hasOrigin(ribs[pi]) {
					// A dirty receiver that already settled still *heard*
					// this export; record it as dropped so its runner-up
					// reflects the full offer stream. Clean receivers keep
					// their carried-over provenance instead.
					dropExport(pi, asn, set, nl.li, FromCustomer)
					continue
				}
				a.exp = e.exportTo(slab, a.exp, pi, asn, set, nl.li, FromCustomer)
			}
		}
	}
	e.eobs.p1rounds.Observe(int64(round - 1))

	// Phase 2: one hop over peering links; only own/customer routes are
	// exported to peers (Gao-Rexford). Each receiver hears its seeds, then
	// its peers' exports in link order; a scoped run visits only the dirty
	// region's peering sessions.
	slices.SortStableFunc(a.peerSeeds, func(x, y offer) int { return cmp.Compare(x.to, y.to) })
	seeds := a.peerSeeds
	for _, ti := range a.dirty {
		buf := a.buf[:0]
		for ; len(seeds) > 0 && seeds[0].to == ti; seeds = seeds[1:] {
			buf = append(buf, seeds[0].r)
		}
		for _, nl := range e.peers(ti) {
			if !e.topo.LinkEnabled(int(nl.li)) {
				continue
			}
			fromRIB := ribs[nl.nbr]
			// Origin exports were already seeded per site; skip here.
			if fromRIB == nil || hasOrigin(fromRIB) {
				continue
			}
			if set := fromRIB.class(FromCustomer); len(set) > 0 {
				buf = e.export(slab, buf, e.byIdx[nl.nbr], set, nl.li, nl.rel)
			}
		}
		a.buf = buf
		if len(buf) == 0 {
			continue
		}
		if hasOrigin(ribs[ti]) {
			pr.dropRoutes(int(ti), buf) // origins never import peer routes
			continue
		}
		// Public-peer offers to the front; every other offer over a
		// peering session is a route-server one.
		np := partition(buf, func(r Route) bool { return r.Rel == FromPublicPeer })
		settle(ti, buf[:np], FromPublicPeer)
		settle(ti, buf[np:], FromRSPeer)
	}

	// Phase 3: selected routes descend provider->customer edges
	// level-synchronously by path length. Every AS always exports its
	// final selection to its customers. A clean provider's selection is
	// unchanged by definition, so a scoped run injects its export at the
	// level its selected-path length dictates. A level's offers arrive as
	// its provider seeds, then the previous level's exports, then its
	// boundary exports. The descent stops once it has passed every
	// exporter's level and no unsettled AS holds a pending offer; a settled
	// AS's longer pending seeds are dropped offers, whether or not the
	// descent reaches their level.
	a.settled.reset()
	maxLen := 0
	for _, i := range a.dirty {
		rb := ribs[i]
		if rb == nil {
			continue
		}
		if ln, ok := rb.selLen(); ok {
			l := levelOf(&a.exporters, ln)
			*l = append(*l, i)
			a.settled.add(int(i))
			maxLen = max(maxLen, ln)
		}
	}
	if dirty != nil {
		for _, i := range a.dirty {
			for _, nl := range e.providers(i) {
				pi := nl.nbr
				if !e.topo.LinkEnabled(int(nl.li)) || dirty.has(int(pi)) || ribs[pi] == nil {
					continue
				}
				cls, set, ok := ribs[pi].best()
				if !ok || cls == FromOrigin {
					continue // origin exports arrive as per-site seeds
				}
				ln := set[0].Len()
				l := levelOf(&a.bounds, ln)
				*l = append(*l, boundary{nl.li, i, pi})
				maxLen = max(maxLen, ln)
			}
		}
	}
	// waiting counts the unsettled ASes holding a pending offer.
	waiting := 0
	pend := func(i int32) {
		if !a.pend.has(int(i)) {
			a.pend.add(int(i))
			waiting++
		}
	}
	for _, o := range a.provSeeds {
		if a.settled.has(int(o.to)) {
			pr.drop(int(o.to), o.r)
			continue
		}
		l := a.level(o.r.Len())
		*l = append(*l, o)
		pend(o.to)
	}
	ln := 0
	for ; ln <= maxLen || waiting > 0; ln++ {
		if ln > e.n+MaxPrepend {
			return &NonTerminationError{Prefix: prefix, Phase: 3, Iterations: ln}
		}
		// Settle the ASes whose cheapest provider offers have length ln.
		work := a.exp
		if ln < len(a.pre) && len(a.pre[ln]) > 0 {
			work = append(a.pre[ln], a.exp...)
			a.pre[ln] = work[:0]
		}
		a.group(work)
		a.exp = a.exp[:0]
		exps := a.frontier[:0]
		for k, i := range a.recv {
			routes := a.buf[a.off[k]:a.off[k+1]]
			if a.settled.has(int(i)) {
				pr.dropRoutes(int(i), routes) // a longer seed of a settled AS
				continue
			}
			settle(i, routes, FromProvider)
			a.settled.add(int(i))
			waiting--
			exps = append(exps, i)
		}
		if ln < len(a.exporters) && len(a.exporters[ln]) > 0 {
			exps = append(exps, a.exporters[ln]...)
			slices.Sort(exps)
			a.exporters[ln] = a.exporters[ln][:0]
		}
		a.frontier = exps
		for _, i := range exps {
			cls, set, ok := ribs[i].best()
			if !ok || cls == FromOrigin {
				continue // origin exports were seeded per site
			}
			asn := e.byIdx[i]
			for _, nl := range e.customers(i) {
				if !e.topo.LinkEnabled(int(nl.li)) {
					continue
				}
				ci := nl.nbr
				if !isDirty(dirty, ci) || a.settled.has(int(ci)) {
					dropExport(ci, asn, set, nl.li, FromProvider)
					continue
				}
				a.exp = e.exportTo(slab, a.exp, ci, asn, set, nl.li, FromProvider)
				pend(ci)
			}
		}
		// Inject boundary exports whose selected-path length is ln.
		if ln < len(a.bounds) {
			for _, b := range a.bounds[ln] {
				_, set, _ := ribs[b.pi].best()
				if a.settled.has(int(b.ci)) {
					dropExport(b.ci, e.byIdx[b.pi], set, b.li, FromProvider)
					continue
				}
				a.exp = e.exportTo(slab, a.exp, b.ci, e.byIdx[b.pi], set, b.li, FromProvider)
				pend(b.ci)
			}
			a.bounds[ln] = a.bounds[ln][:0]
		}
	}
	e.eobs.p3levels.Observe(int64(ln))
	// Seeds at levels the descent never reached went to settled ASes.
	for ; ln < len(a.pre); ln++ {
		for _, o := range a.pre[ln] {
			pr.drop(int(o.to), o.r)
		}
		a.pre[ln] = a.pre[ln][:0]
	}
	if pr != nil {
		e.record(ribs, a.dirty, pr)
	}
	return nil
}

// arena is converge's working storage: the offer lists, the grouping
// scratch and the per-pass AS sets. It outlives one converge — a
// reconverge runs all its passes on one, and released arenas are pooled —
// because allocating it afresh per pass was most of what converge cost.
// One arena serves one converge at a time. A converge that returns without
// error leaves every level list and exp empty and every slot zero; an idle
// arena also holds no route or rib reference (see arenaPool.put), so it
// pins no routing state.
type arena struct {
	n int
	// dirty lists the ASes the pass recomputes, ascending (every AS for a
	// full converge).
	dirty []int32
	// pre holds, per level (path length), the offers known before a
	// phase's loop starts: phase 1's seeds and boundary exports, then
	// phase 3's provider seeds. top is the highest level used.
	pre [][]offer
	top int
	// exp collects the offers the current level exports to the next.
	exp                  []offer
	peerSeeds, provSeeds []offer
	// exporters and bounds hold, per level, phase 3's exporters settled
	// before the descent and its boundary links.
	exporters [][]int32
	bounds    [][]boundary
	// group's output: the receivers ascending, receiver k's routes being
	// buf[off[k]:off[k+1]]. slot is its per-AS counter, zero between uses.
	recv, off []int32
	buf       []Route
	slot      []int32
	frontier  []int32
	tmp       []Route
	// origins, settled and pend are the pass's origin, settled and
	// pending-offer sets.
	origins, settled, pend asBits
	// prev holds, during a reconverge pass, its dirty ASes' previous ribs.
	prev []*rib
	// prov is the provenance recorder of a recording pass, and kept is
	// capClass's report of the offers it retained.
	prov provRecorder
	kept []bool
}

// arenaPool holds the idle arenas of an engine and its forks. Unlike a
// sync.Pool it never drops an arena, so converge allocates the same with or
// without the race detector and across garbage collections; it holds at most
// as many arenas as converges ever ran at once.
type arenaPool struct {
	mu   sync.Mutex
	n    int
	idle []*arena
}

// get returns an idle arena, or a new one.
func (p *arenaPool) get() *arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.idle); k > 0 {
		a := p.idle[k-1]
		p.idle[k-1] = nil
		p.idle = p.idle[:k-1]
		return a
	}
	n := p.n
	return &arena{n: n, slot: make([]int32, n), origins: *newASBits(n), settled: *newASBits(n), pend: *newASBits(n)}
}

// put empties an arena, clearing every route and rib reference it holds
// (an error can leave offers behind), and returns it to the pool.
func (p *arenaPool) put(a *arena) {
	for i := range a.pre {
		a.pre[i] = wipe(a.pre[i])
	}
	for i := range a.exporters {
		a.exporters[i] = a.exporters[i][:0]
	}
	for i := range a.bounds {
		a.bounds[i] = a.bounds[i][:0]
	}
	a.exp, a.peerSeeds, a.provSeeds = wipe(a.exp), wipe(a.peerSeeds), wipe(a.provSeeds)
	a.buf, a.tmp, a.prev = wipe(a.buf), wipe(a.tmp), wipe(a.prev)
	a.prov.clear()
	p.mu.Lock()
	p.idle = append(p.idle, a)
	p.mu.Unlock()
}

// wipe empties s and clears its whole backing array.
func wipe[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// begin readies the arena for one converge pass over dirty (nil: all).
func (a *arena) begin(dirty *asBits) {
	a.dirty = a.dirty[:0]
	if dirty == nil {
		for i := range a.n {
			a.dirty = append(a.dirty, int32(i))
		}
	} else {
		dirty.forEach(func(i int) { a.dirty = append(a.dirty, int32(i)) })
	}
	a.top = 0
	a.peerSeeds, a.provSeeds = a.peerSeeds[:0], a.provSeeds[:0]
	a.origins.reset()
	a.settled.reset()
	a.pend.reset()
}

// level returns the scheduled-offer list of level l.
func (a *arena) level(l int) *[]offer {
	a.top = max(a.top, l)
	return levelOf(&a.pre, l)
}

// levelOf returns level l of a level-indexed list, growing it as needed.
func levelOf[T any](levels *[][]T, l int) *[]T {
	for len(*levels) <= l {
		*levels = append(*levels, nil)
	}
	return &(*levels)[l]
}

// group arranges offers by receiving AS: recv lists the receivers
// ascending, and buf holds each receiver's routes contiguously in arrival
// order (a counting sort over the dense AS index).
func (a *arena) group(offers []offer) {
	a.recv = a.recv[:0]
	for _, o := range offers {
		if a.slot[o.to] == 0 {
			a.recv = append(a.recv, o.to)
		}
		a.slot[o.to]++
	}
	slices.Sort(a.recv)
	a.off = append(a.off[:0], 0)
	var end int32
	for _, i := range a.recv {
		end, a.slot[i] = end+a.slot[i], end
		a.off = append(a.off, end)
	}
	a.buf = slices.Grow(a.buf[:0], len(offers))[:len(offers)]
	for _, o := range offers {
		a.buf[a.slot[o.to]] = o.r
		a.slot[o.to]++
	}
	for _, i := range a.recv {
		a.slot[i] = 0
	}
}

// ArbitraryTieBreakFraction is the share of non-tier-1 ASes whose
// equal-preference tie-break is geography-blind (modelling router-ID/oldest-
// route tie-breaks and single-exit designs); the rest pick the exit with
// the least downstream carriage (well-engineered hot-potato). Operator
// heterogeneity is what makes catchment inefficiency common but not
// universal (cf. Koch et al.'s ~30% of users with 30+ ms inflation).
const ArbitraryTieBreakFraction = 0.7

// asTrait is an AS's per-class route-retention policy: how many routes it
// keeps and whether its tie-break is geography-blind (arbitrary) rather
// than nearest-downstream. It is a deterministic property of the AS.
type asTrait struct {
	cap       uint8
	arbitrary bool
}

// traitOf returns an AS's retention policy.
func traitOf(as *topo.AS) asTrait {
	switch as.Tier {
	case topo.Tier1:
		return asTrait{MaxRoutesPerClass, false}
	case topo.Tier2:
		return asTrait{Tier2NeighborsPerClass, arbitraryOperator(as.ASN)}
	default:
		// Edge networks are effectively single-homed per destination and
		// hand traffic to whichever of their providers serves them best;
		// the catchment randomness of the Internet lives in the carriers
		// above them.
		return asTrait{1, false}
	}
}

// arbitraryOperator deterministically assigns the geography-blind trait to
// ArbitraryTieBreakFraction of ASes.
func arbitraryOperator(asn topo.ASN) bool {
	// Knuth multiplicative hash for a stable pseudo-random trait.
	h := uint32(asn) * 2654435761
	return float64(h)/float64(^uint32(0)) < ArbitraryTieBreakFraction
}

// export appends to dst the routes an AS learns from `from` over link li,
// filed under class rel: one per interconnection city, carrying from's
// hot-potato egress choice for traffic entering at that city. Each
// prepends one node, taken from s, to the chosen route's shared chain.
func (e *Engine) export(s *nodeSlab, dst []Route, from topo.ASN, set []Route, li int32, rel RelClass) []Route {
	if len(set) == 0 {
		return dst
	}
	for _, c := range e.linkCities[li] {
		dst = append(dst, exportAt(s, from, set, c, rel))
	}
	return dst
}

// exportTo is export into an offer list, every route addressed to AS
// index to.
func (e *Engine) exportTo(s *nodeSlab, dst []offer, to int32, from topo.ASN, set []Route, li int32, rel RelClass) []offer {
	if len(set) == 0 {
		return dst
	}
	for _, c := range e.linkCities[li] {
		dst = append(dst, offer{to, exportAt(s, from, set, c, rel)})
	}
	return dst
}

// exportAt is the route from exports for traffic entering it at city c.
func exportAt(s *nodeSlab, from topo.ASN, set []Route, c geo.CityID, rel RelClass) Route {
	r, _ := hotPotato(set, c)
	nr := r.prepend(s, from, c)
	nr.Rel = rel
	nr.DownKm = geo.KmBetween(c, r.handoff()) + r.DownKm
	return nr
}

// hotPotato picks the route whose handoff city is nearest to the entry
// city, breaking ties deterministically by downstream distance, handoff
// city, then site.
func hotPotato(set []Route, entry geo.CityID) (Route, bool) {
	if len(set) == 0 {
		return Route{}, false
	}
	best := 0
	bestKm := geo.KmBetween(entry, set[0].handoff())
	for i := 1; i < len(set); i++ {
		d := geo.KmBetween(entry, set[i].handoff())
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
//
// A non-nil kept, as long as routes, receives which of the permuted routes
// the result retains: kept[j] reports that routes[j] is routeEqual to a
// route of the result. Only sub-run leaders are retained, and a route equal
// to one shares its neighbour and handoff city, so it sits in the leader's
// sub-run; the report is one linear pass.
func capClass(dst, routes []Route, cap int, arbitrary bool, kept []bool) []Route {
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
	n = min(n, MaxRoutesPerClass)
	if kept != nil {
		// Leaders are pairwise distinct under routeCmp (equal routes share
		// a neighbour and a handoff city), so a chosen leader survives the
		// cap exactly when it sorts no later than the result's last route.
		clear(kept)
		last := dst[base+n-1]
		for _, g := range groups {
			lead := -1
			for j := g.start; j < g.end; j++ {
				if newCity(j) {
					lead = -1
					if routeCmp(short[j], last) <= 0 {
						lead = j
					}
				}
				kept[j] = lead >= 0 && routeEqual(short[j], short[lead])
			}
		}
	}
	return dst[:base+n]
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

// Table is one prefix's installed rib table, read by dense AS index
// (topo.Topology.ASIndex) and geo.CityID without the engine lock. An
// installed table is never written again — operations build fresh tables,
// and Fork and ResetTo copy pointers (see ribTable) — so a Table answers
// every read exactly as its engine did when it was taken; a later
// operation on the prefix installs a table it does not see.
type Table struct {
	prefix netip.Prefix
	ribs   ribTable
	prov   bool // provenance recording was on (see SetProvenance)
}

// Table returns the prefix's installed table. A prefix the engine never
// announced holds no routes.
func (e *Engine) Table(prefix netip.Prefix) Table {
	e.mu.RLock()
	t := Table{prefix: prefix, ribs: e.ribs[prefix], prov: e.provOn}
	e.mu.RUnlock()
	return t
}

// Prefix returns the table's prefix.
func (t *Table) Prefix() netip.Prefix { return t.prefix }

// rib returns the rib of the AS of dense index ai, nil when it holds none.
func (t *Table) rib(ai int) *rib {
	if t.ribs == nil {
		return nil
	}
	return t.ribs[ai]
}

// Route selects the route traffic from the AS of dense index ai, entering
// it at city c, takes toward the prefix: the route, its class and the
// one-way forwarding distance. ok is false when the AS has no route. It
// allocates nothing.
func (t *Table) Route(ai int, c geo.CityID) (r Route, cls RelClass, distKm float64, ok bool) {
	rb := t.rib(ai)
	if rb == nil {
		return Route{}, 0, 0, false
	}
	cls, set, ok := rb.best()
	if !ok {
		return Route{}, 0, 0, false
	}
	r, _ = hotPotato(set, c)
	return r, cls, geo.KmBetween(c, r.handoff()) + r.DownKm, true
}

// Provenance returns the decision record of the AS of dense index ai, under
// Engine.Provenance's rules.
func (t *Table) Provenance(ai int) (Provenance, bool) {
	rb := t.rib(ai)
	if !t.prov || rb == nil || rb.prov == nil {
		return Provenance{}, false
	}
	return *rb.prov, true
}

// Forward materialises what Route read for asn as Lookup's answer: the
// chain rendered with the client AS in front, unless asn is the origin.
func (t *Table) Forward(asn topo.ASN, r Route, cls RelClass, distKm float64) Forward {
	path, cities := forwardSlices(int(r.plen))
	if cls != FromOrigin {
		path = append(path, asn)
	}
	for n := r.path; n != nil; n = n.next {
		path = append(path, n.asn)
		cities = append(cities, n.city.String())
	}
	return Forward{
		Prefix:        t.prefix,
		Site:          r.Site(),
		Path:          path,
		Cities:        cities,
		DistKm:        distKm,
		Rel:           cls,
		FinalIXP:      r.FinalIXP(),
		FinalUpstream: r.FinalUpstream,
	}
}

// Lookup returns the anycast catchment for traffic originated by asn from
// the given city toward the prefix. ok is false when the prefix is unknown
// or the AS has no route to it.
func (e *Engine) Lookup(prefix netip.Prefix, asn topo.ASN, city string) (Forward, bool) {
	i, known := e.asIdx[asn]
	if !known {
		return Forward{}, false
	}
	t := e.Table(prefix)
	r, cls, distKm, ok := t.Route(i, cityOf(city))
	if !ok {
		return Forward{}, false
	}
	return t.Forward(asn, r, cls, distKm), true
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

// ribOf returns asn's rib for the prefix, nil when it holds none.
func (e *Engine) ribOf(prefix netip.Prefix, asn topo.ASN) *rib {
	i, known := e.asIdx[asn]
	if !known {
		return nil
	}
	t := e.Table(prefix)
	return t.rib(i)
}

// Routes returns the full selected route set for (prefix, asn), most
// preferred class only. It is used by the cause-classification analysis
// (§5.4) to examine alternatives an AS held.
func (e *Engine) Routes(prefix netip.Prefix, asn topo.ASN) (RelClass, []Route, bool) {
	if rb := e.ribOf(prefix, asn); rb != nil {
		return rb.best()
	}
	return 0, nil, false
}

// RoutesByClass returns all routes an AS holds for a prefix in a given
// class, including classes it did not select.
func (e *Engine) RoutesByClass(prefix netip.Prefix, asn topo.ASN, cls RelClass) []Route {
	if rb := e.ribOf(prefix, asn); rb != nil {
		return rb.class(cls)
	}
	return nil
}
