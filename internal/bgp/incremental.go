package bgp

// Incremental reconvergence: per-site withdraw/announce and fault-driven
// reconvergence that recompute only the "dirty" region of the AS graph
// instead of re-running converge over every AS.
//
// The algorithm is a worklist fixed point. An initial dirty set is derived
// from the change (the ASes whose routing state could possibly differ at
// first order: the origin, the seed neighbours, every AS whose rib
// references a withdrawn site, or the endpoints of a flipped link). A
// scoped converge recomputes exactly those ASes, treating every other
// neighbour's current rib as an immutable boundary whose exports are
// injected at the propagation round the full computation would deliver
// them (in phases 1 and 3 an offer's arrival round equals its AS-path
// length, which makes that schedule exact). Afterwards, every recomputed
// AS whose new route sets export different offers over some link to an AS
// outside the round becomes the next round's worklist — only the spill-over
// frontier is recomputed again, against the partially updated state, never
// the whole dirty set. At the fixed point no changed offer crosses out of
// the recomputed region: every AS was last recomputed after its neighbours'
// exports toward it settled, and every untouched AS never saw an input
// change. Since each AS's rib is a deterministic, arrival-order-independent
// function of the offers it receives, that link-consistent state is exactly
// the one a full recompute produces, bit for bit.
//
// Dirty sets and touched sets are asBits bitsets over the dense AS index
// (see denseset.go): membership and union are word operations and iteration
// is in ascending index order, so the worklist rounds are deterministic by
// construction.
//
// Site withdraw/restore pairs are the dominant fault-injection workload, so
// the engine keeps a per-(prefix, site) "failover memory": the footprint
// (touched set) of the last change to that prefix in which this site was
// the only site whose announcement changed. A later operation on the same
// site seeds its worklist from that memory, which usually reaches the fixed
// point in a single round. A change to several sites at once leaves every
// site's memory as it was: their union footprint is no one site's, and
// would widen each later single-site seed. Over-seeding is sound — an AS
// whose inputs did not change recomputes to an identical rib and spills
// nothing.

import (
	"net/netip"
	"slices"

	"anysim/internal/obs"
	"anysim/internal/topo"
)

// ReconvergeStats describes the work the engine's last (re)convergence did.
type ReconvergeStats struct {
	// Dirty is the number of ASes whose routing state was recomputed.
	Dirty int
	// Passes is the number of scoped convergence passes (>= 1); each pass
	// widens the dirty set until no changed export escapes it.
	Passes int
	// Full reports that routing was recomputed from scratch, either by
	// Announce or because the dirty set outgrew the incremental regime.
	Full bool
}

// LastReconvergeStats returns statistics for the engine's most recent
// convergence (full or incremental).
func (e *Engine) LastReconvergeStats() ReconvergeStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lastStats
}

// WithdrawSite removes a single site's announcement for a prefix and
// incrementally reconverges routing: a batch of one (see ApplyBatch).
// Withdrawing the last site leaves the prefix dark but re-announceable via
// AnnounceSite.
func (e *Engine) WithdrawSite(prefix netip.Prefix, siteID string) error {
	b := e.NewBatch()
	if err := b.WithdrawSite(prefix, siteID); err != nil {
		return err
	}
	st, err := e.commit(b.anns, nil)
	if err != nil {
		return err
	}
	e.traceOp("withdraw-site", prefix, st)
	return nil
}

// AnnounceSite adds or replaces a single site's announcement for a prefix
// and incrementally reconverges routing: a batch of one (see ApplyBatch).
// An unknown prefix, or one whose announcements were all withdrawn,
// converges in full; repeating an identical announcement changes nothing.
func (e *Engine) AnnounceSite(prefix netip.Prefix, ann SiteAnnouncement) error {
	b := e.NewBatch()
	if err := b.AnnounceSite(prefix, ann); err != nil {
		return err
	}
	st, err := e.commit(b.anns, nil)
	if err != nil {
		return err
	}
	e.traceOp("announce-site", prefix, st)
	return nil
}

// mergeHint widens a seed set with the failover memory of a site: the ASes
// the last single-site change of this site touched. Restoring a site whose
// withdrawal footprint is remembered then typically settles in one round.
func (e *Engine) mergeHint(prefix netip.Prefix, siteID string, dirty *asBits) {
	e.mu.RLock()
	hint := e.hints[prefix][siteID]
	e.mu.RUnlock()
	if hint != nil {
		dirty.or(hint)
	}
}

// ReconvergeLinks incrementally reconverges every announced prefix after
// the listed links changed up/down state: a batch of links already flipped
// (see ApplyBatch). Callers flip state with Topology.SetLinkEnabled first,
// then hand the changed indices here; the endpoints of each changed link
// form the initial dirty set (every route carried over a link lives in the
// ribs of its endpoints, so no other AS can change at first order).
func (e *Engine) ReconvergeLinks(changed []int) error {
	if len(changed) == 0 {
		return nil
	}
	st, err := e.commit(nil, changed)
	if err != nil {
		return err
	}
	if e.eobs.tracer.Enabled() {
		e.emitOp("reconverge-links",
			obs.Int("links", int64(len(changed))),
			obs.Int("dirty", int64(st.Dirty)),
			obs.Int("passes", int64(st.Passes)),
			obs.Bool("full", st.Full),
		)
	}
	return nil
}

// reconverge runs worklist rounds until no changed export crosses out of
// the recomputed region, then installs the result. Each round recomputes
// only its frontier against the current state — never the whole accumulated
// dirty set — so the total work tracks the number of ASes that actually
// change. If the touched set outgrows three quarters of the topology the
// incremental regime has lost its advantage and a full recompute takes
// over. It returns the new table and its stats for the caller to install,
// and the touched set (nil after a full fallback).
func (e *Engine) reconverge(prefix netip.Prefix, anns []SiteAnnouncement, old ribTable, seed *asBits) (ribTable, ReconvergeStats, *asBits, error) {
	// The whole operation and each frontier drain are spanned for the
	// profiler. The op clock anticipates the sequence number the caller's
	// operation event will draw (seq+1), so spans and the event that
	// summarizes them share a coordinate. Guarded by spanActive: an
	// uninstrumented engine pays two nil checks and builds no coordinates.
	spans := e.spanActive()
	var rsp obs.SpanScope
	if spans {
		rsp = obs.StartSpan(e.eobs.tracer, e.eobs.reg, e.eobs.reconvTm, "bgp", "reconverge",
			obs.Coord{Key: "op", V: e.eobs.seq.Load() + 1})
	}
	limit := e.n * 3 / 4
	a := e.arenas.get()
	defer e.arenas.put(a)
	// One private working table for the whole operation: every pass
	// rewrites its dirty ASes' entries in place, and nothing installed is
	// ever written.
	work := make(ribTable, e.n)
	copy(work, old)
	delta := seed
	touched := seed.clone()
	passes := 0
	for delta.len() > 0 {
		passes++
		if touched.len() > limit || passes > e.n {
			ribs := make(ribTable, e.n)
			if err := e.converge(a, prefix, anns, ribs, nil); err != nil {
				rsp.End()
				return nil, ReconvergeStats{}, nil, err
			}
			st := ReconvergeStats{Dirty: e.n, Passes: passes, Full: true}
			e.eobs.fulls.Inc()
			e.eobs.dirty.Observe(int64(st.Dirty))
			e.eobs.passes.Observe(int64(st.Passes))
			if rsp.Active() {
				rsp.End(obs.Int("dirty", int64(st.Dirty)), obs.Int("passes", int64(st.Passes)),
					obs.Bool("full", true))
			}
			return ribs, st, nil, nil
		}
		frontier := int64(delta.len())
		e.eobs.frontier.Observe(frontier)
		var psp obs.SpanScope
		if spans {
			psp = obs.StartSpan(e.eobs.tracer, e.eobs.reg, e.eobs.passTm, "bgp", "pass",
				obs.Coord{Key: "op", V: e.eobs.seq.Load() + 1}, obs.Coord{Key: "pass", V: int64(passes)})
		}
		// Save the pass's previous ribs for spill before clearing their
		// entries for recomputation.
		a.prev = a.prev[:0]
		delta.forEach(func(i int) {
			a.prev = append(a.prev, work[i])
			work[i] = nil
		})
		if err := e.converge(a, prefix, anns, work, delta); err != nil {
			psp.End()
			rsp.End()
			return nil, ReconvergeStats{}, nil, err
		}
		delta = e.spill(work, a.prev, delta)
		touched.or(delta)
		if psp.Active() {
			psp.End(obs.Int("frontier", frontier), obs.Int("spill", int64(delta.len())))
		}
	}
	st := ReconvergeStats{Dirty: touched.len(), Passes: passes}
	e.eobs.dirty.Observe(int64(st.Dirty))
	e.eobs.passes.Observe(int64(st.Passes))
	if rsp.Active() {
		rsp.End(obs.Int("dirty", int64(st.Dirty)), obs.Int("passes", int64(st.Passes)))
	}
	return work, st, touched, nil
}

// spill returns the next worklist round: every AS outside the current round
// to whom some changed recomputed AS now exports different offers. prev
// holds the round's previous ribs, in delta's ascending order. An empty
// result means the recomputed region is export-closed and the state is
// final. The comparison is per link and per phase — a tier-1 whose 64-route
// class changed marginally only drags in the neighbours whose actual offers
// differ, which is what keeps the frontier small.
func (e *Engine) spill(ribs ribTable, prev []*rib, delta *asBits) *asBits {
	next := newASBits(e.n)
	k := 0
	delta.forEach(func(i int) {
		oldR, newR := prev[k], ribs[i]
		k++
		if ribEqual(oldR, newR) {
			return
		}
		// Providers and peers hear the customer class (phases 1 and 2),
		// customers the selection (phase 3). Origin self routes never
		// export through this path: they arrive as per-site seeds.
		oldCust, newCust := customerExport(oldR), customerExport(newR)
		oldSel, newSel := selectedExport(oldR), selectedExport(newR)
		for _, nl := range e.adjacent(int32(i)) {
			ni := int(nl.nbr)
			if !e.topo.LinkEnabled(int(nl.li)) || delta.has(ni) || next.has(ni) {
				continue
			}
			o, n := oldCust, newCust
			if nl.rel == FromProvider {
				o, n = oldSel, newSel
			}
			if !e.sameExport(o, n, nl.li) {
				next.add(ni)
			}
		}
	})
	return next
}

// customerExport returns the route set an AS offers over climb and peering
// links: its customer class, unless it is an origin.
func customerExport(r *rib) []Route {
	if r == nil || hasOrigin(r) {
		return nil
	}
	return r.class(FromCustomer)
}

// selectedExport returns the route set an AS offers to its customers: its
// best class, unless it is an origin.
func selectedExport(r *rib) []Route {
	if r == nil {
		return nil
	}
	cls, set, ok := r.best()
	if !ok || cls == FromOrigin {
		return nil
	}
	return set
}

// sameExport reports whether two route sets export identical offers over
// link li. Exports are derived per interconnection city from the
// hot-potato winner alone, so comparing winners city by city avoids
// materialising the export routes entirely.
func (e *Engine) sameExport(oldSet, newSet []Route, li int32) bool {
	if len(oldSet) == 0 && len(newSet) == 0 {
		return true
	}
	if routesEqual(oldSet, newSet) {
		return true
	}
	for _, c := range e.linkCities[li] {
		ro, okO := hotPotato(oldSet, c)
		rn, okN := hotPotato(newSet, c)
		if okO != okN || (okO && !routeEqual(ro, rn)) {
			return false
		}
	}
	return true
}

// siteRefs collects every AS whose routing state references the given site
// in any preference class.
func (e *Engine) siteRefs(ribs ribTable, siteID string) *asBits {
	out := newASBits(e.n)
	site, ok := symbols.lookup(siteID)
	if !ok {
		return out // never announced, so no route carries it
	}
	for i, r := range ribs {
		if r != nil && slices.ContainsFunc(r.routes, func(rt Route) bool { return rt.site == site }) {
			out.add(i)
		}
	}
	return out
}

// seedTargets marks the neighbours that receive (or received) the
// announcement's per-site seed routes as dirty.
func (e *Engine) seedTargets(a SiteAnnouncement, dirty *asBits) {
	c := cityOf(a.City)
	for _, nl := range e.adjacent(int32(e.asIdx[a.Origin])) {
		if slices.Contains(e.linkCities[nl.li], c) && a.announcesTo(e.byIdx[nl.nbr]) {
			dirty.add(int(nl.nbr))
		}
	}
}

// routeEqual compares two routes field by field, and their chains hop by
// hop.
func routeEqual(a, b Route) bool {
	return a.Rel == b.Rel && a.site == b.site && a.DownKm == b.DownKm &&
		a.ixp == b.ixp && a.FinalUpstream == b.FinalUpstream && a.plen == b.plen &&
		pathEqual(a.path, b.path) && a.Comms.Equal(b.Comms)
}

func routesEqual(a, b []Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !routeEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ribEqual compares two ribs class by class; a nil rib equals an empty one
// (an AS can hold an allocated-but-empty rib after a class emptied out).
func ribEqual(a, b *rib) bool {
	var ea, eb [FromProvider + 1]uint16
	var ra, rb []Route
	if a != nil {
		ea, ra = a.ends, a.routes
	}
	if b != nil {
		eb, rb = b.ends, b.routes
	}
	return ea == eb && routesEqual(ra, rb)
}

// Catchments returns the serving site for every AS that has a route to the
// prefix, queried from the AS's first (alphabetical) presence city. It is
// the per-AS snapshot the dynamics analyses diff across routing events.
func (e *Engine) Catchments(prefix netip.Prefix) map[topo.ASN]string {
	ribs := e.Table(prefix).ribs
	out := make(map[topo.ASN]string, len(ribs))
	for i, rb := range ribs {
		if rb == nil {
			continue
		}
		_, set, ok := rb.best()
		if !ok {
			continue
		}
		asn := e.byIdx[i]
		as, ok := e.topo.AS(asn)
		if !ok || len(as.Cities) == 0 {
			continue
		}
		if r, ok := hotPotato(set, cityOf(as.Cities[0])); ok {
			out[asn] = r.Site()
		}
	}
	return out
}
