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
// the engine keeps a per-(prefix, site) "failover memory": the set of ASes
// the last withdrawal or restore of that site touched. A later operation on
// the same site seeds its worklist from that memory, which usually reaches
// the fixed point in a single round. Over-seeding is sound — an AS whose
// inputs did not change recomputes to an identical rib and spills nothing.

import (
	"fmt"
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
// incrementally reconverges routing. Withdrawing the last site leaves the
// prefix dark but re-announceable via AnnounceSite.
func (e *Engine) WithdrawSite(prefix netip.Prefix, siteID string) error {
	e.mu.RLock()
	anns, known := e.anns[prefix]
	old := e.ribs[prefix]
	e.mu.RUnlock()
	if !known {
		return fmt.Errorf("bgp: withdraw of site %q for unannounced prefix %s", siteID, prefix)
	}
	idx := -1
	for i, a := range anns {
		if a.Site == siteID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("bgp: prefix %s has no site %q", prefix, siteID)
	}
	e.eobs.siteOps.Inc()
	removed := anns[idx]
	newAnns := slices.Delete(slices.Clone(anns), idx, idx+1)
	if len(newAnns) == 0 {
		// The prefix goes dark: keep the (empty) announcement entry so a
		// later AnnounceSite can restore it, but drop all routing state.
		st := ReconvergeStats{Dirty: old.populated(), Passes: 1}
		e.install(prefix, newAnns, make(ribTable, e.n), st)
		e.eobs.dirty.Observe(int64(st.Dirty))
		e.traceOp("withdraw-site", prefix, st)
		return nil
	}
	dirty := e.siteRefs(old, siteID)
	dirty.add(e.asIdx[removed.Origin])
	e.seedTargets(removed, dirty)
	e.mergeHint(prefix, siteID, dirty)
	touched, err := e.reconverge(prefix, newAnns, old, dirty)
	if err != nil {
		return err
	}
	e.storeHint(prefix, siteID, touched)
	e.traceOp("withdraw-site", prefix, e.LastReconvergeStats())
	return nil
}

// AnnounceSite adds or replaces a single site's announcement for a prefix
// and incrementally reconverges routing. An unknown prefix (or one whose
// announcements were all withdrawn) falls back to a full announcement.
func (e *Engine) AnnounceSite(prefix netip.Prefix, ann SiteAnnouncement) error {
	e.mu.RLock()
	anns, known := e.anns[prefix]
	old := e.ribs[prefix]
	e.mu.RUnlock()
	if !known || len(anns) == 0 {
		return e.Announce(prefix, []SiteAnnouncement{ann})
	}
	if err := e.validateAnn(prefix, ann); err != nil {
		return err
	}
	e.eobs.siteOps.Inc()
	newAnns := slices.Clone(anns)
	dirty := newASBits(e.n)
	dirty.add(e.asIdx[ann.Origin])
	replaced := -1
	for i, a := range newAnns {
		if a.Site == ann.Site {
			replaced = i
			break
		}
	}
	if replaced >= 0 {
		// Both the old and the new incarnation of the site shape the dirty
		// frontier: ASes that held the old routes and neighbours seeded by
		// either announcement city.
		e.seedTargets(newAnns[replaced], dirty)
		dirty.or(e.siteRefs(old, ann.Site))
		newAnns[replaced] = ann
	} else {
		newAnns = append(newAnns, ann)
	}
	e.seedTargets(ann, dirty)
	e.mergeHint(prefix, ann.Site, dirty)
	touched, err := e.reconverge(prefix, newAnns, old, dirty)
	if err != nil {
		return err
	}
	e.storeHint(prefix, ann.Site, touched)
	e.traceOp("announce-site", prefix, e.LastReconvergeStats())
	return nil
}

// mergeHint widens a seed set with the failover memory of a site: the ASes
// the last withdraw/restore of this site touched. Restoring a site whose
// withdrawal footprint is remembered then typically settles in one round.
func (e *Engine) mergeHint(prefix netip.Prefix, siteID string, dirty *asBits) {
	e.mu.RLock()
	hint := e.hints[prefix][siteID]
	e.mu.RUnlock()
	if hint != nil {
		dirty.or(hint)
	}
}

// storeHint records the touched set of a site operation as failover memory.
// A nil set (full-recompute fallback) keeps whatever memory existed. Stored
// sets are never mutated afterwards, so forks can share them by reference.
func (e *Engine) storeHint(prefix netip.Prefix, siteID string, touched *asBits) {
	if touched == nil {
		return
	}
	e.mu.Lock()
	if e.hints[prefix] == nil {
		e.hints[prefix] = map[string]*asBits{}
	}
	e.hints[prefix][siteID] = touched
	e.mu.Unlock()
}

// ReconvergeLinks incrementally reconverges every announced prefix after
// the listed links changed up/down state. Callers flip state with
// Topology.SetLinkEnabled first, then hand the changed indices here; the
// endpoints of each changed link form the initial dirty set (every route
// carried over a link lives in the ribs of its endpoints, so no other AS
// can change at first order).
func (e *Engine) ReconvergeLinks(changed []int) error {
	if len(changed) == 0 {
		return nil
	}
	links := e.topo.Links()
	seed := newASBits(e.n)
	for _, li := range changed {
		if li < 0 || li >= len(links) {
			return fmt.Errorf("bgp: link index %d out of range [0,%d)", li, len(links))
		}
		ai, bi := e.linkEnds(li)
		seed.add(ai)
		seed.add(bi)
	}
	e.eobs.linkOps.Inc()
	var agg ReconvergeStats
	for _, p := range e.Prefixes() {
		e.mu.RLock()
		anns := e.anns[p]
		old := e.ribs[p]
		e.mu.RUnlock()
		if len(anns) == 0 {
			continue // dark prefix: nothing to reconverge
		}
		if _, err := e.reconverge(p, anns, old, seed.clone()); err != nil {
			return err
		}
		st := e.LastReconvergeStats()
		agg.Dirty += st.Dirty
		agg.Passes = max(agg.Passes, st.Passes)
		agg.Full = agg.Full || st.Full
	}
	e.mu.Lock()
	e.lastStats = agg
	e.mu.Unlock()
	if e.eobs.tracer.Enabled() {
		e.eobs.tracer.Emit(obs.Event{
			Scope: "bgp",
			Name:  "reconverge-links",
			Clock: []obs.Coord{{Key: "op", V: e.eobs.seq.Add(1)}},
			Attrs: []obs.Attr{
				obs.Int("links", int64(len(changed))),
				obs.Int("dirty", int64(agg.Dirty)),
				obs.Int("passes", int64(agg.Passes)),
				obs.Bool("full", agg.Full),
			},
		})
	}
	return nil
}

// reconverge runs worklist rounds until no changed export crosses out of
// the recomputed region, then installs the result. Each round recomputes
// only its frontier against the current state — never the whole accumulated
// dirty set — so the total work tracks the number of ASes that actually
// change. If the touched set outgrows three quarters of the topology the
// incremental regime has lost its advantage and a full recompute takes
// over. It returns the touched set (nil after a full fallback).
func (e *Engine) reconverge(prefix netip.Prefix, anns []SiteAnnouncement, old ribTable, seed *asBits) (*asBits, error) {
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
	cur := old
	delta := seed
	touched := seed.clone()
	passes := 0
	for delta.len() > 0 {
		passes++
		if touched.len() > limit || passes > e.n {
			ribs, err := e.converge(prefix, anns, nil)
			if err != nil {
				rsp.End()
				return nil, err
			}
			st := ReconvergeStats{Dirty: e.n, Passes: passes, Full: true}
			e.install(prefix, anns, ribs, st)
			e.eobs.fulls.Inc()
			e.eobs.dirty.Observe(int64(st.Dirty))
			e.eobs.passes.Observe(int64(st.Passes))
			if rsp.Active() {
				rsp.End(obs.Int("dirty", int64(st.Dirty)), obs.Int("passes", int64(st.Passes)),
					obs.Bool("full", true))
			}
			return nil, nil
		}
		frontier := int64(delta.len())
		e.eobs.frontier.Observe(frontier)
		var psp obs.SpanScope
		if spans {
			psp = obs.StartSpan(e.eobs.tracer, e.eobs.reg, e.eobs.passTm, "bgp", "pass",
				obs.Coord{Key: "op", V: e.eobs.seq.Load() + 1}, obs.Coord{Key: "pass", V: int64(passes)})
		}
		ribs, err := e.converge(prefix, anns, &convergeScope{dirty: delta, old: cur})
		if err != nil {
			psp.End()
			rsp.End()
			return nil, err
		}
		delta = e.spill(ribs, cur, delta)
		cur = ribs
		touched.or(delta)
		if psp.Active() {
			psp.End(obs.Int("frontier", frontier), obs.Int("spill", int64(delta.len())))
		}
	}
	st := ReconvergeStats{Dirty: touched.len(), Passes: passes}
	e.install(prefix, anns, cur, st)
	e.eobs.dirty.Observe(int64(st.Dirty))
	e.eobs.passes.Observe(int64(st.Passes))
	if rsp.Active() {
		rsp.End(obs.Int("dirty", int64(st.Dirty)), obs.Int("passes", int64(st.Passes)))
	}
	return touched, nil
}

// spill returns the next worklist round: every AS outside the current round
// to whom some changed recomputed AS now exports different offers. An empty
// result means the recomputed region is export-closed and the state is
// final. The comparison is per link and per phase — a tier-1 whose 64-route
// class changed marginally only drags in the neighbours whose actual offers
// differ, which is what keeps the frontier small.
func (e *Engine) spill(ribs, old ribTable, delta *asBits) *asBits {
	links := e.topo.Links()
	next := newASBits(e.n)
	delta.forEach(func(i int) {
		oldR, newR := old[i], ribs[i]
		if ribEqual(oldR, newR) {
			return
		}
		asn := e.byIdx[i]
		for _, li := range e.topo.LinksOf(asn) {
			if !e.topo.LinkEnabled(li) {
				continue
			}
			l := links[li]
			nbr, ni := l.B, int(e.linkB[li])
			if ni == i {
				nbr, ni = l.A, int(e.linkA[li])
			}
			if delta.has(ni) || next.has(ni) {
				continue
			}
			if e.offersChanged(asn, oldR, newR, l, nbr) {
				next.add(ni)
			}
		}
	})
	return next
}

// offersChanged reports whether `from` exports different offers to `nbr`
// over link l under its old vs new rib. Origin self routes never export
// through this path (they arrive as per-site seeds), matching converge.
func (e *Engine) offersChanged(from topo.ASN, oldR, newR *rib, l topo.Link, nbr topo.ASN) bool {
	switch {
	case l.Type == topo.CustomerToProvider && l.A == from:
		// Customer->provider climb (phase 1): export the customer class.
		return !e.sameExport(from, customerExport(oldR), customerExport(newR), l, nbr)
	case l.Type != topo.CustomerToProvider:
		// Peering (phase 2): also the customer class.
		return !e.sameExport(from, customerExport(oldR), customerExport(newR), l, nbr)
	default:
		// Provider->customer descent (phase 3): export the selection.
		return !e.sameExport(from, selectedExport(oldR), selectedExport(newR), l, nbr)
	}
}

// customerExport returns the route set an AS offers over climb and peering
// links: its customer class, unless it is an origin.
func customerExport(r *rib) []Route {
	if r == nil || len(r.classes[FromOrigin]) > 0 {
		return nil
	}
	return r.classes[FromCustomer]
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

// sameExport reports whether two route sets export identical offers over a
// link. Exports are derived per interconnection city from the hot-potato
// winner alone, so comparing winners city by city avoids materialising the
// export routes (and their path/city allocations) entirely.
func (e *Engine) sameExport(from topo.ASN, oldSet, newSet []Route, l topo.Link, to topo.ASN) bool {
	if len(oldSet) == 0 && len(newSet) == 0 {
		return true
	}
	if routesEqual(oldSet, newSet) {
		return true
	}
	for _, c := range l.Cities {
		ro, okO := e.hotPotato(oldSet, c)
		rn, okN := e.hotPotato(newSet, c)
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
	for i, r := range ribs {
		if r == nil {
			continue
		}
		for c := FromOrigin; c <= FromProvider; c++ {
			if slices.ContainsFunc(r.classes[c], func(rt Route) bool { return rt.Site == siteID }) {
				out.add(i)
				break
			}
		}
	}
	return out
}

// seedTargets marks the neighbours that receive (or received) the
// announcement's per-site seed routes as dirty.
func (e *Engine) seedTargets(a SiteAnnouncement, dirty *asBits) {
	links := e.topo.Links()
	for _, li := range e.topo.LinksOf(a.Origin) {
		l := links[li]
		if !containsCity(l.Cities, a.City) {
			continue
		}
		nbr, ni := l.B, int(e.linkB[li])
		if l.B == a.Origin {
			nbr, ni = l.A, int(e.linkA[li])
		}
		if a.announcesTo(nbr) {
			dirty.add(ni)
		}
	}
}

// routeEqual compares two routes field by field.
func routeEqual(a, b Route) bool {
	return a.Rel == b.Rel && a.Site == b.Site && a.DownKm == b.DownKm &&
		a.FinalIXP == b.FinalIXP && a.FinalUpstream == b.FinalUpstream &&
		slices.Equal(a.Path, b.Path) && slices.Equal(a.Cities, b.Cities) &&
		a.Comms.Equal(b.Comms)
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
	for c := FromOrigin; c <= FromProvider; c++ {
		if !routesEqual(classRoutes(a, c), classRoutes(b, c)) {
			return false
		}
	}
	return true
}

func classRoutes(r *rib, c RelClass) []Route {
	if r == nil {
		return nil
	}
	return r.classes[c]
}

// Catchments returns the serving site for every AS that has a route to the
// prefix, queried from the AS's first (alphabetical) presence city. It is
// the per-AS snapshot the dynamics analyses diff across routing events.
func (e *Engine) Catchments(prefix netip.Prefix) map[topo.ASN]string {
	e.mu.RLock()
	ribs := e.ribs[prefix]
	e.mu.RUnlock()
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
		if r, ok := e.hotPotato(set, as.Cities[0]); ok {
			out[asn] = r.Site
		}
	}
	return out
}
