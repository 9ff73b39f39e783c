package bgp

// Batch ingest: a run of routing changes — site withdrawals and
// announcements, link failures and repairs — applied as one reconvergence
// of their net change. A feed delivers faults in bursts, and inside a burst
// most faults open and close again; applied one at a time, each costs a
// reconvergence, while their net change is often nothing at all.
//
// A Batch stages the changes against the engine's current state, checking
// each by the rules the one-at-a-time operations enforce. ApplyBatch then
// reconverges each prefix once, seeded with the union of what the staged
// operations would have seeded one by one, and installs every prefix's
// result at once. Incremental reconvergence lands on the state a full
// recompute produces from any seed covering the first-order change, so the
// result is bit-identical to applying the changes in order.

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"

	"anysim/internal/obs"
)

// Batch stages routing changes against an engine's current state for
// ApplyBatch. Staging validates every change against the state the changes
// staged before it leave, and mutates neither the engine nor its topology.
// Between staging and ApplyBatch nothing else may mutate either.
type Batch struct {
	e *Engine
	// anns holds the staged announcement slice of every edited prefix, in
	// the order the one-at-a-time edits leave it.
	anns map[netip.Prefix][]SiteAnnouncement
	// links holds the staged up/down state of every link the batch sets.
	links map[int]bool
}

// NewBatch returns an empty batch staged against e.
func (e *Engine) NewBatch() *Batch {
	return &Batch{e: e, anns: map[netip.Prefix][]SiteAnnouncement{}, links: map[int]bool{}}
}

// staged returns a prefix's announcements as the batch leaves them so far,
// and whether the prefix is known (announced, possibly dark).
func (b *Batch) staged(p netip.Prefix) ([]SiteAnnouncement, bool) {
	if anns, ok := b.anns[p]; ok {
		return anns, true
	}
	b.e.mu.RLock()
	defer b.e.mu.RUnlock()
	anns, ok := b.e.anns[p]
	return anns, ok
}

// WithdrawSite stages the removal of a site's announcement for a prefix,
// failing as Engine.WithdrawSite would.
func (b *Batch) WithdrawSite(prefix netip.Prefix, siteID string) error {
	anns, known := b.staged(prefix)
	if !known {
		return fmt.Errorf("bgp: withdraw of site %q for unannounced prefix %s", siteID, prefix)
	}
	i := slices.IndexFunc(anns, func(a SiteAnnouncement) bool { return a.Site == siteID })
	if i < 0 {
		return fmt.Errorf("bgp: prefix %s has no site %q", prefix, siteID)
	}
	b.anns[prefix] = slices.Delete(slices.Clone(anns), i, i+1)
	return nil
}

// AnnounceSite stages adding or replacing a site's announcement for a
// prefix, failing as Engine.AnnounceSite would. A replaced site keeps its
// position; a new one goes last.
func (b *Batch) AnnounceSite(prefix netip.Prefix, ann SiteAnnouncement) error {
	if err := b.e.validateAnn(prefix, ann); err != nil {
		return err
	}
	anns, _ := b.staged(prefix)
	next := slices.Clone(anns)
	if i := slices.IndexFunc(next, func(a SiteAnnouncement) bool { return a.Site == ann.Site }); i >= 0 {
		next[i] = ann
	} else {
		next = append(next, ann)
	}
	b.anns[prefix] = next
	return nil
}

// SetLink stages a link's up/down state.
func (b *Batch) SetLink(li int, enabled bool) error {
	if n := len(b.e.linkA); li < 0 || li >= n {
		return fmt.Errorf("bgp: link index %d out of range [0,%d)", li, n)
	}
	b.links[li] = enabled
	return nil
}

// ApplyBatch applies a staged batch: it flips the links whose staged state
// differs from the topology's, reconverges every prefix once over the
// batch's net change, and installs all results at once. On error the links
// flip back and the engine is left as it was. LastReconvergeStats then
// sums the batch's work over prefixes (Passes is the most any prefix took);
// a batch whose changes cancel out does none.
func (e *Engine) ApplyBatch(b *Batch) error {
	if b.e != e {
		return fmt.Errorf("bgp: batch staged against another engine")
	}
	var links []int
	for li, on := range b.links {
		if e.topo.LinkEnabled(li) != on {
			links = append(links, li)
		}
	}
	slices.Sort(links)
	flip := func(undo bool) {
		for _, li := range links {
			e.topo.SetLinkEnabled(li, b.links[li] != undo) // staged indices are in range
		}
	}
	flip(false)
	st, err := e.commit(b.anns, links)
	if err != nil {
		flip(true)
		return err
	}
	if e.eobs.tracer.Enabled() {
		e.emitOp("apply-batch",
			obs.Int("prefixes", int64(len(b.anns))),
			obs.Int("links", int64(len(links))),
			obs.Int("dirty", int64(st.Dirty)),
			obs.Int("passes", int64(st.Passes)),
			obs.Bool("full", st.Full),
		)
	}
	return nil
}

// prefixResult is one prefix's outcome of a commit, installed with the rest.
type prefixResult struct {
	prefix  netip.Prefix
	anns    []SiteAnnouncement
	ribs    ribTable
	touched *asBits  // the reconverge's footprint; nil after a full recompute
	sites   []string // sites whose announcement changed
}

// commit reconverges every prefix over a net change and installs the
// results at once, so an error leaves the engine unchanged. staged holds the
// final announcement slices of edited prefixes; links lists links whose
// state has already flipped. Per prefix:
//
//   - a prefix that goes dark installs an empty table, and a dark or new
//     prefix that gets sites converges in full;
//   - otherwise one reconverge runs, seeded with the endpoints of the
//     flipped links and, for every site whose announcement was added,
//     removed or changed in value, its origin, the neighbours its old and
//     new announcements seed, the ASes whose routes reference it, and its
//     failover memory;
//   - a site that only moved within the announcement slice is no change:
//     routing is a function of the announcement set (converge sorts origin
//     self routes), so the new order is installed without reconverging.
//
// A reconverge's touched set becomes a site's failover memory only when
// that site is the prefix's sole changed site; in a change to several sites
// each keeps its old memory. The prefix's hint map is replaced, never
// mutated, and stored sets are never mutated afterwards, so forks and
// snapshots share both by reference.
func (e *Engine) commit(staged map[netip.Prefix][]SiteAnnouncement, links []int) (ReconvergeStats, error) {
	linkSeed := newASBits(e.n)
	for _, li := range links {
		if li < 0 || li >= len(e.linkA) {
			return ReconvergeStats{}, fmt.Errorf("bgp: link index %d out of range [0,%d)", li, len(e.linkA))
		}
		ai, bi := e.linkEnds(li)
		linkSeed.add(ai)
		linkSeed.add(bi)
	}
	if len(links) > 0 {
		e.eobs.linkOps.Inc()
	}
	var (
		results []prefixResult
		agg     ReconvergeStats
	)
	for _, p := range e.batchPrefixes(staged, len(links) > 0) {
		e.mu.RLock()
		old, oldRibs := e.anns[p], e.ribs[p]
		e.mu.RUnlock()
		next, edited := staged[p]
		if !edited {
			next = old
		}
		res := prefixResult{prefix: p, anns: next, ribs: oldRibs}
		var st ReconvergeStats
		switch {
		case len(next) == 0 && len(old) == 0:
			continue // dark stays dark
		case len(next) == 0:
			// The prefix goes dark: keep the (empty) announcement entry so
			// a later announcement can restore it, but drop all routing.
			e.eobs.siteOps.Add(int64(len(old)))
			res.ribs = make(ribTable, e.n)
			st = ReconvergeStats{Dirty: oldRibs.populated(), Passes: 1}
			e.eobs.dirty.Observe(int64(st.Dirty))
		case len(old) == 0:
			ribs, err := e.convergeFull(p, next)
			if err != nil {
				return ReconvergeStats{}, err
			}
			res.ribs = ribs
			st = ReconvergeStats{Dirty: ribs.populated(), Passes: 1, Full: true}
			e.eobs.announces.Inc()
			e.eobs.dirty.Observe(int64(st.Dirty))
		default:
			res.sites = changedSites(old, next)
			seed := linkSeed.clone()
			for _, site := range res.sites {
				e.seedSite(p, site, old, next, oldRibs, seed)
			}
			if seed.len() == 0 {
				if slices.EqualFunc(old, next, annEqual) {
					continue
				}
				break // reordered only: install the new order over the old ribs
			}
			e.eobs.siteOps.Add(int64(len(res.sites)))
			ribs, rst, touched, err := e.reconverge(p, next, oldRibs, seed)
			if err != nil {
				return ReconvergeStats{}, err
			}
			res.ribs, res.touched, st = ribs, touched, rst
		}
		agg.Dirty += st.Dirty
		agg.Passes = max(agg.Passes, st.Passes)
		agg.Full = agg.Full || st.Full
		results = append(results, res)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range results {
		e.ribs[r.prefix] = r.ribs
		e.anns[r.prefix] = append([]SiteAnnouncement(nil), r.anns...)
		if r.touched != nil && len(r.sites) == 1 {
			m := make(map[string]*asBits, len(e.hints[r.prefix])+1)
			maps.Copy(m, e.hints[r.prefix])
			m[r.sites[0]] = r.touched
			e.hints[r.prefix] = m
		}
	}
	e.lastStats = agg
	return agg, nil
}

// seedSite adds to seed what a change of one site's announcement dirties
// at first order: the origin and seeded neighbours of its old and new
// announcements, the ASes whose routes reference it, and its failover
// memory.
func (e *Engine) seedSite(p netip.Prefix, site string, old, next []SiteAnnouncement, oldRibs ribTable, seed *asBits) {
	if a, ok := findSite(old, site); ok {
		seed.add(e.asIdx[a.Origin])
		e.seedTargets(a, seed)
		seed.or(e.siteRefs(oldRibs, site))
	}
	if a, ok := findSite(next, site); ok {
		seed.add(e.asIdx[a.Origin])
		e.seedTargets(a, seed)
	}
	e.mergeHint(p, site, seed)
}

// batchPrefixes returns the prefixes a commit visits, in Prefixes order:
// every announced prefix when links flipped, since a link can move any
// prefix's routes, and the staged ones.
func (e *Engine) batchPrefixes(staged map[netip.Prefix][]SiteAnnouncement, linksFlipped bool) []netip.Prefix {
	var out []netip.Prefix
	if linksFlipped {
		out = e.Prefixes()
	}
	for p := range staged {
		if !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, prefixTextCompare)
	return out
}

// changedSites lists the sites whose announcement differs between two
// slices — added, removed, or changed in value — ignoring position: first
// those of next, in its order, then those only old held.
func changedSites(old, next []SiteAnnouncement) []string {
	var out []string
	for _, a := range next {
		if o, ok := findSite(old, a.Site); !ok || !annEqual(o, a) {
			out = append(out, a.Site)
		}
	}
	for _, a := range old {
		if _, ok := findSite(next, a.Site); !ok {
			out = append(out, a.Site)
		}
	}
	return out
}

func findSite(anns []SiteAnnouncement, site string) (SiteAnnouncement, bool) {
	i := slices.IndexFunc(anns, func(a SiteAnnouncement) bool { return a.Site == site })
	if i < 0 {
		return SiteAnnouncement{}, false
	}
	return anns[i], true
}

// annEqual reports whether two announcements are identical. A nil
// OnlyNeighbors (every neighbour) differs from an empty one (none).
func annEqual(a, b SiteAnnouncement) bool {
	return a.Origin == b.Origin && a.Site == b.Site && a.City == b.City && a.Prepend == b.Prepend &&
		(a.OnlyNeighbors == nil) == (b.OnlyNeighbors == nil) &&
		slices.Equal(a.OnlyNeighbors, b.OnlyNeighbors) && slices.Equal(a.Communities, b.Communities)
}
