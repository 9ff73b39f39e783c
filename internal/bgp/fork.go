package bgp

import (
	"maps"
	"net/netip"
)

// Fork returns a cheap copy-on-write snapshot of the engine for what-if
// evaluation: the fork can Announce/AnnounceSite/WithdrawSite freely without
// disturbing the parent, and the parent can keep serving lookups and even
// mutating concurrently. The steering trial loop forks the engine once per
// candidate action and evaluates every candidate in parallel (see
// internal/traffic), which is why Fork must cost O(prefixes), not
// O(prefixes x ASes).
//
// What makes the shallow copy sound is the engine's immutability discipline:
//
//   - The frozen topology, the city-distance matrix, and the dense AS index
//     (n, asIdx, byIdx, linkA, linkB) never change after NewEngine — shared
//     by reference.
//   - A ribTable and the ribs it points to (provenance records included)
//     are never mutated once installed.
//     converge always builds a fresh table (copying clean ASes' rib
//     *pointers* over) and fresh rib structs for every recomputed AS, and
//     install replaces the per-prefix table wholesale. So the fork shares
//     every table by reference; a mutation on either side installs a new
//     table into its own prefix map and the other side never observes it.
//   - Announcement slices are likewise replaced wholesale by install.
//   - Failover-memory hint sets (*asBits) are immutable once stored, but
//     the per-prefix hint maps are mutated in place by storeHint — so the
//     outer and per-prefix hint maps are cloned and only the sets shared.
//
// Equivalence guarantee: applying any sequence of engine operations to a
// fork produces bit-identical routing state (ribs, announcements, stats,
// catchments) to applying the same sequence to the parent directly —
// converge is a deterministic function of (topology, announcements, old
// state), and fork shares the first and copies the rest. fork_test.go
// property-tests this against the serial apply-with-rollback walk the
// steering loop used before forks existed.
func (e *Engine) Fork() *Engine {
	e.mu.RLock()
	defer e.mu.RUnlock()
	// Forks inherit the parent's metric handles — counters and histograms
	// commute, so fork work aggregates deterministically — but never the
	// tracer: trace order is meaning, and concurrent forks would interleave.
	feobs := e.eobs
	feobs.tracer = nil
	f := &Engine{
		topo:      e.topo,
		cityIdx:   e.cityIdx,
		cityKm:    e.cityKm,
		n:         e.n,
		asIdx:     e.asIdx,
		byIdx:     e.byIdx,
		linkA:     e.linkA,
		linkB:     e.linkB,
		ribs:      maps.Clone(e.ribs),
		anns:      maps.Clone(e.anns),
		lastStats: e.lastStats,
		hints:     make(map[netip.Prefix]map[string]*asBits, len(e.hints)),
		eobs:      feobs,
	}
	cow := len(e.ribs) + len(e.anns)
	for p, m := range e.hints {
		f.hints[p] = maps.Clone(m)
		cow += len(m)
	}
	// Provenance records live on the shared ribs, so the fork shares them
	// for free.
	f.provOn = e.provOn
	// The policy layer is immutable after parse and its interner is
	// concurrency-safe, so the fork shares the pointer: full and
	// incremental reconvergence across forks intern into the same table.
	f.policy = e.policy
	e.eobs.forks.Inc()
	e.eobs.forkCOW.Add(int64(cow))
	return f
}
