package bgp

import (
	"fmt"
	"maps"
	"net/netip"

	"anysim/internal/obs"
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
//   - The frozen topology and the dense AS and link indexes (n, asIdx,
//     byIdx, linkA, linkB, linkCities, linkIXP) never change after
//     NewEngine — shared by reference. The city table and the site/IXP
//     symbol table are process-wide; the latter only ever appends.
//   - A ribTable, the ribs it points to (provenance records included) and
//     the path nodes their routes chain through are never mutated once
//     installed.
//     converge always builds a fresh table (copying clean ASes' rib
//     *pointers* over) and fresh rib structs for every recomputed AS, and
//     install replaces the per-prefix table wholesale. So the fork shares
//     every table by reference; a mutation on either side installs a new
//     table into its own prefix map and the other side never observes it.
//   - Announcement slices are likewise replaced wholesale by install.
//   - Per-prefix failover-hint maps are replaced wholesale by storeHint, and
//     the hint sets (*asBits) they hold are immutable once stored.
//
// So copying the routing state is copying its outer maps (cloneState), the
// one step Fork and ResetTo share.
//
// Equivalence guarantee: applying any sequence of engine operations to a
// fork produces bit-identical routing state (ribs, announcements, stats,
// catchments) to applying the same sequence to the parent directly —
// converge is a deterministic function of (topology, announcements, old
// state), and fork shares the first and copies the rest. fork_test.go
// property-tests this against the serial apply-with-rollback walk the
// steering loop used before forks existed.
func (e *Engine) Fork() *Engine {
	st, cow := e.cloneState()
	// Forks inherit the parent's metric handles — counters and histograms
	// commute, so fork work aggregates deterministically — but never the
	// tracer: trace order is meaning, and concurrent forks would interleave.
	feobs := e.eobs
	feobs.tracer = nil
	f := &Engine{
		topo:       e.topo,
		n:          e.n,
		asIdx:      e.asIdx,
		byIdx:      e.byIdx,
		linkA:      e.linkA,
		linkB:      e.linkB,
		linkCities: e.linkCities,
		linkIXP:    e.linkIXP,
		routeState: st,
		eobs:       feobs,
		// Provenance records live on the shared ribs, so the fork shares
		// them for free.
		provOn: e.provOn,
		// The policy layer is immutable after parse and its interner is
		// concurrency-safe, so the fork shares the pointer: full and
		// incremental reconvergence across forks intern into the same
		// table.
		policy: e.policy,
	}
	e.eobs.forks.Inc()
	e.eobs.forkCOW.Add(int64(cow))
	return f
}

// ResetTo reinstates a snapshot's routing state on the engine: the ribs,
// announcements, failover hints and last reconvergence statistics of snap
// (typically a Fork of this engine, or a fork's fork) replace the engine's
// own, in O(prefixes). Afterwards the engine is indistinguishable from snap
// to every operation: the same op on either yields bit-identical ribs and
// ReconvergeStats. snap is only read and stays usable. A snapshot over a
// different topology is an error. On the root engine the reset is one
// traced op, so the trace still narrates every change to it.
func (e *Engine) ResetTo(snap *Engine) error {
	if snap.topo != e.topo {
		return fmt.Errorf("bgp: reset to a snapshot over a different topology")
	}
	st, _ := snap.cloneState()
	e.mu.Lock()
	e.routeState = st
	e.mu.Unlock()
	if e.eobs.tracer.Enabled() {
		e.emitOp("reset-to", obs.Int("prefixes", int64(len(st.anns))))
	}
	return nil
}

// RibsChangedFrom reports which ASes hold a different rib for prefix on
// this engine than on base, as ascending dense AS indices
// (topo.Topology.ASIndex). It returns nil when the two engines share the
// prefix's whole table, as a fork does until its first operation on the
// prefix.
//
// The comparison is by rib pointer, which is sound under the immutability
// discipline above: converge gives fresh ribs only to the ASes it
// recomputes and carries every other rib over by pointer, Fork and ResetTo
// copy pointers, and what a lookup answers depends on nothing but the rib.
// So an AS outside the result answers every query exactly as on base. A
// recomputed rib with equal contents still counts as changed, and after a
// full recompute every AS with a route does. base must be an engine over
// the same topology, typically the parent of a fork; dense indices mean
// nothing across topologies, so another topology panics.
func (e *Engine) RibsChangedFrom(base *Engine, prefix netip.Prefix) []int {
	if base.topo != e.topo {
		panic("bgp: RibsChangedFrom across topologies")
	}
	e.mu.RLock()
	t := e.ribs[prefix]
	e.mu.RUnlock()
	base.mu.RLock()
	bt := base.ribs[prefix]
	base.mu.RUnlock()
	if len(t) == len(bt) && (len(t) == 0 || &t[0] == &bt[0]) {
		return nil
	}
	// A prefix the engine never announced holds no ribs.
	if t == nil {
		t = make(ribTable, e.n)
	}
	if bt == nil {
		bt = make(ribTable, e.n)
	}
	bt = bt[:len(t)]
	// Count first so the result is one exact allocation.
	n := 0
	for i, r := range t {
		if r != bt[i] {
			n++
		}
	}
	out := make([]int, 0, n)
	for i, r := range t {
		if r != bt[i] {
			out = append(out, i)
		}
	}
	return out
}

// cloneState copies the engine's routing state under the read lock. Only
// the outer maps are copied — every value they hold is immutable once
// installed — and the returned count is the number of entries copied.
func (e *Engine) cloneState() (routeState, int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := routeState{
		ribs:      maps.Clone(e.ribs),
		anns:      maps.Clone(e.anns),
		lastStats: e.lastStats,
		hints:     maps.Clone(e.hints),
	}
	return st, len(e.ribs) + len(e.anns) + len(e.hints)
}
