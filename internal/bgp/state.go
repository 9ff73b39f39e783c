package bgp

// Engine state export/restore, the routing half of `anysim serve`'s
// checkpoint files. The engine never serializes its ribs: converge is a
// deterministic function of (topology, announcements), and the incremental
// paths are bit-identical to a full recompute, so the announcement sets are
// the whole routing state. Restoring a checkpoint re-announces each
// prefix's saved set on an identically-built world and provably lands on
// the same ribs, byte for byte. The per-(prefix, site) failover hints ride
// along so post-restore incremental operations also recompute exactly the
// dirty sets the uninterrupted run would have — without them routing would
// still be identical, but reconvergence *statistics* (and the metrics built
// on them) could drift.

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
)

// SiteHint is one site's failover memory in serialized form: the dense AS
// indices (topo.Topology.ASIndex, deterministic per seeded topology) the
// last withdraw/restore of the site touched.
type SiteHint struct {
	Site string `json:"site"`
	ASes []int  `json:"ases"`
}

// PrefixState is one prefix's complete serialized routing input: its
// announcement set (empty for a dark prefix, which stays re-announceable)
// and its failover hints. See ExportState.
type PrefixState struct {
	Prefix netip.Prefix       `json:"prefix"`
	Anns   []SiteAnnouncement `json:"anns"`
	Hints  []SiteHint         `json:"hints,omitempty"`
}

// ExportState captures every announced prefix's announcement set and
// failover hints, sorted by prefix (hints sorted by site, indices
// ascending), so two exports of identical engines are deeply equal and
// encode identically.
func (e *Engine) ExportState() []PrefixState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]PrefixState, 0, len(e.anns))
	for p, anns := range e.anns {
		ps := PrefixState{Prefix: p, Anns: slices.Clone(anns)}
		for site, bits := range e.hints[p] {
			h := SiteHint{Site: site, ASes: make([]int, 0, bits.len())}
			bits.forEach(func(i int) { h.ASes = append(h.ASes, i) })
			ps.Hints = append(ps.Hints, h)
		}
		sort.Slice(ps.Hints, func(i, j int) bool { return ps.Hints[i].Site < ps.Hints[j].Site })
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.String() < out[j].Prefix.String() })
	return out
}

// RestoreState replaces the engine's routing state with an exported one:
// every prefix in states is (re-)announced with its saved announcement set
// — a full, deterministic convergence — dark prefixes are installed empty,
// hints are reinstated, and prefixes not present in states are withdrawn.
// Restoring an export onto an engine over an identically-built topology
// (including link up/down states) reproduces the exporter's routing state
// bit-identically.
func (e *Engine) RestoreState(states []PrefixState) error {
	keep := make(map[netip.Prefix]bool, len(states))
	for _, ps := range states {
		keep[ps.Prefix] = true
	}
	for _, p := range e.Prefixes() {
		if !keep[p] {
			e.Withdraw(p)
		}
	}
	for _, ps := range states {
		if len(ps.Anns) == 0 {
			// A dark prefix: routing state is empty but the prefix stays
			// known, exactly the state WithdrawSite leaves behind.
			e.install(ps.Prefix, nil, make(ribTable, e.n), ReconvergeStats{Passes: 1})
		} else if err := e.Announce(ps.Prefix, ps.Anns); err != nil {
			return fmt.Errorf("bgp: restore %s: %w", ps.Prefix, err)
		}
		hints := make(map[string]*asBits, len(ps.Hints))
		for _, h := range ps.Hints {
			bits := newASBits(e.n)
			for _, i := range h.ASes {
				if i < 0 || i >= e.n {
					return fmt.Errorf("bgp: restore %s: hint index %d outside [0,%d)", ps.Prefix, i, e.n)
				}
				bits.add(i)
			}
			hints[h.Site] = bits
		}
		e.mu.Lock()
		if len(hints) > 0 {
			e.hints[ps.Prefix] = hints
		} else {
			delete(e.hints, ps.Prefix)
		}
		e.mu.Unlock()
	}
	return nil
}
