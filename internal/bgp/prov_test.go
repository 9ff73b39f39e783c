package bgp

import (
	"net/netip"
	"testing"

	"anysim/internal/topo"
)

// provEqual compares two provenance records field by field.
func provEqual(a, b Provenance) bool {
	if a.Valid != b.Valid || a.WinnerClass != b.WinnerClass || a.Step != b.Step ||
		a.HasRunnerUp != b.HasRunnerUp || a.RunnerClass != b.RunnerClass ||
		a.AltInClass != b.AltInClass || a.Arbitrary != b.Arbitrary {
		return false
	}
	if !a.Valid {
		return true
	}
	if !routeEqual(a.Winner, b.Winner) {
		return false
	}
	return !a.HasRunnerUp || routeEqual(a.RunnerUp, b.RunnerUp)
}

// provTable is one prefix's per-AS provenance, indexed by dense AS rank: the
// records a rib table carries, laid out for comparison.
type provTable []Provenance

// tableOf reads the records off a rib table; an AS without a record gets the
// zero (invalid) entry.
func tableOf(e *Engine, ribs ribTable) provTable {
	out := make(provTable, e.n)
	for i, rb := range ribs {
		if rb != nil && rb.prov != nil {
			out[i] = *rb.prov
		}
	}
	return out
}

// provFor returns the installed records for a prefix as a table.
func (e *Engine) provFor(prefix netip.Prefix) provTable {
	return tableOf(e, snapshotRibs(e, prefix))
}

// provTablesEqual compares two provenance tables over e's dense index.
func provTablesEqual(e *Engine, a, b provTable) (topo.ASN, bool) {
	for i := 0; i < e.n; i++ {
		var pa, pb Provenance
		if i < len(a) {
			pa = a[i]
		}
		if i < len(b) {
			pb = b[i]
		}
		if !provEqual(pa, pb) {
			return e.byIdx[i], false
		}
	}
	return 0, true
}

// requireProvMatch asserts the installed provenance table for p is identical
// to the one a from-scratch converge produces.
func requireProvMatch(t *testing.T, e *Engine, event string) {
	t.Helper()
	want, err := e.converge(pfxGlobal, e.Announcements(pfxGlobal), nil)
	if err != nil {
		t.Fatalf("%s: full reference converge: %v", event, err)
	}
	if asn, ok := provTablesEqual(e, tableOf(e, want), e.provFor(pfxGlobal)); !ok {
		t.Fatalf("%s: incremental provenance for %s differs from full recompute", event, asn)
	}
}

// provWorld builds the generated CDN world with provenance enabled from the
// first announcement.
func provWorld(t *testing.T, seed int64) (*topo.Topology, *Engine, []SiteAnnouncement) {
	t.Helper()
	tp, e, anns := generatedCDNWorld(t, seed)
	e.SetProvenance(true)
	if err := e.Announce(pfxGlobal, anns); err != nil {
		t.Fatal(err)
	}
	return tp, e, anns
}

// TestProvenanceInvariants checks the structural contract of every recorded
// decision: the winner is the rib's selected representative, the runner-up is
// never better-placed than the winner under the decision process, and the
// step names the comparison that separates them.
func TestProvenanceInvariants(t *testing.T) {
	tp, e, _ := provWorld(t, 11)
	ribs := snapshotRibs(e, pfxGlobal)
	covered := 0
	for i, rb := range ribs {
		asn := e.byIdx[i]
		p, ok := e.Provenance(pfxGlobal, asn)
		var set []Route
		if rb != nil {
			if cls, s, okB := rb.best(); okB {
				set = s
				if !ok {
					t.Fatalf("%s has routes but no provenance", asn)
				}
				if p.WinnerClass != cls {
					t.Fatalf("%s: winner class %v != selected class %v", asn, p.WinnerClass, cls)
				}
				if !routeEqual(p.Winner, s[0]) {
					t.Fatalf("%s: winner %v is not the selected representative %v", asn, p.Winner, s[0])
				}
				if p.AltInClass != len(set) {
					t.Fatalf("%s: AltInClass %d != retained set size %d", asn, p.AltInClass, len(set))
				}
				covered++
			}
		}
		if set == nil {
			if ok {
				t.Fatalf("%s has no route but valid provenance", asn)
			}
			continue
		}
		switch p.Step {
		case StepOnlyRoute:
			if p.HasRunnerUp {
				t.Fatalf("%s: only-route with a runner-up", asn)
			}
		case StepLocalPref:
			if !p.HasRunnerUp || p.RunnerClass <= p.WinnerClass {
				t.Fatalf("%s: local-pref runner-up class %v not worse than winner %v", asn, p.RunnerClass, p.WinnerClass)
			}
		case StepPathLen:
			if !p.HasRunnerUp || p.RunnerClass != p.WinnerClass || p.RunnerUp.Len() <= p.Winner.Len() {
				t.Fatalf("%s: path-len runner-up %v does not lose on length to %v", asn, p.RunnerUp, p.Winner)
			}
		case StepTieBreak:
			if !p.HasRunnerUp || p.RunnerClass != p.WinnerClass || p.RunnerUp.Len() != p.Winner.Len() {
				t.Fatalf("%s: tie-break runner-up %v is not an equal-length same-class peer of %v", asn, p.RunnerUp, p.Winner)
			}
		}
	}
	if covered < tp.NumASes()/2 {
		t.Fatalf("provenance covers only %d of %d ASes", covered, tp.NumASes())
	}
}

// TestProvenanceDeterministic rebuilds the same seeded world twice and
// requires identical provenance tables.
func TestProvenanceDeterministic(t *testing.T) {
	_, e1, _ := provWorld(t, 23)
	_, e2, _ := provWorld(t, 23)
	if asn, ok := provTablesEqual(e1, e1.provFor(pfxGlobal), e2.provFor(pfxGlobal)); !ok {
		t.Fatalf("provenance for %s differs across identical builds", asn)
	}
}

// TestProvenanceIncrementalMatchesFull drives the incremental API through
// site withdraw/restore and link flap cycles and checks after every step that
// the carried-over provenance is bit-identical to a full recompute — the
// provenance analogue of the rib property test.
func TestProvenanceIncrementalMatchesFull(t *testing.T) {
	tp, e, anns := provWorld(t, 7)
	steps := []struct {
		name string
		op   func() error
	}{
		{"withdraw-fra", func() error { return e.WithdrawSite(pfxGlobal, "fra") }},
		{"restore-fra", func() error { return e.AnnounceSite(pfxGlobal, anns[1]) }},
		{"withdraw-sin", func() error { return e.WithdrawSite(pfxGlobal, "sin") }},
		{"restore-sin", func() error { return e.AnnounceSite(pfxGlobal, anns[2]) }},
	}
	for _, s := range steps {
		if err := s.op(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		requireProvMatch(t, e, s.name)
	}
	// Link flap: drop and restore the CDN's first provider link.
	lis := tp.LinksOf(topo.CDNBase)
	if len(lis) == 0 {
		t.Fatal("CDN has no links")
	}
	for _, enabled := range []bool{false, true} {
		tp.SetLinkEnabled(lis[0], enabled)
		if err := e.ReconvergeLinks([]int{lis[0]}); err != nil {
			t.Fatal(err)
		}
		requireProvMatch(t, e, "link-flap")
	}
}

// TestProvenanceForkEquivalence applies the same site operation to a COW fork
// and to an identically-built engine serially; both must hold bit-identical
// provenance, and the parent's table must be untouched.
func TestProvenanceForkEquivalence(t *testing.T) {
	_, parent, anns := provWorld(t, 31)
	_, serial, _ := provWorld(t, 31)

	parentBefore := parent.provFor(pfxGlobal)
	f := parent.Fork()
	if !f.ProvenanceEnabled() {
		t.Fatal("fork lost provenance mode")
	}
	if err := f.WithdrawSite(pfxGlobal, "iad"); err != nil {
		t.Fatal(err)
	}
	if err := serial.WithdrawSite(pfxGlobal, "iad"); err != nil {
		t.Fatal(err)
	}
	if asn, ok := provTablesEqual(parent, f.provFor(pfxGlobal), serial.provFor(pfxGlobal)); !ok {
		t.Fatalf("fork provenance for %s differs from serial apply", asn)
	}
	if asn, ok := provTablesEqual(parent, parent.provFor(pfxGlobal), parentBefore); !ok {
		t.Fatalf("fork mutated parent provenance for %s", asn)
	}
	// Re-announcing on the fork restores the original decision state.
	if err := f.AnnounceSite(pfxGlobal, anns[0]); err != nil {
		t.Fatal(err)
	}
	if asn, ok := provTablesEqual(parent, f.provFor(pfxGlobal), parentBefore); !ok {
		t.Fatalf("restored fork provenance for %s differs from original", asn)
	}
}

// TestProvenanceOffIsInvisible: with provenance off the ribs carry no
// records, queries answer false, and forks do not record either.
func TestProvenanceOffIsInvisible(t *testing.T) {
	_, e, _ := generatedCDNWorld(t, 3)
	if e.ProvenanceEnabled() {
		t.Fatal("provenance on by default")
	}
	if _, ok := e.Provenance(pfxGlobal, topo.CDNBase); ok {
		t.Fatal("provenance answered with recording off")
	}
	requireNoRecords(t, e, "announce with recording off")
	if f := e.Fork(); f.provOn {
		t.Fatal("fork records provenance with recording off")
	}
}

// requireNoRecords asserts no installed rib of pfxGlobal carries a record.
func requireNoRecords(t *testing.T, e *Engine, event string) {
	t.Helper()
	for i, rb := range snapshotRibs(e, pfxGlobal) {
		if rb != nil && rb.prov != nil {
			t.Fatalf("%s: %s carries a provenance record", event, e.byIdx[i])
		}
	}
}

// TestProvenanceForkSharesRecords pins the sharing contract: after a fork
// withdraws a site, every AS outside the touched set still shares its
// *Provenance with the parent, and no touched AS kept the parent's record.
func TestProvenanceForkSharesRecords(t *testing.T) {
	_, parent, _ := provWorld(t, 31)
	f := parent.Fork()
	if err := f.WithdrawSite(pfxGlobal, "iad"); err != nil {
		t.Fatal(err)
	}
	if f.LastReconvergeStats().Full {
		t.Fatal("withdraw fell back to a full recompute; no touched set to check")
	}
	touched := f.hints[pfxGlobal]["iad"]
	before, after := snapshotRibs(parent, pfxGlobal), snapshotRibs(f, pfxGlobal)
	shared := 0
	for i := 0; i < parent.n; i++ {
		pb, pa := before[i], after[i]
		if touched.has(i) {
			if pa != nil && pa.prov != nil && pb != nil && pa.prov == pb.prov {
				t.Fatalf("touched %s kept the parent's record", parent.byIdx[i])
			}
			continue
		}
		if (pb == nil) != (pa == nil) {
			t.Fatalf("untouched %s gained or lost its rib in the fork", parent.byIdx[i])
		}
		if pb == nil || pb.prov == nil {
			continue
		}
		if pa.prov != pb.prov {
			t.Fatalf("untouched %s does not share its *Provenance with the parent", parent.byIdx[i])
		}
		shared++
	}
	if shared == 0 {
		t.Fatal("no untouched AS carries a record; the check is vacuous")
	}
}

// TestProvenanceDarkPrefix: withdrawing the last site leaves no routing
// state, so no AS answers with a record.
func TestProvenanceDarkPrefix(t *testing.T) {
	tp, e, anns := provWorld(t, 7)
	if _, ok := e.Provenance(pfxGlobal, topo.CDNBase); !ok {
		t.Fatal("origin has no record before the withdrawals")
	}
	for _, a := range anns {
		if err := e.WithdrawSite(pfxGlobal, a.Site); err != nil {
			t.Fatal(err)
		}
	}
	for _, asn := range tp.ASNs() {
		if p, ok := e.Provenance(pfxGlobal, asn); ok {
			t.Fatalf("dark prefix answered for %s: %v", asn, p)
		}
	}
}

// TestProvenanceToggle: turning recording off silences Provenance at once,
// and ribs converged while it is off carry no record. Turning it back on
// answers from the records the current ribs carry: none for ASes recomputed
// while off, the earlier ones for ribs carried over since (see
// SetProvenance).
func TestProvenanceToggle(t *testing.T) {
	tp, e, anns := provWorld(t, 7)
	e.SetProvenance(false)
	for _, asn := range tp.ASNs() {
		if _, ok := e.Provenance(pfxGlobal, asn); ok {
			t.Fatalf("%s answered with recording off", asn)
		}
	}
	before := snapshotRibs(e, pfxGlobal)
	if err := e.WithdrawSite(pfxGlobal, "fra"); err != nil {
		t.Fatal(err)
	}
	after := snapshotRibs(e, pfxGlobal)
	recomputed, carried := 0, 0
	for i, rb := range after {
		switch {
		case rb == nil:
		case rb != before[i]:
			recomputed++
			if rb.prov != nil {
				t.Fatalf("%s was recomputed with recording off but carries a record", e.byIdx[i])
			}
		case rb.prov != nil:
			carried++
		}
	}
	if recomputed == 0 || carried == 0 {
		t.Fatalf("withdraw recomputed %d and carried %d recorded ribs; want both", recomputed, carried)
	}

	e.SetProvenance(true)
	for i, rb := range after {
		_, ok := e.Provenance(pfxGlobal, e.byIdx[i])
		if want := rb != nil && rb.prov != nil; ok != want {
			t.Fatalf("%s: Provenance ok=%v after re-enabling, want %v", e.byIdx[i], ok, want)
		}
	}
	if err := e.Announce(pfxGlobal, append(anns[:1:1], anns[2:]...)); err != nil {
		t.Fatal(err)
	}
	requireProvMatch(t, e, "re-announce")
	if _, ok := e.Provenance(pfxGlobal, topo.CDNBase); !ok {
		t.Fatal("re-announce left the origin without a record")
	}
}

// BenchmarkAnnounceProvenance pins the cost contract of the feature: the
// "off" sub-benchmark must match BenchmarkAnnounce allocation-for-allocation
// (the gate is a nil recorder check), and "on" shows what recording costs.
func BenchmarkAnnounceProvenance(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			_, e, anns, prefix := benchWorld(b)
			e.SetProvenance(mode.on)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Announce(prefix, anns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
