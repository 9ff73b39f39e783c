package traffic

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"anysim/internal/bgp"
	"anysim/internal/geo"
	"anysim/internal/worldgen"
)

var smallWorld = func() func(t *testing.T) *worldgen.World {
	var cached *worldgen.World
	return func(t *testing.T) *worldgen.World {
		t.Helper()
		if cached == nil {
			w, err := worldgen.Small(7)
			if err != nil {
				t.Fatal(err)
			}
			cached = w
		}
		return cached
	}
}()

func TestDemandModelDeterminism(t *testing.T) {
	w := smallWorld(t)
	a := NewModel(w.Platform, DemandConfig{Seed: 1})
	b := NewModel(w.Platform, DemandConfig{Seed: 1})
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] {
			t.Fatalf("group %d differs between same-seed models: %+v vs %+v", i, a.Groups[i], b.Groups[i])
		}
	}
	c := NewModel(w.Platform, DemandConfig{Seed: 2})
	same := true
	for i := range a.Groups {
		if a.Groups[i].Base != c.Groups[i].Base {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical base rates")
	}
}

func TestDemandModelShape(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	if got, want := len(m.Groups), len(w.Platform.Groups().Groups); got != want {
		t.Fatalf("model has %d groups; platform has %d", got, want)
	}
	if math.Abs(m.TotalBase()-1e6) > 1 {
		t.Fatalf("total base rate %.1f; want ~1e6", m.TotalBase())
	}
	// Zipf skew: the largest group dominates the median group.
	var max, sum float64
	for _, g := range m.Groups {
		if g.Base <= 0 {
			t.Fatalf("group %s has non-positive base rate %f", g.Key, g.Base)
		}
		if g.Base > max {
			max = g.Base
		}
		sum += g.Base
	}
	if max < 20*sum/float64(len(m.Groups)) {
		t.Errorf("demand not heavy-tailed: max %.1f vs mean %.1f", max, sum/float64(len(m.Groups)))
	}
}

func TestDiurnalCycle(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	// Every group's rate must swing over the day and average back to its
	// base (the cosine sums to zero over equally spaced phases).
	mats := m.Matrices()
	if len(mats) != m.Buckets() || len(mats) != 8 {
		t.Fatalf("got %d matrices, Buckets() %d; want 8", len(mats), m.Buckets())
	}
	g := m.Groups[0]
	var lo, hi, mean float64 = math.Inf(1), 0, 0
	for _, mat := range mats {
		r := mat.Rates[g.Key]
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
		mean += r / float64(len(mats))
	}
	if hi/lo < 1.5 {
		t.Errorf("diurnal swing too flat: lo %.2f hi %.2f", lo, hi)
	}
	if math.Abs(mean-g.Base)/g.Base > 0.01 {
		t.Errorf("day-mean %.2f deviates from base %.2f", mean, g.Base)
	}
	// Two groups 180 degrees of longitude apart must peak in different
	// buckets.
	var west, east *GroupDemand
	for i := range m.Groups {
		g := &m.Groups[i]
		if g.Lon < -60 && west == nil {
			west = g
		}
		if g.Lon > 60 && east == nil {
			east = g
		}
	}
	if west != nil && east != nil {
		peak := func(g *GroupDemand) int {
			best, bestR := 0, 0.0
			for b, mat := range mats {
				if r := mat.Rates[g.Key] / g.Base; r > bestR {
					best, bestR = b, r
				}
			}
			return best
		}
		if peak(west) == peak(east) {
			t.Errorf("west (lon %.0f) and east (lon %.0f) peak in the same bucket %d", west.Lon, east.Lon, peak(west))
		}
	}
}

func TestFlashCrowd(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	mat := m.Matrix(0)
	crowd := m.FlashCrowd(mat, geo.EMEA, 3)
	for _, g := range m.Groups {
		r := mat.Rates[g.Key]
		want := r
		if g.Area == geo.EMEA {
			want = 3 * r
		}
		if math.Abs(crowd.Rates[g.Key]-want) > 1e-9 {
			t.Fatalf("group %s (area %v): flash rate %.3f; want %.3f", g.Key, g.Area, crowd.Rates[g.Key], want)
		}
	}
	if crowd.Total <= mat.Total {
		t.Fatal("flash crowd did not raise total demand")
	}
	// A unit factor is the identity, down to the last bit of Total: both
	// sums run in group order.
	for _, a := range geo.Areas {
		if got := m.FlashCrowd(mat, a, 1).Total; got != mat.Total {
			t.Fatalf("FlashCrowd(%v, 1).Total = %v; Matrix total %v", a, got, mat.Total)
		}
	}
}

// TestDemandFoldsFlashCrowds: Demand picks the tick's bucket and equals
// folding FlashCrowd over the active areas, rates and Total bit for bit.
func TestDemandFoldsFlashCrowds(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	tick := int64(3*m.Buckets() + 2)
	flash := map[geo.Area]float64{geo.LatAm: 2.5, geo.EMEA: 0.5}
	want := m.FlashCrowd(m.FlashCrowd(m.Matrix(2), geo.EMEA, 0.5), geo.LatAm, 2.5)
	got := m.Demand(tick, flash)
	if got.Bucket != 2 || got.Total != want.Total {
		t.Fatalf("Demand(%d) = bucket %d total %v; want bucket 2 total %v", tick, got.Bucket, got.Total, want.Total)
	}
	for _, g := range m.Groups {
		if got.Rates[g.Key] != want.Rates[g.Key] {
			t.Fatalf("group %s: rate %v; want %v", g.Key, got.Rates[g.Key], want.Rates[g.Key])
		}
	}
	if base := m.Demand(tick, nil); base.Total != m.Matrix(2).Total {
		t.Fatalf("Demand without flash crowds: total %v; want %v", base.Total, m.Matrix(2).Total)
	}
}

// TestMatrixContract pins what the evaluator and the shared bucket matrices
// rest on. For Matrix, Demand and FlashCrowd, every rank-indexed rate
// equals the Rates entry of its group bit for bit, and Total sums the rates
// in group order. A flash Demand or FlashCrowd builds a new matrix: the
// bucket matrices the model hands out stay as they were.
func TestMatrixContract(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	before := make([]Matrix, m.Buckets())
	for b := range before {
		mat := m.Matrix(b)
		before[b] = Matrix{Bucket: mat.Bucket, Rates: maps.Clone(mat.Rates), Total: mat.Total, rates: slices.Clone(mat.rates)}
	}
	check := func(label string, mat Matrix) {
		t.Helper()
		if len(mat.rates) != len(m.Groups) || len(mat.Rates) != len(m.Groups) {
			t.Fatalf("%s: %d rates and %d Rates for %d groups", label, len(mat.rates), len(mat.Rates), len(m.Groups))
		}
		total := 0.0
		for i, g := range m.Groups {
			if r := mat.Rates[g.Key]; math.Float64bits(mat.rates[i]) != math.Float64bits(r) {
				t.Fatalf("%s: group %s has rate %v by rank, %v by key", label, g.Key, mat.rates[i], r)
			}
			total += mat.Rates[g.Key]
		}
		if math.Float64bits(mat.Total) != math.Float64bits(total) {
			t.Fatalf("%s: Total %v; the rates sum to %v in group order", label, mat.Total, total)
		}
	}
	flash := map[geo.Area]float64{geo.EMEA: 3, geo.LatAm: 0.5}
	for b := 0; b < m.Buckets(); b++ {
		tick := int64(b + m.Buckets())
		check(fmt.Sprintf("Matrix(%d)", b), m.Matrix(b))
		check(fmt.Sprintf("Demand(%d)", tick), m.Demand(tick, flash))
		check(fmt.Sprintf("Demand(%d) without flash", tick), m.Demand(tick, nil))
		check(fmt.Sprintf("FlashCrowd(Matrix(%d))", b), m.FlashCrowd(m.Matrix(b), geo.APAC, 2))
	}
	for b, want := range before {
		if got := m.Matrix(b); !reflect.DeepEqual(got, want) {
			t.Fatalf("Matrix(%d) changed after flash Demand and FlashCrowd calls", b)
		}
	}
}

func TestPenaltyMs(t *testing.T) {
	const soft = 0.75
	if PenaltyMs(0.5, soft) != 0 || PenaltyMs(soft, soft) != 0 {
		t.Fatal("penalty below the soft knee must be zero")
	}
	if got := PenaltyMs(1, soft); got != kneePenaltyMs {
		t.Fatalf("penalty at u=1 is %.1f; want %d", got, kneePenaltyMs)
	}
	for _, pair := range [][2]float64{{0.8, 0.9}, {0.9, 1.0}, {1.0, 1.5}} {
		if PenaltyMs(pair[0], soft) >= PenaltyMs(pair[1], soft) {
			t.Fatalf("penalty not increasing between u=%.2f and u=%.2f", pair[0], pair[1])
		}
	}
}

func TestEvaluatorConservation(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	mat := m.Matrix(0)
	rep := ev.Evaluate(mat)

	// Demand conservation: served + unserved == matrix total.
	served := 0.0
	for _, s := range rep.Sites {
		served += s.Demand
	}
	if math.Abs(served+rep.Unserved-mat.Total) > 1e-6*mat.Total {
		t.Fatalf("served %.1f + unserved %.1f != total %.1f", served, rep.Unserved, mat.Total)
	}
	if served == 0 {
		t.Fatal("no demand served at all")
	}
	// Provisioning: baseline demand never overloads a site in any bucket
	// (capacity covers Headroom x the day mean, and the diurnal peak stays
	// under that), and every site has a positive tier floor.
	for b := 0; b < m.Buckets(); b++ {
		if over := ev.Evaluate(m.Matrix(b)).Overloads(); len(over) > 0 {
			t.Fatalf("bucket %d: %d sites overloaded at baseline (worst %s u=%.2f)",
				b, len(over), over[0].Site, over[0].Utilization())
		}
	}
	for id, c := range ev.Caps {
		if c <= 0 {
			t.Fatalf("site %s has capacity %.1f; want positive floor", id, c)
		}
	}
}

// TestLoadReportDense: the report holds one assignment per model group, in
// rank order, and a group carries demand exactly where it has a site: a
// served group's Site ranks, in the report's Sites, the site the engine
// routes it to, and every other group has a negative Site and no rate. The
// report's sums are those of its assignments, bit for bit, over the fixed
// summation tree. It holds for a full report of every bucket and for an
// EvaluateFrom delta after a site withdrawal.
func TestLoadReportDense(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	base := w.Engine.Fork()
	for b := 1; b < m.Buckets(); b++ {
		checkDense(t, fmt.Sprintf("full, bucket %d", b), ev, base, m.Matrix(b), ev.EvaluateOn(base, m.Matrix(b)))
	}
	mat := m.Matrix(0)
	rep := ev.EvaluateOn(base, mat)
	checkDense(t, "full, bucket 0", ev, base, mat, rep)

	// Withdraw the busiest site from every prefix it announces, on a fork.
	busiest := rep.Sites[0]
	for _, sl := range rep.Sites {
		if sl.Groups > busiest.Groups {
			busiest = sl
		}
	}
	f := base.Fork()
	for _, p := range ev.idx.prefixes {
		if _, ok := annOf(f.Announcements(p), busiest.Site); ok {
			if err := f.WithdrawSite(p, busiest.Site); err != nil {
				t.Fatal(err)
			}
		}
	}
	delta := ev.EvaluateFrom(f, mat, rep, base)
	checkDense(t, "delta after withdrawing "+busiest.Site, ev, f, mat, delta)
	if sl, _ := delta.SiteLoadByID(busiest.Site); busiest.Groups == 0 || sl.Groups != 0 {
		t.Fatalf("withdrawing %s moved its groups from %d to %d; the delta case checks nothing", busiest.Site, busiest.Groups, sl.Groups)
	}
}

// checkDense holds rep, ev's report of mat on eng, to TestLoadReportDense's
// rules.
func checkDense(t *testing.T, label string, ev *Evaluator, eng *bgp.Engine, mat Matrix, rep *LoadReport) {
	t.Helper()
	m := ev.Model
	if len(rep.Assignments) != len(m.Groups) {
		t.Fatalf("%s: %d assignments for %d groups", label, len(rep.Assignments), len(m.Groups))
	}
	served := 0
	for i, a := range rep.Assignments {
		g := &m.Groups[i]
		rate := mat.Rates[g.Key]
		var fwd bgp.Forward
		ok := false
		if p := ev.groupPrefix(i); rate != 0 && p.IsValid() {
			fwd, ok = eng.Lookup(p, g.ASN, g.City)
		}
		site := fwd.Site
		if !ok {
			want := rankUnserved
			if rate == 0 {
				want = rankIdle
			}
			if a.Site != want || a.Rate != 0 {
				t.Fatalf("%s: group %d (%s) has no site but is %+v; want site rank %d and rate 0", label, i, g.Key, a, want)
			}
			continue
		}
		served++
		if a.Site < 0 || int(a.Site) >= len(rep.Sites) || rep.Sites[a.Site].Site != site {
			t.Fatalf("%s: group %d (%s) has site rank %d; the engine routes it to %s", label, i, g.Key, a.Site, site)
		}
		if a.Rate != rate {
			t.Fatalf("%s: group %d (%s): rate %v; matrix has %v", label, i, g.Key, a.Rate, rate)
		}
	}
	if served == 0 {
		t.Fatalf("%s: no group served", label)
	}
	for i, s := range ev.Dep.Sites {
		if rep.Sites[i].Site != s.ID {
			t.Fatalf("%s: report site %d is %s; deployment site %d is %s", label, i, rep.Sites[i].Site, i, s.ID)
		}
	}

	// The summation tree: 32 fixed ranges of group ranks, each summed left
	// to right, then added in range order. A flat sum differs in the last
	// bits, which steering decisions and the archived results see.
	n := len(m.Groups)
	nr := min(32, n)
	demand, groups, unserved := make([]float64, len(rep.Sites)), make([]int, len(rep.Sites)), 0.0
	for r := 0; r < nr; r++ {
		part, partUnserved := make([]float64, len(rep.Sites)), 0.0
		for i := r * n / nr; i < (r+1)*n/nr; i++ {
			switch a := rep.Assignments[i]; {
			case a.Site >= 0:
				part[a.Site] += a.Rate
				groups[a.Site]++
			case a.Site == rankUnserved:
				partUnserved += mat.rates[i]
			}
		}
		for s, d := range part {
			demand[s] += d
		}
		unserved += partUnserved
	}
	for i, s := range rep.Sites {
		if s.Demand != demand[i] || s.Groups != groups[i] {
			t.Fatalf("%s: site %s has demand %v over %d groups; its assignments sum to %v over %d", label, s.Site, s.Demand, s.Groups, demand[i], groups[i])
		}
	}
	if rep.Unserved != unserved {
		t.Fatalf("%s: report says %v unserved; unserved groups sum to %v", label, rep.Unserved, unserved)
	}
}

func TestSteeringResolvesFlashCrowd(t *testing.T) {
	w := smallWorld(t)
	m := NewModel(w.Platform, DemandConfig{Seed: 1})
	ev := NewEvaluator(w.Engine, w.Imperva.IM6, m, CapacityConfig{})
	st := NewSteerer(ev, SteeringConfig{AllowSelective: true, AllowCrossAnnounce: true})

	baseline := snapshotAll(w)
	// EMEA x4 is the demand of the shared Workers pipeline
	// (workers_determinism_test.go): it overloads several EMEA sites.
	mat := m.FlashCrowd(m.Matrix(0), geo.EMEA, 4)
	res, err := st.Resolve(mat)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Initial.Overloads()) == 0 {
		t.Fatal("EMEA x4 did not overload the small world; the test steers nothing")
	}
	if got, want := len(res.Final.Overloads()), len(res.Initial.Overloads()); got >= want {
		t.Errorf("steering did not shrink overload count: %d -> %d", want, got)
	}
	if len(res.Actions) == 0 {
		t.Fatal("overloads present but no actions taken")
	}
	for _, a := range res.Actions {
		if a.Kind == ActionPrepend && (a.Prepend < 1 || a.Prepend > bgp.MaxPrepend) {
			t.Errorf("action %s has prepend %d outside [1,%d]", a, a.Prepend, bgp.MaxPrepend)
		}
	}

	// Reset must restore routing bit-identically for every prefix.
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	restored := snapshotAll(w)
	for p, want := range baseline {
		got := restored[p]
		if len(got) != len(want) {
			t.Fatalf("prefix %s: %d catchment entries after reset; want %d", p, len(got), len(want))
		}
		for asn, site := range want {
			if got[asn] != site {
				t.Fatalf("prefix %s: AS %d served by %q after reset; want %q", p, asn, got[asn], site)
			}
		}
	}
}

func snapshotAll(w *worldgen.World) map[string]map[uint32]string {
	out := map[string]map[uint32]string{}
	for _, p := range w.Engine.Prefixes() {
		m := map[uint32]string{}
		for asn, site := range w.Engine.Catchments(p) {
			m[uint32(asn)] = site
		}
		out[p.String()] = m
	}
	return out
}

// TestPrependZeroDefaultWorldBitIdentical is the tentpole acceptance check
// on the full default world: announcing every deployment with an explicit
// Prepend of 0 yields catchments identical to the seed engine's.
func TestPrependZeroDefaultWorldBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("default world is expensive; skipped in -short mode")
	}
	w, err := worldgen.Default()
	if err != nil {
		t.Fatal(err)
	}
	ref := bgp.NewEngine(w.Topo)
	for _, p := range w.Engine.Prefixes() {
		anns := w.Engine.Announcements(p)
		zero := make([]bgp.SiteAnnouncement, len(anns))
		for i, a := range anns {
			a.Prepend = 0
			zero[i] = a
		}
		if err := ref.Announce(p, zero); err != nil {
			t.Fatal(err)
		}
		want := w.Engine.Catchments(p)
		got := ref.Catchments(p)
		if len(got) != len(want) {
			t.Fatalf("prefix %s: %d ASes with explicit prepend=0; want %d", p, len(got), len(want))
		}
		for asn, site := range want {
			if got[asn] != site {
				t.Fatalf("prefix %s: AS %d served by %q with explicit prepend=0; want %q", p, asn, got[asn], site)
			}
		}
	}
}
