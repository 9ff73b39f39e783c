package atlas

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"testing"

	"anysim/internal/topo"
)

// keyedFloat is the fmt + hash/fnv + math/rand construction the keyed draws
// replaced.
func keyedFloat(format string, args ...any) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, format, args...)
	return rand.New(rand.NewSource(int64(h.Sum64()))).Float64()
}

// TestKeyedDrawsMatchFmtKeys holds jitter and siteRouterAnswers to the
// fmt-built keys they replace, including the zero prefix fmt prints as
// "invalid Prefix" and negative seeds.
func TestKeyedDrawsMatchFmtKeys(t *testing.T) {
	f := newFixture(t)
	prefixes := []netip.Prefix{f.prefix, netip.MustParsePrefix("10.20.0.0/16"), {}}
	for _, seed := range []int64{31, -5, 2023} {
		m := NewMeasurer(f.engine, f.addr, seed)
		for i, p := range f.platform.Probes {
			pfx := prefixes[i%len(prefixes)]
			salt := []string{"", "www.example.com", "img.cdn-sim.example"}[i%3]
			want := keyedFloat("%d|%d|%s|%s", m.Seed, p.ID, pfx, salt) * m.Model.JitterMs
			if got := m.jitter(p, pfx, salt); got != want {
				t.Fatalf("seed %d probe %d: jitter %v, want %v", seed, p.ID, got, want)
			}
			origin := topo.ASN(64512 + i)
			want = keyedFloat("srv|%d|%d|%s|%d", m.Seed, origin, "fra", p.ID)
			if got := m.siteRouterAnswers(origin, "fra", p.ID); got != (want < m.SiteRouterProb) {
				t.Fatalf("seed %d probe %d: siteRouterAnswers %v, draw %v", seed, p.ID, got, want)
			}
		}
	}
}

// TestRTTSaltedDoesNotAllocate pins the per-measurement RTT path
// allocation-free: the campaign calls it for every probe and VIP.
func TestRTTSaltedDoesNotAllocate(t *testing.T) {
	f := newFixture(t)
	p := f.platform.Retained()[0]
	fwd, ok := f.measurer.Forward(p, f.prefix)
	if !ok {
		t.Fatal("no route")
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += f.measurer.RTTSalted(p, fwd, "www.example.com")
		if f.measurer.siteRouterAnswers(f.cdnASN, "fra", p.ID) {
			sink++
		}
	})
	if allocs != 0 {
		t.Errorf("RTTSalted allocates %.0f times, want 0", allocs)
	}
	_ = sink
}
