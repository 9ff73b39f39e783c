package geodb

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"testing"

	"anysim/internal/netplan"
)

// TestRngForMatchesFmtKey holds a block's error draws to those of the
// fmt-built key and math/rand source they replace, over the longest draw
// sequence Lookup can take (three Float64, then up to eight Intn).
func TestRngForMatchesFmtKey(t *testing.T) {
	alloc := netplan.NewAllocator(netip.MustParsePrefix("16.0.0.0/8"))
	for _, d := range BuildDefault(&Truth{}, 2023) {
		for i := 0; i < 500; i++ {
			p := alloc.MustPrefix(24 + i%5)
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%d|%s", d.Name, d.seed, p)
			want := rand.New(rand.NewSource(int64(h.Sum64())))
			got := d.rngFor(p)
			for j := 0; j < 3; j++ {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("%s %v draw %d: %v, want %v", d.Name, p, j, g, w)
				}
			}
			for j := 0; j < 8; j++ {
				n := 2 + (i+j)%12
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("%s %v Intn(%d) %d: %d, want %d", d.Name, p, n, j, g, w)
				}
			}
		}
	}
}

// TestDrawPathDoesNotAllocate pins the keyed error draws allocation-free.
func TestDrawPathDoesNotAllocate(t *testing.T) {
	d := Build("maxmind-sim", &Truth{}, DefaultErrorModels()["maxmind-sim"], 2023)
	p := netip.MustParsePrefix("16.2.0.0/16")
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		rng := d.rngFor(p)
		sink += rng.Float64() + rng.Float64() + rng.Float64()
		for i := 0; i < 8; i++ {
			sink += float64(rng.Intn(12))
		}
	})
	if allocs != 0 {
		t.Errorf("draw path allocates %.0f times, want 0", allocs)
	}
	_ = sink
}
