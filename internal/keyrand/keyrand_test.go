package keyrand

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/netip"
	"testing"
)

// oracleSeeds are 10,000 random seeds plus the edges of rngSource.Seed's
// normalisation: zero (replaced by 89482311), the replacement itself,
// negatives, multiples of 2^31-1 (which normalise to zero), and the int64
// extremes.
func oracleSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 89482311, -89482311,
		m, -m, 2 * m, -2 * m, m - 1, m + 1, -(m - 1), -(m + 1),
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32, (math.MaxInt64 / m) * m,
	}
	r := rand.New(rand.NewSource(20231009))
	for i := 0; i < 10000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestStreamMatchesMathRand holds every draw through the closed-form window
// and well into the fallback equal to math/rand's.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds() {
		want := rand.New(rand.NewSource(seed))
		s := New(seed)
		for n := 1; n <= 2*window+3; n++ {
			if got, w := s.next(), want.Uint64(); got != w {
				t.Fatalf("seed %d draw %d: %#x, want %#x", seed, n, got, w)
			}
		}
	}
}

// TestDerivedDrawsMatchMathRand covers the verbatim copies: Float64, Intn
// on the mask path (powers of two) and the rejection path, Int31n and
// Int63n, interleaved so a stream crosses the window mid-sequence.
func TestDerivedDrawsMatchMathRand(t *testing.T) {
	ns := []int{1, 2, 3, 7, 8, 12, 64, 100, 1000, 1 << 20, 1<<30 + 1, 1<<31 - 1}
	for i, seed := range oracleSeeds() {
		want := rand.New(rand.NewSource(seed))
		s := New(seed)
		for step := 0; step < window+4; step++ {
			switch step % 4 {
			case 0:
				if got, w := s.Float64(), want.Float64(); got != w {
					t.Fatalf("seed %d step %d Float64: %v, want %v", seed, step, got, w)
				}
			case 1:
				n := ns[(i+step)%len(ns)]
				if got, w := s.Intn(n), want.Intn(n); got != w {
					t.Fatalf("seed %d step %d Intn(%d): %d, want %d", seed, step, n, got, w)
				}
			case 2:
				n := int32(ns[(i+step)%len(ns)])
				if got, w := s.int31n(n), want.Int31n(n); got != w {
					t.Fatalf("seed %d step %d Int31n(%d): %d, want %d", seed, step, n, got, w)
				}
			case 3:
				n := int64(ns[(i+step)%len(ns)]) << 20
				if got, w := s.int63n(n), want.Int63n(n); got != w {
					t.Fatalf("seed %d step %d Int63n(%d): %d, want %d", seed, step, n, got, w)
				}
			}
		}
	}
}

// TestRejectionPathConsumesExtraDraws drives Intn with an n whose rejection
// threshold is hit often (just above a power of two, 2^30+1 rejects ~half
// of all draws), so multi-draw rejection loops cross the window.
func TestRejectionPathConsumesExtraDraws(t *testing.T) {
	const n = 1<<30 + 1
	rejected := 0
	for _, seed := range oracleSeeds()[:2000] {
		want := rand.New(rand.NewSource(seed))
		s := New(seed)
		for i := 0; i < window; i++ {
			if got, w := s.Intn(n), want.Intn(n); got != w {
				t.Fatalf("seed %d call %d: %d, want %d", seed, i, got, w)
			}
		}
		if s.n > window {
			t.Fatalf("draw counter %d past window", s.n)
		}
		if s.src != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no stream reached the fallback; the test does not cover it")
	}
}

// TestForKeyMatchesFNV holds ForKey and AppendPrefix to the fmt + hash/fnv
// construction they replace.
func TestForKeyMatchesFNV(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("203.0.113.0/24"),
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("2001:db8::/32"),
		{},
	}
	for i, p := range prefixes {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%s", int64(i)-2, p, "www.example.com")
		want := rand.New(rand.NewSource(int64(h.Sum64())))

		key := fmt.Appendf(nil, "%d|", int64(i)-2)
		key = AppendPrefix(key, p)
		key = append(key, "|www.example.com"...)
		s := ForKey(key)
		if got, w := s.Float64(), want.Float64(); got != w {
			t.Errorf("prefix %v: %v, want %v", p, got, w)
		}
	}
}

func TestKeyedDrawDoesNotAllocate(t *testing.T) {
	key := []byte("maxmind-sim|2023|203.0.113.0/24")
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		s := ForKey(key)
		sink += s.Float64() + float64(s.Intn(12))
	})
	if allocs != 0 {
		t.Errorf("keyed draw allocates %.0f times, want 0", allocs)
	}
	_ = sink
}

var benchSink float64

func BenchmarkKeyedFloat64(b *testing.B) {
	key := []byte("maxmind-sim|2023|203.0.113.0/24")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := ForKey(key)
		benchSink += s.Float64()
	}
}

func BenchmarkMathRandKeyedFloat64(b *testing.B) {
	key := []byte("maxmind-sim|2023|203.0.113.0/24")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := fnv.New64a()
		h.Write(key)
		benchSink += rand.New(rand.NewSource(int64(h.Sum64()))).Float64()
	}
}
