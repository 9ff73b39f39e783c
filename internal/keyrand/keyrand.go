// Package keyrand makes keyed random draws without allocating. A keyed draw
// hashes a key (FNV-64a), seeds a math/rand source with the hash, and takes
// a few values from it: deterministic noise per (probe, prefix), per router
// interface, per geolocation block. Seeding a math/rand source fills a
// 607-word register (5 KB) and runs ~1,800 rounds of its seeding LCG, which
// is thousands of times the cost of the one or two draws the caller wants.
//
// A Stream returns, bit for bit, the values rand.New(rand.NewSource(seed))
// returns. The math/rand v1 value stream is frozen by the Go 1 compatibility
// promise, so the closed form below stays valid:
//
//   - rngSource.Seed fills vec[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i],
//     where x_k = seed·48271ᵏ mod (2³¹−1) is its seeding LCG after k steps;
//   - draw n (1-based) is vec[334−n] + vec[607−n], which holds while
//     n ≤ 273 because neither word has been overwritten yet.
//
// A Stream computes its first 16 draws (the window) from a precomputed
// power table and the rngCooked words those draws read. Past the window it
// falls back to a real math/rand source advanced by 16 draws, so any number
// of draws stays exact; only streams that long allocate.
package keyrand

import (
	"math/rand"
	"net/netip"
)

const (
	window = 16 // draws computed in closed form

	m     = 1<<31 - 1 // seeding LCG modulus
	a     = 48271     // seeding LCG multiplier
	feed0 = 334       // rngLen - rngTap: the feed index before the first draw
	tap0  = 607       // rngLen: the tap index before the first draw
)

// cooked holds rngCooked[feed0-n] and rngCooked[tap0-n] for draws
// n = 1..window, copied from $GOROOT/src/math/rand/rng.go.
var cooked = [window][2]int64{
	{-4633371852008891965, 4152330101494654406},
	{4287360518296753003, 9103922860780351547},
	{-1072987336855386047, 8382142935188824023},
	{220828013409515943, -2171292963361310674},
	{-7602572252857820065, -6278469401177312761},
	{-4799698790548231394, -307900319840287220},
	{3648778920718647903, -1894351639983151068},
	{581945337509520675, -758328221503023383},
	{-8060058171802589521, 5896236396443472108},
	{-6564663803938238204, -6344160503358350167},
	{-2889241648411946534, -4300543082831323144},
	{-3915372517896561773, -3929437324238184044},
	{3681559472488511871, -7703910638917631350},
	{2681532557646850893, 2918308698224194548},
	{-4304087667751778808, 4133292154170828382},
	{-8394115921626182539, -7490986807540332668},
}

// word is the seed-independent part of one register word vec[i]: the LCG
// multipliers 48271^(21+3i+j) mod m of its three 20-bit-shifted parts, and
// its rngCooked constant.
type word struct {
	pow    [3]uint64
	cooked uint64
}

// draws[n-1] are the two register words draw n adds.
var draws [window][2]word

func init() {
	for n := 1; n <= window; n++ {
		for j, i := range [2]int{feed0 - n, tap0 - n} {
			w := &draws[n-1][j]
			for k := range w.pow {
				w.pow[k] = powMod(a, uint64(21+3*i+k))
			}
			w.cooked = uint64(cooked[n-1][j])
		}
	}
}

// powMod returns b^e mod m.
func powMod(b, e uint64) uint64 {
	r := uint64(1)
	for b %= m; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * b % m
		}
		b = b * b % m
	}
	return r
}

// Stream is a keyed draw sequence equal to rand.New(rand.NewSource(seed)).
// The zero value is not valid; use New or ForKey. A Stream is a small value
// meant to live on the caller's stack.
type Stream struct {
	seed uint64        // the source's seed, normalised into [1, m)
	n    int           // draws taken
	src  rand.Source64 // fallback source once n reaches window
}

// New returns the stream of rand.NewSource(seed).
func New(seed int64) Stream {
	// rngSource.Seed's normalisation.
	seed %= m
	if seed < 0 {
		seed += m
	}
	if seed == 0 {
		seed = 89482311
	}
	return Stream{seed: uint64(seed)}
}

// ForKey returns the stream seeded with the FNV-64a hash of key: the value
// rand.NewSource(int64(h.Sum64())) after writing key to fnv.New64a().
func ForKey(key []byte) Stream {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= prime64
	}
	return New(int64(h))
}

// AppendPrefix appends p as fmt's %s verb prints it, so keys built with it
// hash exactly as the fmt-formatted keys they replace.
func AppendPrefix(b []byte, p netip.Prefix) []byte {
	if !p.IsValid() {
		return append(b, "invalid Prefix"...)
	}
	return p.AppendTo(b)
}

// value returns register word w for the stream's seed.
func (s *Stream) value(w *word) uint64 {
	x := s.seed
	return (x*w.pow[0]%m)<<40 ^ (x*w.pow[1]%m)<<20 ^ (x * w.pow[2] % m) ^ w.cooked
}

// next returns the next 64-bit value, as rand.Source64.Uint64 does.
func (s *Stream) next() uint64 {
	if s.n < window {
		d := &draws[s.n]
		s.n++
		return s.value(&d[0]) + s.value(&d[1])
	}
	if s.src == nil {
		s.src = rand.NewSource(int64(s.seed)).(rand.Source64)
		for i := 0; i < window; i++ {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

// The methods below are copied from math/rand's Rand so that they consume
// and transform the stream exactly as it does.

// int63 returns a non-negative 63-bit integer.
func (s *Stream) int63() int64 { return int64(s.next() & (1<<63 - 1)) }

// int31 returns a non-negative 31-bit integer.
func (s *Stream) int31() int32 { return int32(s.int63() >> 32) }

// int63n returns an integer in [0, n). It panics if n <= 0.
func (s *Stream) int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return s.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.int63()
	for v > max {
		v = s.int63()
	}
	return v % n
}

// int31n returns an integer in [0, n). It panics if n <= 0.
func (s *Stream) int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return s.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return v % n
}

// Intn returns an integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// Float64 returns a float in [0.0, 1.0).
func (s *Stream) Float64() float64 {
again:
	f := float64(s.int63()) / (1 << 63)
	if f == 1 {
		goto again // resample, as math/rand does
	}
	return f
}
