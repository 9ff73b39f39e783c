package rdns

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"
)

// oldStyleFor is styleFor as it was built on fmt and a fresh math/rand
// source.
func oldStyleFor(n *Namer, key string) Style {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s", n.Domain, n.seed, key)
	r := rand.New(rand.NewSource(int64(h.Sum64()))).Float64()
	switch {
	case r < n.PIATA:
		return StyleIATA
	case r < n.PIATA+n.POperator:
		return StyleOperatorCode
	case r < n.PIATA+n.POperator+n.POpaque:
		return StyleOpaque
	default:
		return StyleNone
	}
}

func TestStyleForMatchesFmtKey(t *testing.T) {
	for _, n := range []*Namer{NewNamer("edgecastcdn.net", 2023), NewNamer("x.example", -7)} {
		for i := 0; i < 2000; i++ {
			key := "core" + strconv.Itoa(i%4) + "/" + strconv.Itoa(i)
			if got, want := n.styleFor(key), oldStyleFor(n, key); got != want {
				t.Fatalf("%s key %q: style %d, want %d", n.Domain, key, got, want)
			}
		}
	}
}

func TestStyleForDoesNotAllocate(t *testing.T) {
	n := NewNamer("edgecastcdn.net", 2023)
	var sink Style
	allocs := testing.AllocsPerRun(100, func() { sink += n.styleFor("64512|FRA|2") })
	if allocs != 0 {
		t.Errorf("styleFor allocates %.0f times, want 0", allocs)
	}
	_ = sink
}
