package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, tt := range tests {
		if got := Percentile(vals, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
	if got := Percentile([]float64{42}, 73); got != 42 {
		t.Errorf("Percentile(single, 73) = %v, want 42", got)
	}
	// Out-of-range p clamps.
	if got := Percentile(vals, -5); got != 1 {
		t.Errorf("Percentile(-5) = %v, want 1", got)
	}
	if got := Percentile(vals, 150); got != 10 {
		t.Errorf("Percentile(150) = %v, want 10", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	Percentile(vals, 50)
	want := []float64{5, 1, 4, 2, 3}
	for i := range vals {
		if vals[i] != want[i] {
			t.Fatalf("Percentile mutated its input: %v", vals)
		}
	}
}

func TestPercentileMonotone(t *testing.T) {
	// Percentile must be monotone nondecreasing in p.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(vals, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianMean(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestFractions(t *testing.T) {
	vals := []float64{10, 20, 30, 40}
	if got := FractionBelow(vals, 25); got != 0.5 {
		t.Errorf("FractionBelow = %v, want 0.5", got)
	}
	if got := FractionAbove(vals, 25); got != 0.5 {
		t.Errorf("FractionAbove = %v, want 0.5", got)
	}
	if got := FractionBelow(vals, 10); got != 0 {
		t.Errorf("FractionBelow(10) = %v, want 0 (strict)", got)
	}
	if got := FractionBelow(nil, 1); got != 0 {
		t.Errorf("FractionBelow(nil) = %v, want 0", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	tests := []struct {
		x, want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("CDF.At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if got := c.Quantile(0.5); got != 2.5 {
		t.Errorf("Quantile(0.5) = %v, want 2.5", got)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 1000
		}
		c := NewCDF(vals)
		prev := -1.0
		for x := -10.0; x < 1100; x += 37 {
			y := c.At(x)
			if y < prev || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return c.At(1e12) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCDFQuantileMatchesPercentile: Quantile reads the CDF's sorted values
// in place, answering what Percentile answers of the raw values without
// allocating.
func TestCDFQuantileMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		vals := make([]float64, 1+rng.Intn(50))
		for i := range vals {
			vals[i] = math.Round(rng.NormFloat64()*100) / 4
		}
		c := NewCDF(vals)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1, rng.Float64()} {
			if got, want := c.Quantile(q), Percentile(vals, q*100); got != want {
				t.Fatalf("trial %d: Quantile(%v) = %v, Percentile = %v", trial, q, got, want)
			}
		}
	}
	c := NewCDF([]float64{5, 1, 4, 2, 3})
	if n := testing.AllocsPerRun(100, func() { c.Quantile(0.9) }); n != 0 {
		t.Fatalf("Quantile allocates %v times per call", n)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("Points returned %d points, want 11", len(pts))
	}
	if pts[0].X != 0 || pts[10].X != 10 {
		t.Errorf("Points x-range = [%v, %v], want [0, 10]", pts[0].X, pts[10].X)
	}
	if pts[10].Y != 1 {
		t.Errorf("final CDF point y = %v, want 1", pts[10].Y)
	}
	if NewCDF(nil).Points(10) != nil {
		t.Error("Points over empty CDF should be nil")
	}
	if c.Points(1) != nil {
		t.Error("Points(1) should be nil")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Header: []string{"Region", "RTT"}}
	tb.AddRow("EMEA", "45.0")
	tb.AddRow("NA", "38.0")
	s := tb.String()
	if !strings.Contains(s, "Region") || !strings.Contains(s, "EMEA") {
		t.Errorf("table render missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), s)
	}
}

func TestFormatters(t *testing.T) {
	if got := Fmt1(3.14159); got != "3.1" {
		t.Errorf("Fmt1 = %q", got)
	}
	if got := Fmt1(math.NaN()); got != "-" {
		t.Errorf("Fmt1(NaN) = %q", got)
	}
	if got := FmtPct(0.123); got != "12.3%" {
		t.Errorf("FmtPct = %q", got)
	}
}

func TestPercentileMatchesSortedRank(t *testing.T) {
	// For p hitting exact ranks, Percentile equals the sorted element.
	vals := []float64{9, 7, 5, 3, 1}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for i, want := range sorted {
		p := float64(i) / float64(len(vals)-1) * 100
		if got := Percentile(vals, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// TestPercentileSelectMatchesSort holds the selection to sort +
// PercentileSorted on random inputs: lengths from 1 up, values drawn from
// a small pool so duplicates are common, with ±Inf and NaN mixed in, at the
// percentiles the load plane reads, the ends, and random ones.
func TestPercentileSelectMatchesSort(t *testing.T) {
	pool := []float64{math.Inf(-1), -3.5, 0, 1, 1, 2.25, 7, 40, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(1+trial%200)
		vals := make([]float64, n)
		for i := range vals {
			if rng.Intn(3) == 0 {
				vals[i] = rng.NormFloat64() * 50
			} else {
				vals[i] = pool[rng.Intn(len(pool))]
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		sel := append([]float64(nil), vals...)
		for _, p := range []float64{50, 90, 0, 100, 99.9, rng.Float64() * 100} {
			want, got := PercentileSorted(sorted, p), PercentileSelect(sel, p)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("trial %d: p%v of %v: select %v, sort %v", trial, p, vals, got, want)
			}
		}
		// The selection only reorders: the multiset is unchanged.
		sort.Float64s(sel)
		for i := range sel {
			if sel[i] != sorted[i] && !(math.IsNaN(sel[i]) && math.IsNaN(sorted[i])) {
				t.Fatalf("trial %d: selection changed the values: %v, want %v", trial, sel, sorted)
			}
		}
	}
	if !math.IsNaN(PercentileSelect(nil, 50)) {
		t.Error("PercentileSelect(nil) should be NaN")
	}
}
