// Package stats provides the statistical helpers the paper's analyses rely
// on: empirical CDFs, percentiles, medians, and table rendering. Probe-group
// aggregation (the paper reports all CDFs, percentages, and percentiles over
// <city,AS> probe groups rather than individual probes, §3.1) lives with the
// group table in package atlas.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of the values using
// linear interpolation between closest ranks. It returns NaN for an empty
// input.
func Percentile(values []float64, p float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile of values already sorted ascending, which
// it neither copies nor sorts. It returns NaN for an empty input.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileSelect is Percentile of values, which it reorders in place
// instead of copying and sorting: it selects just the one or two order
// statistics PercentileSorted reads, in expected linear time. It returns
// NaN for an empty input.
func PercentileSelect(values []float64, p float64) float64 {
	if n := len(values); n > 1 {
		lo := int(min(max(p, 0), 100) / 100 * float64(n-1))
		selectKth(values, lo)
		if lo+1 < n {
			selectKth(values[lo+1:], 0)
		}
	}
	return PercentileSorted(values, p)
}

// sortLess is sort.Float64s' order: ascending, NaN first.
func sortLess(a, b float64) bool { return a < b || (math.IsNaN(a) && !math.IsNaN(b)) }

// selectKth reorders v so v[k] holds the value sort.Float64s would put
// there, with no greater value before it and no smaller one after. The
// three-way partition keeps runs of equal values linear.
func selectKth(v []float64, k int) {
	lo, hi := 0, len(v)
	for hi-lo > 1 {
		pivot := v[lo+(hi-lo)/2]
		// [lo,lt) < pivot, [lt,i) == pivot, [gt,hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case sortLess(v[i], pivot):
				v[lt], v[i] = v[i], v[lt]
				lt++
				i++
			case sortLess(pivot, v[i]):
				gt--
				v[i], v[gt] = v[gt], v[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// Median returns the 50th percentile of the values.
func Median(values []float64) float64 { return Percentile(values, 50) }

// Mean returns the arithmetic mean, or NaN for an empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// FractionBelow returns the fraction of values strictly below the threshold.
// It returns 0 for an empty input.
func FractionBelow(values []float64, threshold float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v < threshold {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// FractionAbove returns the fraction of values strictly above the threshold.
func FractionAbove(values []float64, threshold float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v > threshold {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF over a copy of the values.
func NewCDF(values []float64) *CDF {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1). The CDF's values are
// already sorted, so it neither copies nor sorts them.
func (c *CDF) Quantile(q float64) float64 {
	return PercentileSorted(c.sorted, q*100)
}

// Points samples the CDF at n evenly spaced x positions between the min and
// max sample, suitable for plotting. It returns nil when there are no
// samples or n < 2.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n < 2 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts = append(pts, Point{X: x, Y: c.At(x)})
	}
	return pts
}

// Point is an (x, y) sample of a distribution curve.
type Point struct{ X, Y float64 }

// Table renders a simple aligned text table: a header row followed by data
// rows. It is used by the experiment harness to print paper-style tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a data row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Fmt1 formats a float with one decimal place; NaN renders as "-".
func Fmt1(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

// FmtPct formats a fraction as a percentage with one decimal place.
func FmtPct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", v*100)
}
