// Package obs is the simulator's observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms) and a span/event tracer keyed
// to simulation clocks. It has two design constraints the usual metrics
// libraries do not:
//
//   - Determinism. The routing core and steering loop are bit-identical
//     across worker counts and reruns, and instrumenting them must not
//     break that: every metric in the "sim" class is derived only from
//     simulation state, counters and histograms accumulate integers (whose
//     addition is commutative, so concurrent trial forks can share them),
//     and snapshots encode in sorted name order with a fixed field layout.
//     Two runs of the same seed produce byte-identical sim snapshots and
//     byte-identical JSONL traces at any Workers setting.
//
//   - A free disabled path. Every handle (Counter, Gauge, Histogram,
//     Tracer) is nil-safe: a nil registry returns nil handles, and methods
//     on nil handles return immediately. Instrumented hot loops cost one
//     nil check per call site when observability is off, proven by the
//     benchmarks in bench_test.go.
//
// Wall-clock measurements (phase durations, evaluator chunk timings) are
// inherently nondeterministic, so they live in a separate "wall" metric
// class that is disabled by default and gated behind Registry.EnableWall;
// the sim section of a snapshot never depends on them.
package obs

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; a nil
// *Registry is: every constructor on a nil registry returns a nil handle,
// and nil handles are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	wall     atomic.Bool
}

// NewRegistry returns an empty registry with wall-clock metrics disabled.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// EnableWall switches collection of wall-clock-class metrics on or off.
// Sim-class metrics are unaffected.
func (r *Registry) EnableWall(on bool) {
	if r != nil {
		r.wall.Store(on)
	}
}

// WallEnabled reports whether wall-clock metrics are being collected.
func (r *Registry) WallEnabled() bool { return r != nil && r.wall.Load() }

// Counter registers (or retrieves) a sim-class counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.counter(name, false)
}

// WallCounter registers (or retrieves) a wall-clock-class counter (e.g.
// query counts of a live server, which no two runs repeat identically).
// Its Add is a no-op unless EnableWall(true) was called.
func (r *Registry) WallCounter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.counter(name, true)
}

// Gauge registers (or retrieves) a sim-class gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return r.gauge(name, false)
}

// WallGauge registers (or retrieves) a wall-clock-class gauge. Its Set is a
// no-op unless EnableWall(true) was called.
func (r *Registry) WallGauge(name string) *Gauge {
	return r.gauge(name, true)
}

func (r *Registry) gauge(name string, wall bool) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		if wall {
			g.gate = &r.wall
		}
		r.gauges[name] = g
	}
	return g
}

// Histogram registers (or retrieves) a sim-class histogram with the given
// ascending upper bucket bounds (an implicit +Inf bucket is appended).
// Observations and sums are integers so that concurrent observers produce
// order-independent state.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	return r.histogram(name, bounds, false)
}

// WallHistogram registers (or retrieves) a wall-clock-class histogram; its
// Observe is a no-op unless EnableWall(true) was called.
func (r *Registry) WallHistogram(name string, bounds []int64) *Histogram {
	return r.histogram(name, bounds, true)
}

func (r *Registry) histogram(name string, bounds []int64, wall bool) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		if wall {
			h.gate = &r.wall
		}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing integer metric. All methods are
// safe on a nil receiver and for concurrent use; concurrent adds commute,
// so totals are independent of scheduling.
type Counter struct {
	v    atomic.Int64
	gate *atomic.Bool
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil || (c.gate != nil && !c.gate.Load()) {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float metric. Deterministic snapshots require
// that sim-class gauges are only Set from serial (deterministically
// ordered) code paths; wall-class gauges carry no such obligation.
type Gauge struct {
	bits atomic.Uint64
	gate *atomic.Bool
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || (g.gate != nil && !g.gate.Load()) {
		return
	}
	g.bits.Store(floatBits(v))
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the stored value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// Histogram is a fixed-bucket integer histogram: counts[i] tallies
// observations v <= bounds[i]; the final bucket is unbounded. Sum and count
// are integers, so the histogram state reached by any interleaving of a
// fixed multiset of observations is identical.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	gate   *atomic.Bool
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil || (h.gate != nil && !h.gate.Load()) {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Pow2Bounds returns the bucket bounds 1, 2, 4, ..., 2^maxExp — the
// standard shape for work-size histograms (dirty sets, frontier sizes,
// iteration counts), whose interesting structure is logarithmic.
func Pow2Bounds(maxExp int) []int64 {
	out := make([]int64, maxExp+1)
	for i := range out {
		out[i] = int64(1) << uint(i)
	}
	return out
}

// WriteSnapshot encodes the registry as deterministic JSON: a "sim"
// section and, while wall collection is on (EnableWall(true)), a "wall"
// section, each holding counters, gauges, and histograms in sorted name
// order with a fixed field layout. Metric values in the sim section are
// pure functions of the simulation, so two runs of the same seed produce
// byte-identical sim sections at any worker count. With wall collection
// off the wall section is omitted rather than written as zeros;
// RestoreSnapshot accepts either form. A nil registry writes "{}".
func (r *Registry) WriteSnapshot(w io.Writer) error {
	_, err := w.Write(r.AppendSnapshot(nil))
	return err
}

// AppendSnapshot appends the snapshot encoding to b (see WriteSnapshot).
func (r *Registry) AppendSnapshot(b []byte) []byte {
	if r == nil {
		return append(b, "{}\n"...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b = append(b, "{\n  \"sim\": "...)
	b = r.appendSection(b, false)
	if r.wall.Load() {
		b = append(b, ",\n  \"wall\": "...)
		b = r.appendSection(b, true)
	}
	return append(b, "\n}\n"...)
}

// appendSection encodes one metric class. Caller holds r.mu.
func (r *Registry) appendSection(b []byte, wall bool) []byte {
	b = append(b, "{\n    \"counters\": {"...)
	b = appendSorted(b, r.counters, wall, func(b []byte, c *Counter) []byte {
		return strconv.AppendInt(b, c.v.Load(), 10)
	})
	b = append(b, "},\n    \"gauges\": {"...)
	b = appendSorted(b, r.gauges, wall, func(b []byte, g *Gauge) []byte {
		return appendFloat(b, floatFromBits(g.bits.Load()))
	})
	b = append(b, "},\n    \"histograms\": {"...)
	b = appendSorted(b, r.hists, wall, func(b []byte, h *Histogram) []byte {
		b = append(b, `{"bounds": [`...)
		for i, bd := range h.bounds {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, bd, 10)
		}
		b = append(b, `], "counts": [`...)
		for i := range h.counts {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, h.counts[i].Load(), 10)
		}
		b = append(b, `], "count": `...)
		b = strconv.AppendInt(b, h.count.Load(), 10)
		b = append(b, `, "sum": `...)
		b = strconv.AppendInt(b, h.sum.Load(), 10)
		return append(b, '}')
	})
	return append(b, "}\n  }"...)
}

// walled reports a metric handle's class via its gate pointer.
func walled[M any](m M) bool {
	switch h := any(m).(type) {
	case *Counter:
		return h.gate != nil
	case *Gauge:
		return h.gate != nil
	case *Histogram:
		return h.gate != nil
	}
	return false
}

// appendSorted encodes the entries of one class from a metric map in sorted
// name order.
func appendSorted[M any](b []byte, m map[string]M, wall bool, enc func([]byte, M) []byte) []byte {
	names := make([]string, 0, len(m))
	for name, h := range m {
		if walled(h) == wall {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n      "...)
		b = appendJSONString(b, name)
		b = append(b, ": "...)
		b = enc(b, m[name])
	}
	if len(names) > 0 {
		b = append(b, "\n    "...)
	}
	return b
}
