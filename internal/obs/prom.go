package obs

// Prometheus text exposition (format version 0.0.4) of the registry, for
// the `/metrics.prom` endpoints on `anysim serve` and `-debug-addr`. The
// encoding is deterministic: names are sorted and the layout is fixed. Both
// metric classes share the flat `anysim_` namespace (Prometheus has no
// section nesting); wall-class metrics are exposed even while gated off —
// they just read zero until EnableWall.

import (
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
)

// promName sanitizes a registry metric name into a Prometheus metric name:
// prefix `anysim_`, every character outside [a-zA-Z0-9_] becomes `_`.
func promName(name string) string {
	b := make([]byte, 0, len(name)+7)
	b = append(b, "anysim_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// appendPromFloat renders a float the Prometheus way: bare NaN/+Inf/-Inf
// tokens, otherwise shortest 'g' form.
func appendPromFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteProm writes the registry in Prometheus text exposition format.
func (r *Registry) WriteProm(w io.Writer) error {
	_, err := w.Write(r.AppendProm(nil))
	return err
}

// AppendProm appends the Prometheus text exposition of the registry to b:
// counters as `<name>_total`, gauges as-is, histograms as cumulative
// `_bucket{le="..."}` series with `_sum` and `_count`, all in sorted name
// order with `# TYPE` headers. A nil registry appends nothing.
func (r *Registry) AppendProm(b []byte) []byte {
	if r == nil {
		return b
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	for _, name := range sortedNames(r.counters) {
		c := r.counters[name]
		pn := promName(name) + "_total"
		b = append(b, "# TYPE "...)
		b = append(b, pn...)
		b = append(b, " counter\n"...)
		b = append(b, pn...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, c.v.Load(), 10)
		b = append(b, '\n')
	}
	for _, name := range sortedNames(r.gauges) {
		g := r.gauges[name]
		pn := promName(name)
		b = append(b, "# TYPE "...)
		b = append(b, pn...)
		b = append(b, " gauge\n"...)
		b = append(b, pn...)
		b = append(b, ' ')
		b = appendPromFloat(b, floatFromBits(g.bits.Load()))
		b = append(b, '\n')
	}
	for _, name := range sortedNames(r.hists) {
		h := r.hists[name]
		pn := promName(name)
		b = append(b, "# TYPE "...)
		b = append(b, pn...)
		b = append(b, " histogram\n"...)
		// Prometheus buckets are cumulative: each le bound counts every
		// observation at or below it, ending with the +Inf total.
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			b = append(b, pn...)
			b = append(b, `_bucket{le="`...)
			b = strconv.AppendInt(b, bound, 10)
			b = append(b, `"} `...)
			b = strconv.AppendInt(b, cum, 10)
			b = append(b, '\n')
		}
		cum += h.counts[len(h.bounds)].Load()
		b = append(b, pn...)
		b = append(b, `_bucket{le="+Inf"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
		b = append(b, pn...)
		b = append(b, "_sum "...)
		b = strconv.AppendInt(b, h.sum.Load(), 10)
		b = append(b, '\n')
		b = append(b, pn...)
		b = append(b, "_count "...)
		b = strconv.AppendInt(b, h.count.Load(), 10)
		b = append(b, '\n')
	}
	return b
}

// sortedNames returns the map's keys in sorted order. Caller holds r.mu.
func sortedNames[M any](m map[string]M) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runtimeSamples are the runtime/metrics series AppendRuntimeProm reads.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

// AppendRuntimeProm appends the Go runtime's GC cost, in the exposition
// format of AppendProm: the share of CPU time spent in GC since the
// process started, and the cumulative bytes and objects allocated on the
// heap. Unlike the registry these are not deterministic, so the live
// /metrics.prom endpoints append them after the registry and snapshots
// never carry them. The CPU classes are estimates the runtime refreshes at
// each GC; before the first one the fraction reads 0.
func AppendRuntimeProm(b []byte) []byte {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	value := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0 // unsupported by this runtime
	}
	frac := 0.0
	if total := value(1); total > 0 {
		frac = value(0) / total
	}
	for _, m := range []struct {
		name, typ string
		v         float64
	}{
		{"anysim_runtime_gc_cpu_fraction", "gauge", frac},
		{"anysim_runtime_heap_allocs_bytes_total", "counter", value(2)},
		{"anysim_runtime_heap_allocs_objects_total", "counter", value(3)},
	} {
		b = append(b, "# TYPE "...)
		b = append(b, m.name...)
		b = append(b, ' ')
		b = append(b, m.typ...)
		b = append(b, '\n')
		b = append(b, m.name...)
		b = append(b, ' ')
		b = appendPromFloat(b, m.v)
		b = append(b, '\n')
	}
	return b
}
