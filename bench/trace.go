package main

// The traced run's span recorder. Spans are written as anysim trace schema-2
// begin/end events (attrs span, id, parent, wall_ns) on an obs.Tracer that
// buffers in memory, and folded back through obs.ReadProfile, the reader
// behind `anysim profile`; no new trace format exists. The recorder assigns
// ids and wall_ns itself rather than using obs.StartSpan, because calls too
// short to span one by one (a probe's Forward, RTTSalted, ResolveHost,
// Traceroute) are accumulated per campaign and emitted as one span per layer
// whose begin and end the recorder chooses.
//
// A nil *tracer is the untraced path: timed just calls fn.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"anysim/internal/obs"
	"anysim/internal/stats"
)

// rootScope names the benchmark's own spans: set-up and one per client step.
// Every other scope is a program module, and a span there times one call
// into that module's public API.
const rootScope = "bench"

type tracer struct {
	tr    *obs.Tracer
	buf   bytes.Buffer
	epoch time.Time
	next  int64
	open  []int64
}

func newTracer(seed int64, worldHash string) *tracer {
	t := &tracer{epoch: time.Now()}
	t.tr = obs.NewTracer(&t.buf)
	t.tr.WriteHeader(obs.NewTraceHeader(seed, worldHash))
	return t
}

type span struct {
	t     *tracer
	scope string
	name  string
	id    int64
}

func (t *tracer) begin(scope, name string) span {
	if t == nil {
		return span{}
	}
	return t.beginAt(scope, name, time.Since(t.epoch))
}

func (t *tracer) beginAt(scope, name string, at time.Duration) span {
	t.next++
	parent := int64(0)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, t.next)
	t.tr.Emit(obs.Event{Scope: scope, Name: name, Attrs: []obs.Attr{
		obs.Str("span", "begin"), obs.Int("id", t.next), obs.Int("parent", parent), obs.Int("wall_ns", int64(at)),
	}})
	return span{t: t, scope: scope, name: name, id: t.next}
}

// end closes the span; spans close innermost first.
func (s span) end() {
	if s.t == nil {
		return
	}
	s.endAt(time.Since(s.t.epoch))
}

func (s span) endAt(at time.Duration, attrs ...obs.Attr) {
	t := s.t
	t.open = t.open[:len(t.open)-1]
	t.tr.Emit(obs.Event{Scope: s.scope, Name: s.name, Attrs: append([]obs.Attr{
		obs.Str("span", "end"), obs.Int("id", s.id), obs.Int("wall_ns", int64(at)),
	}, attrs...)})
}

// timed runs fn inside a span.
func (t *tracer) timed(scope, name string, fn func()) {
	sp := t.begin(scope, name)
	fn()
	sp.end()
}

// folded emits the accumulated time of calls too short to span singly as one
// span inside the innermost open span, starting at offset from the tracer
// epoch. Its calls attr carries how many calls it stands for.
func (t *tracer) folded(scope, name string, at, total time.Duration, calls int64) {
	if t == nil {
		return
	}
	t.beginAt(scope, name, at).endAt(at+total, obs.Int("calls", calls))
}

// write stores the trace; `anysim profile FILE` renders it.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	if err := t.tr.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, t.buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// folding is a trace read back through obs.ReadProfile, indexed by site.
type folding struct {
	prof  *obs.TraceProfile
	durs  map[string][]float64 // scope/name -> span durations, ns
	entry map[string]obs.ProfileEntry
}

func (t *tracer) fold() (*folding, error) {
	p, err := obs.ReadProfile(bytes.NewReader(t.buf.Bytes()))
	if err != nil {
		return nil, err
	}
	if p.Open != 0 {
		return nil, fmt.Errorf("trace: %d spans never ended", p.Open)
	}
	f := &folding{prof: p, durs: map[string][]float64{}, entry: map[string]obs.ProfileEntry{}}
	for _, sp := range p.Spans {
		k := sp.Scope + "/" + sp.Name
		f.durs[k] = append(f.durs[k], float64(sp.Dur()))
	}
	for _, e := range p.Entries {
		f.entry[e.Scope+"/"+e.Name] = e
	}
	return f, nil
}

// pct sets a per-layer metric to the q-th percentile of a span site's
// durations, in unit.
func (f *folding) pct(rep *report, metric, site string, q float64, unit time.Duration) {
	d := f.durs[site]
	if len(d) == 0 {
		return
	}
	rep.set(metric, stats.Percentile(d, q)/float64(unit), len(d), fmt.Sprintf("p%g of %s", q, site))
}

// total returns the summed duration of a span site.
func (f *folding) total(site string) time.Duration {
	return time.Duration(f.entry[site].TotalNs)
}

// setupName is the root span wrapping a traced run's set-up; it is not a
// client step, so it stays out of the step accounting below.
const setupName = "setup"

// cover sets bench.layer_cover_frac: the share of the traced steps' wall
// time spent inside calls into program modules, that is one minus the
// benchmark's own self time over the steps' total. It also notes each
// layer's share of that wall time.
func (f *folding) cover(rep *report) {
	byID := make(map[int64]*obs.SpanRecord, len(f.prof.Spans))
	for i := range f.prof.Spans {
		byID[f.prof.Spans[i].ID] = &f.prof.Spans[i]
	}
	var stepWall, benchSelf int64
	layer := map[string]int64{}
	for i := range f.prof.Spans {
		sp := &f.prof.Spans[i]
		root := sp
		for root.Parent != 0 {
			root = byID[root.Parent]
		}
		switch {
		case root.Name == setupName:
		case sp.Scope == rootScope:
			benchSelf += sp.Self()
			if sp == root {
				stepWall += sp.Dur()
			}
		default:
			layer[sp.Scope] += sp.Self()
		}
	}
	if stepWall == 0 {
		return
	}
	rep.set("bench.layer_cover_frac", 1-float64(benchSelf)/float64(stepWall), len(f.prof.Spans), "layer self time / traced step wall")
	names := make([]string, 0, len(layer))
	for l := range layer {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layer[names[i]] > layer[names[j]] })
	var b bytes.Buffer
	for _, l := range names {
		fmt.Fprintf(&b, " %s %.1f%%", l, 100*float64(layer[l])/float64(stepWall))
	}
	rep.notef("layer self-time shares of traced step wall:%s", b.String())
}
