// Package ts is the simulator's flight recorder: fixed-capacity,
// simulation-tick-keyed ring-buffer time series plus a declarative SLO rule
// engine with a pending→firing→resolved alert lifecycle. Where the obs
// registry answers "what are the totals now", ts answers "what was the
// trajectory" — per-site utilization, per-region latency percentiles,
// catchment share, and reconvergence cost over the virtual clock — which is
// what the paper's claims (and the twin's pager) are actually about.
//
// It inherits both obs design constraints:
//
//   - Determinism. Samples are keyed by simulation tick, never wall time,
//     and are taken on serial paths (the server's publish path, a scenario
//     runner's step loop), so the buffer contents — and the alert
//     transitions derived from them — are pure functions of the event
//     history. AppendJSON encodes series in sorted name order with a fixed
//     field layout: two runs of the same inputs produce byte-identical
//     dumps at any worker count.
//
//   - A free disabled path. A nil *DB is a valid disabled recorder: every
//     method returns immediately (see bench_test.go).
package ts

import (
	"sort"
	"strconv"
	"sync"

	"anysim/internal/obs"
)

// SchemaVersion identifies the dump layout (AppendJSON) and the attribute
// set of SLO trace events; bump it when either changes shape.
const SchemaVersion = 1

// DefaultCapacity is the per-series ring capacity when Config.Capacity is 0:
// enough for several simulated days at hourly ticks without unbounded growth.
const DefaultCapacity = 512

// historyCap bounds the retained alert-transition history.
const historyCap = 1024

// Point is one sample: a value at a simulation tick.
type Point struct {
	Tick int64   `json:"tick"`
	V    float64 `json:"v"`
}

// Series is one named ring buffer of points. Not safe for concurrent use on
// its own; the DB serializes access.
type Series struct {
	pts   []Point // circular, cap fixed at construction
	start int     // index of the oldest point
	n     int     // live points
}

// newSeries returns an empty series with the given capacity.
func newSeries(capacity int) *Series {
	return &Series{pts: make([]Point, capacity)}
}

// at returns the i-th live point (0 = oldest).
func (s *Series) at(i int) Point { return s.pts[(s.start+i)%len(s.pts)] }

// newest returns the most recent point; ok is false on an empty series.
func (s *Series) newest() (Point, bool) {
	if s.n == 0 {
		return Point{}, false
	}
	return s.at(s.n - 1), true
}

// record stores v at tick. The tick clock only runs forward: a sample at the
// newest tick overwrites (last-write-wins) or accumulates onto it, and a
// sample older than the newest tick is dropped. When the ring is full the
// oldest point is evicted.
func (s *Series) record(tick int64, v float64, accumulate bool) {
	if last, ok := s.newest(); ok {
		if tick < last.Tick {
			return
		}
		if tick == last.Tick {
			i := (s.start + s.n - 1) % len(s.pts)
			if accumulate {
				s.pts[i].V += v
			} else {
				s.pts[i].V = v
			}
			return
		}
	}
	if s.n == len(s.pts) {
		s.pts[s.start] = Point{Tick: tick, V: v}
		s.start = (s.start + 1) % len(s.pts)
		return
	}
	s.pts[(s.start+s.n)%len(s.pts)] = Point{Tick: tick, V: v}
	s.n++
}

// query returns the points with from <= Tick <= to, downsampled to at most
// max points when max > 0. Downsampling strides from the newest point
// backwards (the newest retained sample is always included), so for a fixed
// buffer and arguments the result is deterministic.
func (s *Series) query(from, to int64, max int) []Point {
	var sel []Point
	for i := 0; i < s.n; i++ {
		p := s.at(i)
		if p.Tick >= from && p.Tick <= to {
			sel = append(sel, p)
		}
	}
	if max <= 0 || len(sel) <= max {
		return sel
	}
	stride := (len(sel) + max - 1) / max
	out := make([]Point, 0, max)
	for i := len(sel) - 1; i >= 0; i -= stride {
		out = append(out, sel[i])
	}
	// Reverse back into ascending tick order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Config assembles a DB.
type Config struct {
	// Capacity is the per-series ring size; DefaultCapacity when 0.
	Capacity int
	// Rules are the SLO rules to evaluate; DefaultRules() when nil.
	Rules []Rule
}

// DB owns a set of named series and the SLO rule states derived from them.
// All methods are safe for concurrent use and safe on a nil receiver (the
// disabled recorder).
type DB struct {
	mu       sync.Mutex
	capacity int
	series   map[string]*Series
	rules    []*ruleState
	history  []Transition
	load     *loadSeries // SampleLoad's series for the last site list

	o dbObs
}

// dbObs bundles the DB's observability handles; the zero value is disabled.
type dbObs struct {
	samples  *obs.Counter // ts.samples
	firing   *obs.Gauge   // slo.firing
	fired    *obs.Counter // slo.alerts.fired
	resolved *obs.Counter // slo.alerts.resolved
	tracer   *obs.Tracer
}

// New returns a DB with the config's rules armed.
func New(cfg Config) *DB {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Rules == nil {
		cfg.Rules = DefaultRules()
	}
	db := &DB{capacity: cfg.Capacity, series: map[string]*Series{}}
	for _, r := range cfg.Rules {
		db.rules = append(db.rules, newRuleState(r))
	}
	return db
}

// Instrument attaches a metrics registry and tracer. Either may be nil.
// Alert transitions then emit schema-versioned trace events (scope "slo")
// and sim-class metrics. Call before sampling; not synchronized with
// concurrent use.
func (db *DB) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	if db == nil {
		return
	}
	db.o = dbObs{
		samples:  reg.Counter("ts.samples"),
		firing:   reg.Gauge("slo.firing"),
		fired:    reg.Counter("slo.alerts.fired"),
		resolved: reg.Counter("slo.alerts.resolved"),
		tracer:   tr,
	}
}

// Capacity returns the per-series ring size (0 on a nil DB).
func (db *DB) Capacity() int {
	if db == nil {
		return 0
	}
	return db.capacity
}

// Observe records v for the named series at tick, last-write-wins within a
// tick (re-publishing a tick replaces its sample).
func (db *DB) Observe(tick int64, name string, v float64) {
	if db == nil {
		return
	}
	db.record(tick, name, v, false)
}

// Add accumulates v onto the named series at tick (several events within
// one tick sum — the shape reconvergence cost wants).
func (db *DB) Add(tick int64, name string, v float64) {
	if db == nil {
		return
	}
	db.record(tick, name, v, true)
}

func (db *DB) record(tick int64, name string, v float64, accumulate bool) {
	db.mu.Lock()
	db.seriesLocked(name).record(tick, v, accumulate)
	db.mu.Unlock()
	db.o.samples.Inc()
}

// seriesLocked returns the named series, creating it empty on first use.
// Series are never removed, so the pointer stays the series' handle.
// Caller holds db.mu.
func (db *DB) seriesLocked(name string) *Series {
	s := db.series[name]
	if s == nil {
		s = newSeries(db.capacity)
		db.series[name] = s
	}
	return s
}

// Names returns the recorded series names in sorted order.
func (db *DB) Names() []string {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.sortedNamesLocked()
}

func (db *DB) sortedNamesLocked() []string {
	names := make([]string, 0, len(db.series))
	for name := range db.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Query returns the named series' points with from <= Tick <= to,
// downsampled to at most max points when max > 0 (see Series.query). The
// second result is false when the series does not exist.
func (db *DB) Query(name string, from, to int64, max int) ([]Point, bool) {
	if db == nil {
		return nil, false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.series[name]
	if s == nil {
		return nil, false
	}
	return s.query(from, to, max), true
}

// AppendJSON appends the full deterministic dump: schema version, capacity,
// every series (sorted by name, points as [tick, v] pairs), the rule table
// with current states, and the retained alert-transition history. This is
// the artifact cmd/anysim writes with -seriesfile and `anysim report` reads.
// A nil DB appends "{}\n".
func (db *DB) AppendJSON(b []byte) []byte {
	if db == nil {
		return append(b, "{}\n"...)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	b = append(b, `{"schema":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = append(b, `,"capacity":`...)
	b = strconv.AppendInt(b, int64(db.capacity), 10)
	b = append(b, `,"series":{`...)
	for i, name := range db.sortedNamesLocked() {
		if i > 0 {
			b = append(b, ',')
		}
		b = obs.AppendJSONString(b, name)
		b = append(b, `:[`...)
		s := db.series[name]
		for j := 0; j < s.n; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			p := s.at(j)
			b = append(b, '[')
			b = strconv.AppendInt(b, p.Tick, 10)
			b = append(b, ',')
			b = obs.AppendFloat(b, p.V)
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	b = append(b, `},"rules":[`...)
	for i, rs := range db.rules {
		if i > 0 {
			b = append(b, ',')
		}
		b = rs.appendJSON(b)
	}
	b = append(b, `],"alerts":[`...)
	for i := range db.history {
		if i > 0 {
			b = append(b, ',')
		}
		b = db.history[i].AppendJSON(b)
	}
	return append(b, "]}\n"...)
}
