package ts

// The SLO rule engine. Rules are declarative threshold conditions over
// recorded series, with a duration clause that debounces transient blips:
//
//	slo eu-latency: region.latency.p90{region=EMEA} > 40ms for 3 ticks
//
// A rule is inactive until its condition first holds, pending while the
// breach streak is shorter than the `for` duration, firing once the streak
// reaches it, and resolved (back to inactive) when the condition clears.
// The streak is counted in ticks of the virtual clock; when a tick is
// re-evaluated (the server publishes several states per tick), the streak
// contribution of the current tick is recomputed rather than double-counted,
// so the lifecycle is a pure function of the final per-tick values plus the
// deterministic intra-tick publish order.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"anysim/internal/obs"
)

// Rule is one declarative SLO condition over a series.
type Rule struct {
	// Name identifies the rule in alerts; the canonical expression string
	// when the `slo name:` prefix was omitted.
	Name string
	// Series is the full series name the rule reads, labels included
	// (e.g. "region.latency.p90{region=EMEA}").
	Series string
	// Op is one of ">", "<", ">=", "<=".
	Op string
	// Threshold is the comparison value (a "%" suffix parsed as its
	// fraction, an "ms" suffix as-is — series store milliseconds).
	Threshold float64
	// For is the breach streak, in ticks, required before the rule fires;
	// at least 1.
	For int
}

// String renders the rule in the grammar ParseRule accepts. An anonymous
// rule, whose name is its own expression, renders as the bare expression:
// a name with spaces would not parse.
func (r Rule) String() string {
	if r.Name == r.expr() {
		return r.Name
	}
	return fmt.Sprintf("slo %s: %s", r.Name, r.expr())
}

// expr renders the bare expression (the canonical name of anonymous rules).
func (r Rule) expr() string {
	return fmt.Sprintf("%s %s %g for %d ticks", r.Series, r.Op, r.Threshold, r.For)
}

// holds reports whether v breaches the rule. NaN never breaches.
func (r Rule) holds(v float64) bool {
	if v != v {
		return false
	}
	switch r.Op {
	case ">":
		return v > r.Threshold
	case "<":
		return v < r.Threshold
	case ">=":
		return v >= r.Threshold
	case "<=":
		return v <= r.Threshold
	}
	return false
}

// DefaultRules returns the rules armed when Config.Rules is nil: any site
// over capacity for two consecutive ticks, and any unserved demand at all.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "site-overload", Series: "load.max_util", Op: ">", Threshold: 1, For: 2},
		{Name: "unserved-demand", Series: "load.unserved", Op: ">", Threshold: 0, For: 1},
	}
}

// ParseRule parses one rule line:
//
//	[slo <name>:] <series> <op> <value>[ms|%] [for <N> ticks]
//
// The duration clause defaults to "for 1 ticks" (fire on first breach).
func ParseRule(line string) (Rule, error) {
	orig := strings.TrimSpace(line)
	var r Rule
	rest := orig
	if strings.HasPrefix(rest, "slo ") {
		body := strings.TrimSpace(rest[len("slo "):])
		i := strings.IndexByte(body, ':')
		if i <= 0 {
			return r, fmt.Errorf("ts: rule %q: missing ':' after the rule name", orig)
		}
		r.Name = strings.TrimSpace(body[:i])
		if strings.ContainsAny(r.Name, " \t") {
			return r, fmt.Errorf("ts: rule %q: rule name %q contains whitespace", orig, r.Name)
		}
		rest = strings.TrimSpace(body[i+1:])
	}
	f := strings.Fields(rest)
	switch len(f) {
	case 3:
		f = append(f, "for", "1", "ticks")
	case 6:
	default:
		return r, fmt.Errorf("ts: rule %q: want '<series> <op> <value> [for <N> ticks]'", orig)
	}
	r.Series = f[0]
	r.Op = f[1]
	switch r.Op {
	case ">", "<", ">=", "<=":
	default:
		return r, fmt.Errorf("ts: rule %q: bad operator %q (want > < >= <=)", orig, r.Op)
	}
	val := f[2]
	scale := 1.0
	switch {
	case strings.HasSuffix(val, "ms"):
		val = strings.TrimSuffix(val, "ms")
	case strings.HasSuffix(val, "%"):
		val = strings.TrimSuffix(val, "%")
		scale = 0.01
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(v) {
		return r, fmt.Errorf("ts: rule %q: bad threshold %q", orig, f[2])
	}
	r.Threshold = v * scale
	if f[3] != "for" {
		return r, fmt.Errorf("ts: rule %q: want 'for <N> ticks', got %q", orig, f[3])
	}
	n, err := strconv.Atoi(f[4])
	if err != nil || n < 1 {
		return r, fmt.Errorf("ts: rule %q: bad duration %q (want a positive tick count)", orig, f[4])
	}
	r.For = n
	if f[5] != "ticks" && f[5] != "tick" {
		return r, fmt.Errorf("ts: rule %q: want 'for <N> ticks', got %q", orig, f[5])
	}
	if r.Name == "" {
		r.Name = r.expr()
	}
	return r, nil
}

// ParseRules parses a rule file: one rule per line, blank lines and
// #-comments skipped.
func ParseRules(r io.Reader) ([]Rule, error) {
	var out []Rule
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		rule, err := ParseRule(s)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// State is an alert lifecycle state.
type State string

// Alert lifecycle states. An inactive rule has no alert.
const (
	StatePending  State = "pending"
	StateFiring   State = "firing"
	StateResolved State = "resolved"
)

// Transition records one lifecycle change: the rule entered State at Tick
// while its series read Value.
type Transition struct {
	Rule      string  `json:"rule"`
	Series    string  `json:"series"`
	State     State   `json:"state"`
	Tick      int64   `json:"tick"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
}

// AppendJSON appends the transition's deterministic encoding (fixed field
// order, Inf/NaN-safe floats — see obs.AppendFloat).
func (t Transition) AppendJSON(b []byte) []byte {
	b = append(b, `{"rule":`...)
	b = obs.AppendJSONString(b, t.Rule)
	b = append(b, `,"series":`...)
	b = obs.AppendJSONString(b, t.Series)
	b = append(b, `,"state":`...)
	b = obs.AppendJSONString(b, string(t.State))
	b = append(b, `,"tick":`...)
	b = strconv.AppendInt(b, t.Tick, 10)
	b = append(b, `,"value":`...)
	b = obs.AppendFloat(b, t.Value)
	b = append(b, `,"threshold":`...)
	b = obs.AppendFloat(b, t.Threshold)
	return append(b, '}')
}

// Alert is one rule's active (pending or firing) alert.
type Alert struct {
	Rule      string  `json:"rule"`
	Series    string  `json:"series"`
	State     State   `json:"state"`
	SinceTick int64   `json:"since_tick"`           // tick the breach streak began
	FiredTick int64   `json:"fired_tick,omitempty"` // tick the alert started firing
	Value     float64 `json:"value"`                // last evaluated series value
	Threshold float64 `json:"threshold"`
	For       int     `json:"for"`
}

// AppendJSON appends the alert's deterministic encoding (fixed field order,
// Inf/NaN-safe floats).
func (a Alert) AppendJSON(b []byte) []byte {
	b = append(b, `{"rule":`...)
	b = obs.AppendJSONString(b, a.Rule)
	b = append(b, `,"series":`...)
	b = obs.AppendJSONString(b, a.Series)
	b = append(b, `,"state":`...)
	b = obs.AppendJSONString(b, string(a.State))
	b = append(b, `,"since_tick":`...)
	b = strconv.AppendInt(b, a.SinceTick, 10)
	if a.FiredTick != 0 || a.State == StateFiring {
		b = append(b, `,"fired_tick":`...)
		b = strconv.AppendInt(b, a.FiredTick, 10)
	}
	b = append(b, `,"value":`...)
	b = obs.AppendFloat(b, a.Value)
	b = append(b, `,"threshold":`...)
	b = obs.AppendFloat(b, a.Threshold)
	b = append(b, `,"for":`...)
	b = strconv.AppendInt(b, int64(a.For), 10)
	return append(b, '}')
}

// ruleState is one rule plus its lifecycle bookkeeping.
type ruleState struct {
	Rule
	state      State // "" = inactive
	streakPrev int   // breach streak as of the end of the previous tick
	curStreak  int   // breach streak including the current tick
	lastTick   int64 // tick of the last evaluation
	sinceTick  int64
	firedTick  int64
	lastValue  float64
}

func newRuleState(r Rule) *ruleState {
	if r.For < 1 {
		r.For = 1
	}
	return &ruleState{Rule: r, lastTick: -1 << 62}
}

func (rs *ruleState) appendJSON(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = obs.AppendJSONString(b, rs.Name)
	b = append(b, `,"series":`...)
	b = obs.AppendJSONString(b, rs.Series)
	b = append(b, `,"op":`...)
	b = obs.AppendJSONString(b, rs.Op)
	b = append(b, `,"threshold":`...)
	b = obs.AppendFloat(b, rs.Threshold)
	b = append(b, `,"for":`...)
	b = strconv.AppendInt(b, int64(rs.For), 10)
	b = append(b, `,"state":`...)
	if rs.state == "" {
		b = append(b, `"inactive"`...)
	} else {
		b = obs.AppendJSONString(b, string(rs.state))
	}
	return append(b, '}')
}

// Eval evaluates every rule against its series' newest sample and advances
// the alert lifecycles, returning the transitions this evaluation caused
// (usually none). Call after sampling a tick; calling several times within
// one tick recomputes that tick's streak contribution instead of inflating
// it. Transitions are recorded in the alert history and, when Instrument
// was called, emitted as trace events and counted in metrics.
func (db *DB) Eval(tick int64) []Transition {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	var trs []Transition
	firing := 0
	for _, rs := range db.rules {
		v := db.latestLocked(rs.Series)
		if tick != rs.lastTick {
			rs.streakPrev = rs.curStreak
			rs.lastTick = tick
		}
		if rs.holds(v) {
			rs.curStreak = rs.streakPrev + 1
		} else {
			rs.curStreak = 0
		}
		rs.lastValue = v
		var next State
		switch {
		case rs.curStreak == 0:
			next = ""
		case rs.curStreak >= rs.For:
			next = StateFiring
		default:
			next = StatePending
		}
		if next != rs.state {
			prev := rs.state
			rs.state = next
			switch next {
			case StatePending, StateFiring:
				if prev == "" {
					rs.sinceTick = tick - int64(rs.curStreak) + 1
				}
				if next == StateFiring {
					rs.firedTick = tick
				}
				trs = append(trs, rs.transition(next, tick))
			default:
				// Any active alert that clears resolves, whether it fired
				// or was still pending.
				rs.firedTick = 0
				trs = append(trs, rs.transition(StateResolved, tick))
			}
		}
		if rs.state == StateFiring {
			firing++
		}
	}
	if len(trs) > 0 {
		db.history = append(db.history, trs...)
		if len(db.history) > historyCap {
			db.history = append(db.history[:0], db.history[len(db.history)-historyCap:]...)
		}
	}
	o := db.o
	db.mu.Unlock()

	o.firing.SetInt(int64(firing))
	for _, tr := range trs {
		switch tr.State {
		case StateFiring:
			o.fired.Inc()
		case StateResolved:
			o.resolved.Inc()
		}
		if o.tracer.Enabled() {
			o.tracer.Emit(obs.Event{
				Scope: "slo",
				Name:  string(tr.State),
				Clock: []obs.Coord{{Key: "tick", V: tr.Tick}},
				Attrs: []obs.Attr{
					obs.Int("schema", SchemaVersion),
					obs.Str("rule", tr.Rule),
					obs.Str("series", tr.Series),
					obs.Float("value", tr.Value),
					obs.Float("threshold", tr.Threshold),
				},
			})
		}
	}
	return trs
}

func (rs *ruleState) transition(st State, tick int64) Transition {
	return Transition{
		Rule: rs.Name, Series: rs.Series, State: st, Tick: tick,
		Value: rs.lastValue, Threshold: rs.Threshold,
	}
}

// latestLocked returns the newest sample of the named series, NaN when the
// series is empty or unknown. Caller holds db.mu.
func (db *DB) latestLocked(name string) float64 {
	if s := db.series[name]; s != nil {
		if p, ok := s.newest(); ok {
			return p.V
		}
	}
	return math.NaN()
}

// Rules returns the armed rules in evaluation order.
func (db *DB) Rules() []Rule {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Rule, len(db.rules))
	for i, rs := range db.rules {
		out[i] = rs.Rule
	}
	return out
}

// ActiveAlerts returns the pending and firing alerts in rule order.
func (db *DB) ActiveAlerts() []Alert {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []Alert
	for _, rs := range db.rules {
		if rs.state == "" {
			continue
		}
		out = append(out, Alert{
			Rule: rs.Name, Series: rs.Series, State: rs.state,
			SinceTick: rs.sinceTick, FiredTick: rs.firedTick,
			Value: rs.lastValue, Threshold: rs.Threshold, For: rs.For,
		})
	}
	return out
}

// FiringCount returns how many rules are currently firing.
func (db *DB) FiringCount() int {
	if db == nil {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, rs := range db.rules {
		if rs.state == StateFiring {
			n++
		}
	}
	return n
}

// History returns the retained alert transitions in emission order.
func (db *DB) History() []Transition {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]Transition(nil), db.history...)
}
