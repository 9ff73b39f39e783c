package server

// The live telemetry plane: an SSE /watch stream pushing state deltas to
// subscribers as events are ingested, Prometheus text exposition at
// /metrics.prom, and a /healthz identity-and-liveness endpoint. The watch
// hub is deliberately lossy: every subscriber gets a small buffered
// channel, broadcasts never block the ingest path, and a subscriber that
// cannot keep up loses intermediate events (each event carries the full
// current seq/tick, so a dropped delta never leaves a watcher believing a
// stale state is current).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"anysim/internal/obs"
	"anysim/internal/obs/ts"
)

// watchEvent is one SSE /watch payload: what happened and where the twin
// stands now. Kind is "hello" (subscription start), "ingest" (a batch of
// events was applied; Event names its last, and the stats are the batch's),
// or "advance" (the virtual clock moved).
type watchEvent struct {
	Kind   string `json:"kind"`
	Seq    int64  `json:"seq"`
	Tick   int64  `json:"tick"`
	Bucket int    `json:"bucket"`
	Event  string `json:"event,omitempty"`
	Dirty  int    `json:"dirty,omitempty"`
	Passes int    `json:"passes,omitempty"`
	Full   bool   `json:"full,omitempty"`

	MaxUtilization float64  `json:"max_utilization"`
	Unserved       float64  `json:"unserved,omitempty"`
	Overloads      []string `json:"overloads,omitempty"`
	// MovedGroups counts probe groups whose serving site changed from the
	// previously published state — the catchment delta of this ingest.
	MovedGroups int `json:"moved_groups,omitempty"`
}

// watchHub fans watch payloads out to SSE subscribers.
type watchHub struct {
	mu   sync.Mutex
	subs map[chan []byte]struct{}
}

// subscribe registers a new watcher and returns its delivery channel.
func (h *watchHub) subscribe() chan []byte {
	ch := make(chan []byte, 16)
	h.mu.Lock()
	if h.subs == nil {
		h.subs = map[chan []byte]struct{}{}
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

// unsubscribe removes a watcher. The channel is not closed — a concurrent
// broadcast may still hold it; it is simply dropped and collected.
func (h *watchHub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// active returns the subscriber count; the ingest path checks it before
// building a payload so the no-watcher case costs one mutex acquisition.
func (h *watchHub) active() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// broadcast delivers a payload to every subscriber without blocking: a
// watcher whose buffer is full loses this event.
func (h *watchHub) broadcast(b []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- b:
		default:
		}
	}
}

// notifyWatchers builds and broadcasts one watch payload. Called from the
// ingest path (under s.mu) after a new state was published; prev is the
// state it replaced. Skipped entirely when nobody is watching.
func (s *Server) notifyWatchers(kind string, prev, st *State, res ApplyResult) {
	if s.watch.active() == 0 {
		return
	}
	ev := watchEvent{
		Kind:           kind,
		Seq:            st.Seq,
		Tick:           st.Tick,
		Bucket:         st.Bucket,
		Event:          res.Event,
		Dirty:          res.Dirty,
		Passes:         res.Passes,
		Full:           res.Full,
		MaxUtilization: st.Load.MaxUtilization(),
		Unserved:       st.Load.Unserved,
	}
	for _, sl := range st.Load.Overloads() {
		ev.Overloads = append(ev.Overloads, sl.Site)
	}
	if prev != nil {
		for i, b := range prev.Load.Assignments {
			if a := st.Load.Assignments[i]; b.Site >= 0 && a.Site >= 0 && a.Site != b.Site {
				ev.MovedGroups++
			}
		}
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	s.watch.broadcast(b)
}

// alertFrame is one SSE /watch payload of kind "alert": an SLO rule changed
// lifecycle state at the (seq, tick) the frame carries.
type alertFrame struct {
	Kind      string   `json:"kind"`
	Seq       int64    `json:"seq"`
	Tick      int64    `json:"tick"`
	Rule      string   `json:"rule"`
	State     ts.State `json:"state"`
	Series    string   `json:"series"`
	Value     float64  `json:"value"`
	Threshold float64  `json:"threshold"`
}

// notifyAlerts broadcasts one alert frame per SLO transition the publish of
// st caused, after the state delta so watchers see cause before pager.
func (s *Server) notifyAlerts(st *State, trs []ts.Transition) {
	if len(trs) == 0 || s.watch.active() == 0 {
		return
	}
	for _, tr := range trs {
		b, err := json.Marshal(alertFrame{
			Kind: "alert", Seq: st.Seq, Tick: st.Tick,
			Rule: tr.Rule, State: tr.State, Series: tr.Series,
			Value: tr.Value, Threshold: tr.Threshold,
		})
		if err != nil {
			continue
		}
		s.watch.broadcast(b)
	}
}

// handleWatch is GET /watch: a Server-Sent-Events stream. The first event
// ("hello") carries the current state; every subsequent ingest or clock
// advance pushes a delta. The subscription ends when the client goes away;
// its hub slot is reclaimed immediately.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	ch := s.watch.subscribe()
	defer s.watch.unsubscribe(ch)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	// A buffering reverse proxy (nginx defaults) would turn the live stream
	// into a stale one; tell it to pass frames through as they flush.
	h.Set("X-Accel-Buffering", "no")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	st := s.Current()
	hello := watchEvent{
		Kind: "hello", Seq: st.Seq, Tick: st.Tick, Bucket: st.Bucket,
		MaxUtilization: st.Load.MaxUtilization(), Unserved: st.Load.Unserved,
	}
	for _, sl := range st.Load.Overloads() {
		hello.Overloads = append(hello.Overloads, sl.Site)
	}
	if b, err := json.Marshal(hello); err == nil {
		fmt.Fprintf(w, "event: state\ndata: %s\n\n", b)
		fl.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case b := <-ch:
			if _, err := fmt.Fprintf(w, "event: state\ndata: %s\n\n", b); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// healthView is the GET /healthz body: liveness plus the identity triple
// (seed, world hash, policy hash) peers need to decide whether this twin is
// comparable to theirs.
type healthView struct {
	Status   string `json:"status"`
	Dep      string `json:"dep"`
	Seed     int64  `json:"seed"`
	World    string `json:"world"`
	Policy   string `json:"policy,omitempty"`
	Seq      int64  `json:"seq"`
	Tick     int64  `json:"tick"`
	Bucket   int    `json:"bucket"`
	Events   int64  `json:"events"`
	Watchers int    `json:"watchers"`
	// FiringAlerts counts SLO rules currently in the firing state — the
	// one-number pager signal (also exported as the slo.firing gauge).
	FiringAlerts int   `json:"firing_alerts"`
	IngestLagMs  int64 `json:"ingest_lag_ms"` // ms since last ingest; -1 before the first
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Current()
	lag := int64(-1)
	if t := s.lastApplyNs.Load(); t > 0 {
		lag = (time.Now().UnixNano() - t) / int64(time.Millisecond)
	}
	writeJSON(w, http.StatusOK, healthView{
		Status:       "ok",
		Dep:          s.dep.Name,
		Seed:         s.w.Config.Seed,
		World:        s.w.Config.Hash(),
		Policy:       s.w.Config.PolicyHash(),
		Seq:          st.Seq,
		Tick:         st.Tick,
		Bucket:       st.Bucket,
		Events:       s.EventsApplied(),
		Watchers:     s.watch.active(),
		FiringAlerts: s.tsdb.FiringCount(),
		IngestLagMs:  lag,
	})
}

// handleMetricsProm is GET /metrics.prom: the registry in Prometheus text
// exposition format (see obs.AppendProm), then the Go runtime's GC cost
// (obs.AppendRuntimeProm).
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h.Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.Set("Cache-Control", "no-store")
	s.w.Config.Metrics.WriteProm(w)
	w.Write(obs.AppendRuntimeProm(nil))
}
