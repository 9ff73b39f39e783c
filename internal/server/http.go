package server

// The live query API. Every GET reads one immutable published State (an
// engine fork), so responses are internally consistent and never observe a
// half-applied event; POST /events and /advance go through the serialized
// ingest path. Responses are JSON; for a fixed world, event history, and
// tick, query bodies are deterministic (byte-identical across runs), which
// the serve smoke test and the checkpoint round-trip test rely on.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"anysim/internal/dynamics"
	"anysim/internal/glass"
	"anysim/internal/obs"
	"anysim/internal/obs/ts"
)

// Handler returns the HTTP API:
//
//	GET  /status             clock, deployment, and world identity
//	GET  /catchment          full captured catchment (glass.CatchmentSet)
//	GET  /load               per-site load for the current time bucket
//	GET  /explain?group=K    one probe group's catchment, hop by hop
//	GET  /diff?since=T       catchment moves since the state at tick T
//	GET  /timeseries         recorded series index; ?series=N[&from=&to=&max=] for points
//	GET  /alerts             active SLO alerts and the transition history
//	GET  /metrics            obs registry snapshot (JSON)
//	GET  /metrics.prom       obs registry, Prometheus text exposition
//	GET  /healthz            liveness, identity hashes, ingest lag, firing alerts
//	GET  /watch              SSE stream of ingest/advance deltas and alert frames
//	POST /events             ingest a dynamics-DSL / JSONL event stream as
//	                         one batch: applied whole, or not at all
//	POST /advance?to=T       advance the virtual clock
//	POST /checkpoint[?path=] write a checkpoint file (?path= is a bare file
//	                         name inside the -checkpoint directory)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrumented(name, h))
	}
	handle("GET /status", "status", s.handleStatus)
	handle("GET /catchment", "catchment", s.handleCatchment)
	handle("GET /load", "load", s.handleLoad)
	handle("GET /explain", "explain", s.handleExplain)
	handle("GET /diff", "diff", s.handleDiff)
	handle("GET /timeseries", "timeseries", s.handleTimeseries)
	handle("GET /alerts", "alerts", s.handleAlerts)
	handle("GET /metrics", "metrics", s.handleMetrics)
	handle("GET /metrics.prom", "metrics_prom", s.handleMetricsProm)
	handle("GET /healthz", "healthz", s.handleHealthz)
	handle("POST /events", "events", s.handleEvents)
	handle("POST /advance", "advance", s.handleAdvance)
	handle("POST /checkpoint", "checkpoint", s.handleCheckpoint)
	// /watch is long-lived: it gets the status-code counter but not the
	// latency histogram (a stream's duration is how long the client stayed,
	// not how fast the server answered).
	mux.HandleFunc("GET /watch", func(w http.ResponseWriter, r *http.Request) {
		s.sobs.queries.Inc()
		s.w.Config.Metrics.WallCounter("serve.http.watch.requests").Inc()
		s.handleWatch(w, r)
	})
	return mux
}

// statusRecorder captures the response status code for per-endpoint
// counters. It forwards Flush so SSE streaming survives the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrumented counts queries, wall latency (aggregate and per endpoint),
// and response status codes (all wall-class metrics; free unless EnableWall
// is on).
func (s *Server) instrumented(name string, h http.HandlerFunc) http.HandlerFunc {
	reg := s.w.Config.Metrics
	lat := reg.WallHistogram("serve.http."+name+".ns", obs.Pow2Bounds(34))
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		ns := time.Since(t0).Nanoseconds()
		s.sobs.queries.Inc()
		s.sobs.queryNs.Observe(ns)
		lat.Observe(ns)
		reg.WallCounter("serve.http." + name + ".status." + strconv.Itoa(rec.code)).Inc()
	}
}

// writeJSON encodes v stably (MarshalIndent via glass.JSON) with a
// trailing newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := glass.JSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	// Live state: a cached /status or /load answer is a stale twin.
	h.Set("Cache-Control", "no-store")
	w.WriteHeader(code)
	io.WriteString(w, body)
}

// apiError is the error body of every non-2xx JSON response.
type apiError struct {
	Error string `json:"error"`
	// Line is set for event-stream decode errors.
	Line int `json:"line,omitempty"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// statusView is the GET /status body.
type statusView struct {
	Dep        string             `json:"dep"`
	Seed       int64              `json:"seed"`
	World      string             `json:"world"`
	Seq        int64              `json:"seq"`
	Tick       int64              `json:"tick"`
	Bucket     int                `json:"bucket"`
	Events     int64              `json:"events"`
	OldestTick int64              `json:"oldest_tick"`
	Prefixes   int                `json:"prefixes"`
	Groups     int                `json:"groups"`
	Flash      map[string]float64 `json:"flash,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.Current()
	writeJSON(w, http.StatusOK, statusView{
		Dep:        s.dep.Name,
		Seed:       s.w.Config.Seed,
		World:      s.w.Config.Hash(),
		Seq:        st.Seq,
		Tick:       st.Tick,
		Bucket:     st.Bucket,
		Events:     s.EventsApplied(),
		OldestTick: s.OldestTick(),
		Prefixes:   len(st.Engine.Prefixes()),
		Groups:     len(s.model.Groups),
		Flash:      flashView(st),
	})
}

func (s *Server) handleCatchment(w http.ResponseWriter, r *http.Request) {
	set, err := s.Current().Catchment()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, set)
}

// siteView is one site's row in the GET /load body.
type siteView struct {
	Site        string  `json:"site"`
	City        string  `json:"city"`
	Tier        string  `json:"tier"`
	Capacity    float64 `json:"capacity"`
	Demand      float64 `json:"demand"`
	Utilization float64 `json:"utilization"`
	Groups      int     `json:"groups"`
	Overloaded  bool    `json:"overloaded,omitempty"`
}

// loadView is the GET /load body.
type loadView struct {
	Seq            int64              `json:"seq"`
	Tick           int64              `json:"tick"`
	Bucket         int                `json:"bucket"`
	MaxUtilization float64            `json:"max_utilization"`
	Unserved       float64            `json:"unserved"`
	Flash          map[string]float64 `json:"flash,omitempty"`
	Sites          []siteView         `json:"sites"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	st := s.Current()
	view := loadView{
		Seq:            st.Seq,
		Tick:           st.Tick,
		Bucket:         st.Bucket,
		MaxUtilization: st.Load.MaxUtilization(),
		Unserved:       st.Load.Unserved,
		Flash:          flashView(st),
	}
	for _, sl := range st.Load.Sites {
		view.Sites = append(view.Sites, siteView{
			Site:        sl.Site,
			City:        sl.City,
			Tier:        sl.Tier.String(),
			Capacity:    sl.Capacity,
			Demand:      sl.Demand,
			Utilization: sl.Utilization(),
			Groups:      sl.Groups,
			Overloaded:  sl.Overloaded(),
		})
	}
	writeJSON(w, http.StatusOK, view)
}

func flashView(st *State) map[string]float64 {
	if len(st.Flash) == 0 {
		return nil
	}
	out := make(map[string]float64, len(st.Flash))
	for a, f := range st.Flash {
		out[a.String()] = f
	}
	return out
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	group := r.URL.Query().Get("group")
	if group == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?group=CITY|ASN"))
		return
	}
	st := s.Current()
	ce, err := glass.ExplainCatchment(st.Engine, s.dep, s.w.Measurer, s.w.Platform.Retained(), group)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, ce)
}

// diffView is the GET /diff body: the classified moves between the
// retained state at the requested tick and the current state.
type diffView struct {
	Since    int64            `json:"since"`
	BaseSeq  int64            `json:"base_seq"`
	BaseTick int64            `json:"base_tick"`
	Seq      int64            `json:"seq"`
	Tick     int64            `json:"tick"`
	Report   glass.DiffReport `json:"report"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	since, err := strconv.ParseInt(r.URL.Query().Get("since"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad ?since=: %w", err))
		return
	}
	base := s.StateAt(since)
	if base == nil {
		writeError(w, http.StatusGone,
			fmt.Errorf("history does not reach tick %d (oldest retained tick is %d)", since, s.OldestTick()))
		return
	}
	cur := s.Current()
	before, err := base.Catchment()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	after, err := cur.Catchment()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	rep, err := glass.Diff(before, after)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, diffView{
		Since:    since,
		BaseSeq:  base.Seq,
		BaseTick: base.Tick,
		Seq:      cur.Seq,
		Tick:     cur.Tick,
		Report:   rep,
	})
}

// timeseriesIndex is the GET /timeseries body without ?series=.
type timeseriesIndex struct {
	Schema   int      `json:"schema"`
	Capacity int      `json:"capacity"`
	Series   []string `json:"series"`
}

// handleTimeseries is GET /timeseries: without ?series= it lists the
// recorded series; with it, it returns the series' points as [tick, value]
// pairs, optionally bounded by ?from=/?to= (ticks, inclusive) and
// downsampled to at most ?max= points. Point responses are hand-encoded
// with the obs float conventions so a utilization of +Inf cannot break the
// response, and a double read of an idle server is byte-identical.
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("series")
	if name == "" {
		writeJSON(w, http.StatusOK, timeseriesIndex{
			Schema:   ts.SchemaVersion,
			Capacity: s.tsdb.Capacity(),
			Series:   s.tsdb.Names(),
		})
		return
	}
	from, to, max := int64(0), int64(1)<<62, 0
	var err error
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad ?from=: %w", err))
			return
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad ?to=: %w", err))
			return
		}
	}
	if v := q.Get("max"); v != "" {
		if max, err = strconv.Atoi(v); err != nil || max < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad ?max=: want a non-negative integer"))
			return
		}
	}
	pts, ok := s.tsdb.Query(name, from, to, max)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no series %q (GET /timeseries lists them)", name))
		return
	}
	b := []byte(`{"series":`)
	b = obs.AppendJSONString(b, name)
	b = append(b, `,"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, p.Tick, 10)
		b = append(b, ',')
		b = obs.AppendFloat(b, p.V)
		b = append(b, ']')
	}
	b = append(b, "]}\n"...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Cache-Control", "no-store")
	w.Write(b)
}

// handleAlerts is GET /alerts: the active (pending/firing) alerts in rule
// order plus the retained transition history, hand-encoded like the
// timeseries responses.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	b := append([]byte(nil), `{"firing":`...)
	b = strconv.AppendInt(b, int64(s.tsdb.FiringCount()), 10)
	b = append(b, `,"active":[`...)
	for i, a := range s.tsdb.ActiveAlerts() {
		if i > 0 {
			b = append(b, ',')
		}
		b = a.AppendJSON(b)
	}
	b = append(b, `],"history":[`...)
	for i, tr := range s.tsdb.History() {
		if i > 0 {
			b = append(b, ',')
		}
		b = tr.AppendJSON(b)
	}
	b = append(b, "]}\n"...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Cache-Control", "no-store")
	w.Write(b)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Cache-Control", "no-store")
	s.w.Config.Metrics.WriteSnapshot(w)
}

// eventsView is the POST /events success body.
type eventsView struct {
	Applied []ApplyResult `json:"applied"`
}

// maxEventsBody bounds a POST /events body. A body applies whole or not at
// all, so an oversized one is answered 413 with nothing applied.
const maxEventsBody = 8 << 20

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	applied, err := s.Ingest(http.MaxBytesReader(w, r.Body, maxEventsBody))
	if err != nil {
		code := http.StatusUnprocessableEntity
		var derr *dynamics.DecodeError
		var tooBig *http.MaxBytesError
		line := 0
		switch {
		case errors.As(err, &tooBig):
			code = http.StatusRequestEntityTooLarge
		case errors.As(err, &derr):
			code = http.StatusBadRequest
			line = derr.Line
		}
		writeJSON(w, code, apiError{Error: err.Error(), Line: line})
		return
	}
	writeJSON(w, http.StatusOK, eventsView{Applied: applied})
}

// Ingest decodes a whole event stream (dynamics DSL or JSONL, see
// dynamics.NewDecoder) and applies it as one batch (ApplyBatch): one
// reconvergence of its net change and one published state. A stream that
// fails to decode, or holds an event that cannot apply, changes nothing.
func (s *Server) Ingest(r io.Reader) ([]ApplyResult, error) {
	d := dynamics.NewDecoder(r)
	var evs []dynamics.Event
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return s.ApplyBatch(evs)
		}
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
}

// advanceView is the POST /advance body.
type advanceView struct {
	Seq    int64 `json:"seq"`
	Tick   int64 `json:"tick"`
	Bucket int   `json:"bucket"`
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	to, err := strconv.ParseInt(r.URL.Query().Get("to"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad ?to=: %w", err))
		return
	}
	st, err := s.AdvanceTo(to)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, advanceView{Seq: st.Seq, Tick: st.Tick, Bucket: st.Bucket})
}

// checkpointView is the POST /checkpoint body.
type checkpointView struct {
	Path   string `json:"path"`
	Bytes  int    `json:"bytes"`
	Tick   int64  `json:"tick"`
	Events int64  `json:"events"`
}

// handleCheckpoint is POST /checkpoint: it writes to the -checkpoint path,
// or, with ?path=NAME, to the bare file NAME in that path's directory. A
// request never names a location of its own, so the HTTP API can only
// write where the operator already pointed the server.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	path := s.cfg.CheckpointPath
	if name := r.URL.Query().Get("path"); name != "" {
		if path == "" {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("?path= names a file in the -checkpoint directory, and the server has no -checkpoint"))
			return
		}
		if err := checkpointName(name); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		path = filepath.Join(filepath.Dir(path), name)
	}
	if path == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("the server has no checkpoint path (-checkpoint)"))
		return
	}
	n, err := s.WriteCheckpoint(path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, checkpointView{Path: path, Bytes: n, Tick: s.Current().Tick, Events: s.EventsApplied()})
}

// checkpointName accepts only a bare file name for ?path=: no absolute
// path, no path separator, and not "." or "..".
func checkpointName(name string) error {
	switch {
	case filepath.IsAbs(name) || filepath.VolumeName(name) != "":
		return fmt.Errorf("?path=%q is absolute; give a bare file name", name)
	case strings.ContainsAny(name, `/\`):
		return fmt.Errorf("?path=%q contains a path separator; give a bare file name", name)
	case name == "." || name == "..":
		return fmt.Errorf("?path=%q is not a file name", name)
	}
	return nil
}
