package server

import (
	"bufio"
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"anysim/internal/dynamics"
	"anysim/internal/geo"
	"anysim/internal/obs/ts"
)

// TestTimeseriesEndpoint covers GET /timeseries: the index lists the series
// the publish path samples, range queries return tick-keyed points,
// downsampling caps the point count, and a double read of an idle server is
// byte-identical.
func TestTimeseriesEndpoint(t *testing.T) {
	s := testServer(t, 7)
	h := s.Handler()
	site := busiestSite(t, s)
	if _, err := s.Apply(dynamics.Event{At: 1, Kind: dynamics.SiteDown, Site: site}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}

	var idx struct {
		Schema   int      `json:"schema"`
		Capacity int      `json:"capacity"`
		Series   []string `json:"series"`
	}
	rec := do(t, h, "GET", "/timeseries", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /timeseries = %d: %s", rec.Code, rec.Body)
	}
	decode(t, rec, &idx)
	if idx.Schema != ts.SchemaVersion || idx.Capacity != ts.DefaultCapacity {
		t.Fatalf("bad index header: %+v", idx)
	}
	want := map[string]bool{
		"load.max_util": false, "load.unserved": false,
		"reconverge.dirty": false, "site.util{site=" + site + "}": false,
	}
	for _, name := range idx.Series {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("index missing series %q: %v", name, idx.Series)
		}
	}

	// Range query: ticks 0..2 were published, so three points.
	var pts struct {
		Series string       `json:"series"`
		Points [][2]float64 `json:"points"`
	}
	rec = do(t, h, "GET", "/timeseries?series=load.max_util", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("series query = %d: %s", rec.Code, rec.Body)
	}
	decode(t, rec, &pts)
	if len(pts.Points) != 3 || pts.Points[0][0] != 0 || pts.Points[2][0] != 2 {
		t.Fatalf("points = %+v, want ticks 0..2", pts.Points)
	}

	// Bounded and downsampled queries.
	rec = do(t, h, "GET", "/timeseries?series=load.max_util&from=1&to=2", "")
	decode(t, rec, &pts)
	if len(pts.Points) != 2 || pts.Points[0][0] != 1 {
		t.Fatalf("bounded points = %+v", pts.Points)
	}
	rec = do(t, h, "GET", "/timeseries?series=load.max_util&max=1", "")
	decode(t, rec, &pts)
	if len(pts.Points) != 1 || pts.Points[0][0] != 2 {
		t.Fatalf("downsampled points = %+v, want just the newest tick", pts.Points)
	}

	// Determinism: reading twice returns identical bytes.
	a := do(t, h, "GET", "/timeseries?series=load.max_util", "").Body.Bytes()
	b := do(t, h, "GET", "/timeseries?series=load.max_util", "").Body.Bytes()
	if !bytes.Equal(a, b) {
		t.Fatalf("double read differs:\n%s\n%s", a, b)
	}
	if cc := do(t, h, "GET", "/timeseries?series=load.max_util", "").Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}

	// Error paths.
	if rec = do(t, h, "GET", "/timeseries?series=ghost", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown series = %d, want 404", rec.Code)
	}
	if rec = do(t, h, "GET", "/timeseries?series=load.max_util&from=x", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad from = %d, want 400", rec.Code)
	}
	if rec = do(t, h, "GET", "/timeseries?series=load.max_util&max=-1", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad max = %d, want 400", rec.Code)
	}
}

// alertServer assembles a server whose rule fires as soon as any routing
// event reconverges anything: the pager path is testable without hunting
// for an overload in the small world.
func alertServer(t *testing.T, seed int64) *Server {
	t.Helper()
	w := testWorld(t, seed)
	rule, err := ts.ParseRule("slo churn: reconverge.dirty > 0 for 1 ticks")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{World: w, Dep: w.Imperva.IM6, Series: ts.Config{Rules: []ts.Rule{rule}}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAlertsEndpoint covers GET /alerts and the firing count in /healthz:
// a rule over the reconvergence series fires on a site withdrawal and
// resolves on a quiet clock advance.
func TestAlertsEndpoint(t *testing.T) {
	s := alertServer(t, 7)
	h := s.Handler()

	var view struct {
		Firing  int             `json:"firing"`
		Active  []ts.Alert      `json:"active"`
		History []ts.Transition `json:"history"`
	}
	rec := do(t, h, "GET", "/alerts", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /alerts = %d: %s", rec.Code, rec.Body)
	}
	decode(t, rec, &view)
	if view.Firing != 0 || len(view.Active) != 0 || len(view.History) != 0 {
		t.Fatalf("alerts before any event: %+v", view)
	}

	site := busiestSite(t, s)
	if _, err := s.Apply(dynamics.Event{At: 1, Kind: dynamics.SiteDown, Site: site}); err != nil {
		t.Fatal(err)
	}
	rec = do(t, h, "GET", "/alerts", "")
	decode(t, rec, &view)
	if view.Firing != 1 || len(view.Active) != 1 || view.Active[0].State != ts.StateFiring {
		t.Fatalf("alerts after site-down: %s", rec.Body)
	}
	if view.Active[0].Rule != "churn" || view.Active[0].FiredTick != 1 {
		t.Fatalf("active alert = %+v", view.Active[0])
	}

	var hv healthView
	decode(t, do(t, h, "GET", "/healthz", ""), &hv)
	if hv.FiringAlerts != 1 {
		t.Fatalf("healthz firing_alerts = %d, want 1", hv.FiringAlerts)
	}
	prom := do(t, h, "GET", "/metrics.prom", "").Body.String()
	if !strings.Contains(prom, "anysim_slo_firing 1") {
		t.Fatal("prometheus exposition missing anysim_slo_firing 1")
	}
	// The Go runtime's GC cost follows the registry: a fraction in [0, 1]
	// and allocation totals the server's own work has made positive.
	for _, m := range []struct {
		series    string
		positive  bool
		atMostOne bool
	}{
		{"anysim_runtime_gc_cpu_fraction", false, true},
		{"anysim_runtime_heap_allocs_bytes_total", true, false},
		{"anysim_runtime_heap_allocs_objects_total", true, false},
	} {
		v, ok := promValue(prom, m.series)
		if !ok {
			t.Fatalf("prometheus exposition missing %s:\n%s", m.series, prom)
		}
		if v < 0 || (m.positive && v == 0) || (m.atMostOne && v > 1) {
			t.Fatalf("%s = %v out of range", m.series, v)
		}
	}

	// A demand-only event at the next tick reconverges nothing, so the
	// tick-2 sample of reconverge.dirty is 0 and the alert resolves.
	if _, err := s.Apply(dynamics.Event{At: 2, Kind: dynamics.FlashBegin, Area: geo.EMEA, Factor: 1.5}); err != nil {
		t.Fatal(err)
	}
	rec = do(t, h, "GET", "/alerts", "")
	decode(t, rec, &view)
	if view.Firing != 0 {
		t.Fatalf("alert did not resolve on a churn-free tick: %s", rec.Body)
	}
	states := []ts.State{}
	for _, tr := range view.History {
		states = append(states, tr.State)
	}
	if len(states) != 2 || states[0] != ts.StateFiring || states[1] != ts.StateResolved {
		t.Fatalf("history states = %v, want [firing resolved]", states)
	}

	// Determinism: reading twice returns identical bytes.
	a := do(t, h, "GET", "/alerts", "").Body.Bytes()
	b := do(t, h, "GET", "/alerts", "").Body.Bytes()
	if !bytes.Equal(a, b) {
		t.Fatalf("double read differs:\n%s\n%s", a, b)
	}
}

// TestWatchAlertFrames checks SLO transitions are pushed to /watch
// subscribers as kind "alert" frames, after the state delta that caused
// them.
func TestWatchAlertFrames(t *testing.T) {
	s := alertServer(t, 7)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)

	if hello := readSSEData(t, sc); !strings.Contains(hello, `"kind":"hello"`) {
		t.Fatalf("first frame is not hello: %s", hello)
	}
	site := busiestSite(t, s)
	if _, err := s.Apply(dynamics.Event{At: 1, Kind: dynamics.SiteDown, Site: site}); err != nil {
		t.Fatal(err)
	}
	delta := readSSEData(t, sc)
	if !strings.Contains(delta, `"kind":"ingest"`) {
		t.Fatalf("expected the ingest delta first: %s", delta)
	}
	alert := readSSEData(t, sc)
	for _, want := range []string{`"kind":"alert"`, `"rule":"churn"`, `"state":"firing"`, `"tick":1`, `"series":"reconverge.dirty"`} {
		if !strings.Contains(alert, want) {
			t.Errorf("alert frame missing %s: %s", want, alert)
		}
	}
}

// promValue returns the sample value of an unlabelled series in a
// Prometheus text exposition.
func promValue(exposition, series string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}
