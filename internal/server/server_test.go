package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"anysim/internal/dynamics"
	"anysim/internal/glass"
	"anysim/internal/obs"
	"anysim/internal/worldgen"
)

// testWorld builds the small world with provenance and a metrics registry,
// the shape `anysim -small serve` runs.
func testWorld(t testing.TB, seed int64) *worldgen.World {
	t.Helper()
	cfg := worldgen.SmallConfig(seed)
	cfg.Provenance = true
	cfg.Metrics = obs.NewRegistry()
	w, err := worldgen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// testServer assembles a server over the small world's IM6 deployment.
func testServer(t testing.TB, seed int64) *Server {
	t.Helper()
	w := testWorld(t, seed)
	s, err := New(Config{World: w, Dep: w.Imperva.IM6})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// busiestSite returns the deployment site serving the most probe groups at
// the current state — withdrawing it is guaranteed to move catchments.
func busiestSite(t *testing.T, s *Server) string {
	t.Helper()
	best, bestGroups := "", 0
	for _, sl := range s.Current().Load.Sites {
		if sl.Groups > bestGroups {
			best, bestGroups = sl.Site, sl.Groups
		}
	}
	if best == "" {
		t.Fatal("no site serves any probe group")
	}
	return best
}

// depPrefixes returns the served deployment's prefixes as strings. Other
// deployments share site IDs (city codes), so announcement checks must be
// scoped to the deployment's own prefixes.
func depPrefixes(s *Server) map[string]bool {
	out := map[string]bool{}
	for _, p := range s.runner.Prefixes() {
		out[p.String()] = true
	}
	return out
}

// do runs one request against the server's handler.
func do(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, rd))
	return rec
}

// decode unmarshals a response body.
func decode(t *testing.T, rec *httptest.ResponseRecorder, v any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("bad response body %q: %v", rec.Body.String(), err)
	}
}

// TestServeIngestAndQuery drives the full API: status, event ingest over
// POST /events, load and catchment queries, diff attribution, and explain.
func TestServeIngestAndQuery(t *testing.T) {
	s := testServer(t, 7)
	h := s.Handler()

	var status statusView
	rec := do(t, h, "GET", "/status", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /status = %d: %s", rec.Code, rec.Body)
	}
	decode(t, rec, &status)
	if status.Seq != 1 || status.Tick != 0 || status.Events != 0 {
		t.Errorf("initial status = %+v, want seq 1, tick 0, events 0", status)
	}
	if status.Dep != s.Dep().Name {
		t.Errorf("status dep = %q, want %q", status.Dep, s.Dep().Name)
	}

	site := busiestSite(t, s)
	rec = do(t, h, "POST", "/events", fmt.Sprintf("at 3 site-down %s\n", site))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /events = %d: %s", rec.Code, rec.Body)
	}
	var ev eventsView
	decode(t, rec, &ev)
	if len(ev.Applied) != 1 || ev.Applied[0].Tick != 3 || ev.Applied[0].Dirty == 0 {
		t.Errorf("applied = %+v, want one event at tick 3 with dirty > 0", ev.Applied)
	}

	// /load is deterministic: two reads of the same state are byte-equal,
	// and the withdrawn site now serves nothing.
	l1 := do(t, h, "GET", "/load", "")
	l2 := do(t, h, "GET", "/load", "")
	if l1.Code != http.StatusOK || l1.Body.String() != l2.Body.String() {
		t.Errorf("GET /load not deterministic (codes %d/%d)", l1.Code, l2.Code)
	}
	var load loadView
	decode(t, l1, &load)
	if load.Tick != 3 || load.Bucket != 3 {
		t.Errorf("load at tick %d bucket %d, want 3/3", load.Tick, load.Bucket)
	}
	for _, sv := range load.Sites {
		if sv.Site == site && (sv.Demand != 0 || sv.Groups != 0) {
			t.Errorf("withdrawn site %s still serves %v groups, %v demand", site, sv.Groups, sv.Demand)
		}
	}

	// /catchment no longer lists the withdrawn site as announced on any of
	// the deployment's prefixes (other deployments share city-code site
	// IDs, so the check is scoped to this deployment).
	rec = do(t, h, "GET", "/catchment", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /catchment = %d", rec.Code)
	}
	mine := depPrefixes(s)
	var set struct {
		Announced []struct {
			Prefix string   `json:"prefix"`
			Sites  []string `json:"sites"`
		} `json:"announced"`
	}
	decode(t, rec, &set)
	for _, ps := range set.Announced {
		if !mine[ps.Prefix] {
			continue
		}
		for _, a := range ps.Sites {
			if a == site {
				t.Fatalf("withdrawn site %s still announced on %s", site, ps.Prefix)
			}
		}
	}

	// /diff since tick 0 attributes the moves to the withdrawal.
	rec = do(t, h, "GET", "/diff?since=0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /diff = %d: %s", rec.Code, rec.Body)
	}
	var dv diffView
	decode(t, rec, &dv)
	if dv.BaseTick != 0 || dv.Tick != 3 {
		t.Errorf("diff base tick %d, cur tick %d, want 0 and 3", dv.BaseTick, dv.Tick)
	}
	if dv.Report.Moved == 0 {
		t.Error("withdrawing the busiest site moved no groups")
	}

	// /explain answers for a moved group.
	group := dv.Report.Moves[0].Group
	rec = do(t, h, "GET", "/explain?group="+group, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /explain = %d: %s", rec.Code, rec.Body)
	}

	// /metrics carries the serve counters.
	rec = do(t, h, "GET", "/metrics", "")
	if !strings.Contains(rec.Body.String(), `"serve.ingest.events": 1`) {
		t.Errorf("metrics missing ingest counter: %s", rec.Body)
	}
}

// TestServeErrorPaths exercises every 4xx the API returns.
func TestServeErrorPaths(t *testing.T) {
	s := testServer(t, 7)
	h := s.Handler()

	// Decode failure carries the 1-based line number.
	rec := do(t, h, "POST", "/events", "at 1 site-down "+busiestSite(t, s)+"\nat 2 bogus-kind x\n")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad event line = %d, want 400", rec.Code)
	}
	var apiErr apiError
	decode(t, rec, &apiErr)
	if apiErr.Line != 2 || len(apiErr.Applied) != 1 {
		t.Errorf("decode error = %+v, want line 2 with 1 applied", apiErr)
	}

	// A well-formed event that cannot apply (unknown site) is a 422.
	rec = do(t, h, "POST", "/events", "at 3 site-down no-such-site\n")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unknown site = %d, want 422", rec.Code)
	}

	if rec = do(t, h, "GET", "/explain", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("explain without group = %d, want 400", rec.Code)
	}
	if rec = do(t, h, "GET", "/explain?group=NOPE|1", ""); rec.Code != http.StatusNotFound {
		t.Errorf("explain unknown group = %d, want 404", rec.Code)
	}
	if rec = do(t, h, "GET", "/diff?since=x", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("diff bad since = %d, want 400", rec.Code)
	}
	if rec = do(t, h, "POST", "/advance?to=0", ""); rec.Code != http.StatusConflict {
		t.Errorf("advance backwards = %d, want 409", rec.Code)
	}
	if rec = do(t, h, "POST", "/checkpoint", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("checkpoint without path = %d, want 400", rec.Code)
	}
	// An oversized body is refused with 413 (blank lines decode to no
	// events, so nothing applies before the limit).
	if rec = do(t, h, "POST", "/events", strings.Repeat("\n", maxEventsBody+1)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized events body = %d, want 413", rec.Code)
	}
	if rec = do(t, h, "GET", "/nope", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", rec.Code)
	}
}

// TestSnapshotIsolation pins the core concurrency property: a State taken
// before an event still answers from the pre-event world after the event
// has mutated the live engine.
func TestSnapshotIsolation(t *testing.T) {
	s := testServer(t, 7)
	site := busiestSite(t, s)
	before := s.Current()

	if _, err := s.Apply(dynamics.Event{At: 1, Kind: dynamics.SiteDown, Site: site}); err != nil {
		t.Fatal(err)
	}
	after := s.Current()
	if before == after {
		t.Fatal("Apply did not publish a new state")
	}

	// The old snapshot still sees the site announced and serving (on the
	// deployment's own prefixes).
	mine := depPrefixes(s)
	announcedOnDep := func(set glass.CatchmentSet) bool {
		for _, ps := range set.Announced {
			if !mine[ps.Prefix] {
				continue
			}
			for _, a := range ps.Sites {
				if a == site {
					return true
				}
			}
		}
		return false
	}
	cap0, err := before.Catchment()
	if err != nil {
		t.Fatal(err)
	}
	if !announcedOnDep(cap0) {
		t.Errorf("pre-event snapshot lost site %s after the event", site)
	}
	if sl, ok := before.Load.SiteLoadByID(site); !ok || sl.Groups == 0 {
		t.Errorf("pre-event snapshot's load for %s emptied", site)
	}
	// And the new one does not.
	capN, err := after.Catchment()
	if err != nil {
		t.Fatal(err)
	}
	if announcedOnDep(capN) {
		t.Errorf("post-event snapshot still announces %s", site)
	}
}

// TestAdvanceRebinsDemand checks the virtual clock: advancing into another
// time bucket re-evaluates load under that bucket's diurnal demand.
func TestAdvanceRebinsDemand(t *testing.T) {
	s := testServer(t, 7)
	st0 := s.Current()

	st, err := s.AdvanceTo(4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != 4 || st.Bucket != 4 || st.Seq != st0.Seq+1 {
		t.Fatalf("advanced state = tick %d bucket %d seq %d", st.Tick, st.Bucket, st.Seq)
	}
	same := true
	for i := range st.Load.Sites {
		if st.Load.Sites[i].Demand != st0.Load.Sites[i].Demand {
			same = false
		}
	}
	if same {
		t.Error("demand identical across time buckets; diurnal cycle not applied")
	}
	// Ticks within the same bucket ring around the day.
	if st, err = s.AdvanceTo(12); err != nil {
		t.Fatal(err)
	}
	if st.Bucket != 12%s.Model().Buckets() {
		t.Errorf("tick 12 lands in bucket %d", st.Bucket)
	}
}

// TestIngestFlashCrowd checks demand-only events: a flash crowd scales its
// area's demand without touching routing, and ends cleanly.
func TestIngestFlashCrowd(t *testing.T) {
	s := testServer(t, 7)
	base := s.Current()

	applied, err := s.Ingest(strings.NewReader("at 0 flash-begin EMEA 3.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0].Dirty != 0 {
		t.Fatalf("flash applied = %+v, want one event with no reconvergence", applied)
	}
	st := s.Current()
	if len(st.Flash) != 1 {
		t.Fatalf("flash state = %v", st.Flash)
	}
	var baseTotal, flashTotal float64
	for i := range st.Load.Sites {
		baseTotal += base.Load.Sites[i].Demand
		flashTotal += st.Load.Sites[i].Demand
	}
	if flashTotal <= baseTotal {
		t.Errorf("flash crowd demand %.0f not above baseline %.0f", flashTotal, baseTotal)
	}
	if _, err := s.Ingest(strings.NewReader("at 0 flash-end EMEA\n")); err != nil {
		t.Fatal(err)
	}
	if len(s.Current().Flash) != 0 {
		t.Error("flash crowd survived flash-end")
	}
}
