package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"anysim/internal/dynamics"
)

// BenchmarkServeIngestEvent measures the resident server's full ingest
// path — incremental reconvergence, load re-evaluation, and state
// publication — by flapping the busiest site on the small world. The
// custom query-ns/op column reports the latency of a GET /load served
// from the published snapshot, the number a dashboard polling the twin
// would see.
func BenchmarkServeIngestEvent(b *testing.B) {
	s := testServer(b, 7)
	var site string
	var bestGroups int
	for _, sl := range s.Current().Load.Sites {
		if sl.Groups > bestGroups {
			site, bestGroups = sl.Site, sl.Groups
		}
	}
	down := dynamics.Event{Kind: dynamics.SiteDown, Site: site}
	up := dynamics.Event{Kind: dynamics.SiteUp, Site: site}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := down
		if i%2 == 1 {
			ev = up
		}
		if _, err := s.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	// Query latency against the final published state, via the real
	// handler. The first request pays the memoized capture; the sampled
	// /load reads measure the steady state.
	h := s.Handler()
	get := func(target string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s = %d", target, rec.Code)
		}
	}
	get("/load")
	const queries = 64
	t0 := time.Now()
	for i := 0; i < queries; i++ {
		get("/load")
	}
	b.ReportMetric(float64(time.Since(t0).Nanoseconds())/queries, "query-ns/op")
}

// BenchmarkServeAdvance measures one publish with no routing change: each
// op is AdvanceTo(tick+1), which re-rates demand into the next time bucket,
// forks the engine, evaluates the load, samples it into the flight
// recorder and advances the SLO rules.
func BenchmarkServeAdvance(b *testing.B) {
	s := testServer(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AdvanceTo(s.Current().Tick + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeIngestStream measures ingest through the event decoder —
// the POST /events path — amortized over a 16-event flap stream.
func BenchmarkServeIngestStream(b *testing.B) {
	s := testServer(b, 7)
	var site string
	var bestGroups int
	for _, sl := range s.Current().Load.Sites {
		if sl.Groups > bestGroups {
			site, bestGroups = sl.Site, sl.Groups
		}
	}
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, "at 0 site-down %s\nat 0 site-up %s\n", site, site)
	}
	stream := sb.String()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ingest(strings.NewReader(stream)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeIngestBatch measures batch ingest where nothing coalesces:
// each op is one 16-event body of distinct link failures spread over the
// topology, then the body repairing them, so every body reconverges all 16
// changes. It isolates what one lock, one reconvergence per prefix and one
// publish per body save over paying each per event (BenchmarkServeIngestEvent
// is the per-event path); ns/event is the op's time per event.
func BenchmarkServeIngestBatch(b *testing.B) {
	s := testServer(b, 7)
	links := s.w.Topo.Links()
	var down, up []dynamics.Event
	for k := 0; k < 16; k++ {
		l := links[k*len(links)/16]
		down = append(down, dynamics.Event{Kind: dynamics.LinkDown, A: l.A, B: l.B})
		up = append(up, dynamics.Event{Kind: dynamics.LinkUp, A: l.A, B: l.B})
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := down
		if i%2 == 1 {
			body = up
		}
		if _, err := s.ApplyBatch(body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(down)), "ns/event")
}

// BenchmarkServeOpsStep measures one step of the operator's loop on the
// live twin, through the HTTP handler: POST one event of a twin-ops
// schedule, GET /diff since the tick before it, and GET /explain for one
// probe group. The schedule repairs every fault it opens, so it replays in
// a cycle.
func BenchmarkServeOpsStep(b *testing.B) {
	s := testServer(b, 7)
	h := s.Handler()
	evs := twinOpsEvents(b, s, 7, 40)
	groups := s.Model().Groups
	serve := func(method, target, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s = %d: %s", method, target, rec.Code, rec.Body)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		since := s.Current().Tick
		serve("POST", "/events", evs[i%len(evs)].String()+"\n")
		serve("GET", "/diff?since="+strconv.FormatInt(since, 10), "")
		serve("GET", "/explain?group="+url.QueryEscape(groups[i%len(groups)].Key), "")
	}
}
