package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"anysim/internal/dynamics"
	"anysim/internal/glass"
)

// twinOpsEvents is a twin-ops schedule: site, link and IXP faults, flash
// crowds and re-announcement flaps, every fault repaired.
func twinOpsEvents(t testing.TB, s *Server, seed int64, faults int) []dynamics.Event {
	t.Helper()
	sc, err := dynamics.Generate(dynamics.GenConfig{
		Seed: seed, Faults: faults,
		PSite: 0.3, PLink: 0.3, PIXP: 0.1, PCrowd: 0.15, PFlap: 0.15,
	}, s.w.Topo, s.dep)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Events
}

// setPrepend re-announces every prefix of a site with the given prepend
// and publishes the result, as a steering action would. It reports false,
// publishing nothing, when the site announces nothing or already prepends
// that much.
func setPrepend(t *testing.T, s *Server, site string, prepend int) bool {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for _, prefix := range s.runner.Prefixes() {
		for _, a := range s.w.Engine.Announcements(prefix) {
			if a.Site != site || a.Prepend == prepend {
				continue
			}
			a.Prepend = prepend
			if err := s.w.Engine.AnnounceSite(prefix, a); err != nil {
				t.Fatal(err)
			}
			changed = true
		}
	}
	if changed {
		s.publishLocked()
	}
	return changed
}

// captureOracle holds a server's memoized captures and /diff answers to
// full captures of the same states.
type captureOracle struct {
	t *testing.T
	s *Server
	// last is the most recently checked state and its full capture, the
	// usual /diff base of the next step.
	last     *State
	lastFull glass.CatchmentSet
	checked  int
	fallback int
}

func (o *captureOracle) full(st *State) glass.CatchmentSet {
	o.t.Helper()
	if st == o.last {
		return o.lastFull
	}
	set, err := glass.Capture(st.Engine, o.s.dep, o.s.w.Measurer, o.s.w.Platform.Retained())
	if err != nil {
		o.t.Fatal(err)
	}
	return set
}

// check captures the current state through the server and compares it to
// a full capture, then compares GET /diff?since= with glass.Diff over full
// captures of the same two states.
func (o *captureOracle) check(step string, since int64) {
	o.t.Helper()
	cur := o.s.Current()
	if p := cur.pred.Load(); p != nil && p.captured.Load() == nil {
		o.fallback++
	}
	got, err := cur.Catchment()
	if err != nil {
		o.t.Fatal(err)
	}
	want := o.full(cur)
	if !reflect.DeepEqual(got, want) {
		o.t.Fatalf("%s: memoized capture of seq %d differs from a full capture", step, cur.Seq)
	}
	if cur.pred.Load() != nil {
		o.t.Fatalf("%s: captured state still links to its predecessor", step)
	}

	base := o.s.StateAt(since)
	rep, err := glass.Diff(o.full(base), want)
	if err != nil {
		o.t.Fatal(err)
	}
	exp := httptest.NewRecorder()
	writeJSON(exp, 200, diffView{Since: since, BaseSeq: base.Seq, BaseTick: base.Tick, Seq: cur.Seq, Tick: cur.Tick, Report: rep})
	rec := httptest.NewRecorder()
	o.s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/diff?since="+strconv.FormatInt(since, 10), nil))
	if rec.Code != 200 || rec.Body.String() != exp.Body.String() {
		o.t.Fatalf("%s: GET /diff?since=%d (%d) differs from a diff of full captures:\n got %s\nwant %s", step, since, rec.Code, rec.Body, exp.Body)
	}
	o.last, o.lastFull = cur, want
	o.checked++
}

// TestCaptureFromMatchesFull is the delta capture's exactness oracle. On
// two seeds it runs a twin-ops schedule of more than 500 events, with a
// prepended re-announcement among them and a checkpoint restore halfway.
// Every state's memoized capture must equal a full capture of its engine,
// and every /diff must equal glass.Diff over full captures. Every 7th
// state is left uncaptured, so the next capture has no ready base and
// takes the full path.
func TestCaptureFromMatchesFull(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			s := testServer(t, seed)
			site := busiestSite(t, s)
			evs := twinOpsEvents(t, s, seed, 300)
			if len(evs) < 500 {
				t.Fatalf("schedule has %d events, want >= 500", len(evs))
			}
			o := &captureOracle{t: t, s: s}
			o.check("initial", 0)
			prepended := false
			for i, ev := range evs {
				if i == len(evs)/2 {
					s = restored(t, s, seed)
					o = &captureOracle{t: t, s: s, checked: o.checked, fallback: o.fallback}
					o.check("restore", s.Current().Tick)
				}
				since := s.Current().Tick
				step := fmt.Sprintf("event %d (%s)", i, ev)
				switch i {
				case 40, 200, 400:
					// Prepend the busiest site, and undo it a few events
					// later: the site set stays, the ribs change.
					prepended = setPrepend(t, s, site, 3) || prepended
				case 45, 205, 405:
					setPrepend(t, s, site, 0)
				}
				if _, err := s.Apply(ev); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if i%7 == 6 {
					continue
				}
				o.check(step, since)
			}
			if !prepended {
				t.Fatal("no prepended re-announcement was applied")
			}
			if o.fallback == 0 {
				t.Fatal("no capture took the full path after an uncaptured state")
			}
			t.Logf("%d states checked, %d full-path captures after an uncaptured state", o.checked, o.fallback)
		})
	}
}

// restored checkpoints s and returns a server restored from it over a
// fresh world.
func restored(t *testing.T, s *Server, seed int64) *Server {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cp.json")
	if _, err := s.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	w := testWorld(t, seed)
	r, err := New(Config{World: w, Dep: w.Imperva.IM6, Restore: cp})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStateBaseLinkBounded: a state links to its predecessor only while it
// is current and uncaptured, so hundreds of publishes with no capture keep
// no chain of states alive.
func TestStateBaseLinkBounded(t *testing.T) {
	s := testServer(t, 7)
	for tick := int64(1); tick <= 300; tick++ {
		if _, err := s.AdvanceTo(tick); err != nil {
			t.Fatal(err)
		}
	}
	cur := s.Current()
	s.mu.Lock()
	hist := append([]*State(nil), s.hist...)
	s.mu.Unlock()
	for _, st := range hist {
		if st != cur && st.pred.Load() != nil {
			t.Fatalf("retained state seq %d still links to a predecessor", st.Seq)
		}
	}
	if cur.pred.Load() == nil {
		t.Fatal("the current state does not link to its predecessor")
	}
	if _, err := cur.Catchment(); err != nil {
		t.Fatal(err)
	}
	if cur.pred.Load() != nil {
		t.Fatal("the captured current state still links to its predecessor")
	}
}

// TestCaptureConcurrentWithIngest: captures taken from several goroutines
// while ingest publishes new states, and clears predecessor links under
// them, stay exact.
func TestCaptureConcurrentWithIngest(t *testing.T) {
	s := testServer(t, 3)
	evs := twinOpsEvents(t, s, 3, 20)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.Current().Catchment(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for _, ev := range evs {
		if _, err := s.Apply(ev); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()

	s.mu.Lock()
	hist := append([]*State(nil), s.hist...)
	s.mu.Unlock()
	captured := 0
	for _, st := range hist {
		c := st.captured.Load()
		if c == nil {
			continue
		}
		captured++
		want, err := glass.Capture(st.Engine, s.dep, s.w.Measurer, s.w.Platform.Retained())
		if err != nil {
			t.Fatal(err)
		}
		if c.err != nil || !reflect.DeepEqual(c.set, want) {
			t.Fatalf("capture of seq %d differs from a full capture (err %v)", st.Seq, c.err)
		}
	}
	if captured < 2 {
		t.Fatalf("only %d states were captured during ingest", captured)
	}
}

// TestGlassBodiesGolden pins the looking glass's answers, not just the
// delta capture's agreement with the full one. Through the HTTP handler it
// runs a seed-1 twin-ops schedule, and after every event it reads
// /catchment, /diff since the tick before the event, and /explain for
// three groups: one that cycles through every pathology class, one served
// by hot-potato egress and one with no regional route. The sha256 of every
// body in order must equal a digest recorded before catchment views
// stopped storing rendered hops.
func TestGlassBodiesGolden(t *testing.T) {
	const want = "f9017309a5f86bc3a76291e834fcf589ca0f53145ff56e8c2406269c8cc5f3cc"
	s := testServer(t, 1)
	evs := twinOpsEvents(t, s, 1, 90)
	if len(evs) < 150 {
		t.Fatalf("schedule has %d events, want >= 150", len(evs))
	}
	h := s.Handler()
	sum := sha256.New()
	serve := func(method, target, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%s %s = %d: %s", method, target, rec.Code, rec.Body)
		}
		sum.Write(rec.Body.Bytes())
	}
	groups := []string{"DUB|10398", "BNA|10698", "DKR|10228"}
	for _, ev := range evs {
		since := s.Current().Tick
		serve("POST", "/events", ev.String()+"\n")
		serve("GET", "/catchment", "")
		serve("GET", "/diff?since="+strconv.FormatInt(since, 10), "")
		for _, g := range groups {
			serve("GET", "/explain?group="+url.QueryEscape(g), "")
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Fatalf("glass bodies digest %s, want %s", got, want)
	}
}
