package server

import (
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"anysim/internal/dynamics"
)

// smallHistoryServer assembles a server with a tiny history ring so
// eviction is reachable in a few events.
func smallHistoryServer(t *testing.T, seed int64, history int) *Server {
	t.Helper()
	w := testWorld(t, seed)
	s, err := New(Config{World: w, Dep: w.Imperva.IM6, History: history})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// advanceThrough moves the clock one tick at a time up to tick, publishing
// one state per tick (each retained in the history ring).
func advanceThrough(t *testing.T, s *Server, from, to int64) {
	t.Helper()
	for tick := from; tick <= to; tick++ {
		if _, err := s.AdvanceTo(tick); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHistoryEvictionBoundary pins StateAt/OldestTick behavior at exactly
// the eviction edge: the oldest retained tick resolves, one tick older does
// not, and /diff against an evicted base is 410 Gone.
func TestHistoryEvictionBoundary(t *testing.T) {
	const history = 4
	s := smallHistoryServer(t, 7, history)

	// Ticks 0 (initial publish) through 9: ten states, ring keeps 4.
	advanceThrough(t, s, 1, 9)
	oldest := s.OldestTick()
	if oldest != 6 {
		t.Fatalf("OldestTick = %d after ticks 0..9 with history %d, want 6", oldest, history)
	}
	if st := s.StateAt(oldest); st == nil || st.Tick != oldest {
		t.Fatalf("StateAt(oldest=%d) = %+v, want the oldest retained state", oldest, st)
	}
	// Exactly one tick past the edge: unreachable.
	if st := s.StateAt(oldest - 1); st != nil {
		t.Fatalf("StateAt(%d) = tick %d, want nil for an evicted tick", oldest-1, st.Tick)
	}
	// StateAt semantics are "newest retained state with Tick <= tick", so a
	// query between retained ticks still resolves.
	if st := s.StateAt(oldest + 1); st == nil || st.Tick != oldest+1 {
		t.Fatalf("StateAt(%d) = %+v", oldest+1, st)
	}

	h := s.Handler()
	rec := do(t, h, "GET", "/diff?since="+strconv.FormatInt(oldest, 10), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("diff at the oldest retained tick = %d: %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "GET", "/diff?since="+strconv.FormatInt(oldest-1, 10), "")
	if rec.Code != http.StatusGone {
		t.Fatalf("diff against an evicted base = %d, want 410 Gone: %s", rec.Code, rec.Body)
	}
	var apiErr apiError
	decode(t, rec, &apiErr)
	if apiErr.Error == "" {
		t.Fatal("410 body has no error message")
	}
}

// TestHistoryEvictionAfterRestore checks the ring edge behaves identically
// on a server restored from a checkpoint: history is not checkpointed, so
// the restored ring starts at the restore tick and evicts from there.
func TestHistoryEvictionAfterRestore(t *testing.T) {
	const history = 3
	s := smallHistoryServer(t, 7, history)
	site := busiestSite(t, s)
	if _, err := s.Apply(dynamics.Event{At: 1, Kind: dynamics.SiteDown, Site: site}); err != nil {
		t.Fatal(err)
	}
	advanceThrough(t, s, 2, 5)
	path := filepath.Join(t.TempDir(), "cp.json")
	if _, err := s.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	wb := testWorld(t, 7)
	r, err := New(Config{World: wb, Dep: wb.Imperva.IM6, History: history, Restore: cp})
	if err != nil {
		t.Fatal(err)
	}
	// Immediately after restore the ring holds only the restore publish.
	if got := r.OldestTick(); got != 5 {
		t.Fatalf("OldestTick right after restore = %d, want the checkpoint tick 5", got)
	}
	if st := r.StateAt(4); st != nil {
		t.Fatalf("StateAt(4) after restore = tick %d, want nil (pre-checkpoint history is gone)", st.Tick)
	}
	rec := do(t, r.Handler(), "GET", "/diff?since=4", "")
	if rec.Code != http.StatusGone {
		t.Fatalf("diff before the restore tick = %d, want 410 Gone", rec.Code)
	}

	// Fill and overflow the restored ring; the edge math matches a fresh
	// server's.
	advanceThrough(t, r, 6, 10)
	if got := r.OldestTick(); got != 8 {
		t.Fatalf("OldestTick after overflowing the restored ring = %d, want 8", got)
	}
	if st := r.StateAt(7); st != nil {
		t.Fatalf("StateAt(7) = tick %d, want nil", st.Tick)
	}
	if st := r.StateAt(8); st == nil || st.Tick != 8 {
		t.Fatalf("StateAt(8) = %+v", st)
	}
	rec = do(t, r.Handler(), "GET", "/diff?since=7", "")
	if rec.Code != http.StatusGone {
		t.Fatalf("diff against an evicted post-restore base = %d, want 410", rec.Code)
	}
	rec = do(t, r.Handler(), "GET", "/diff?since=8", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("diff at the restored ring's oldest tick = %d: %s", rec.Code, rec.Body)
	}
}

// TestHistoryReleasesEvictedStates checks that a state evicted from the
// ring is garbage: no slot of the ring's backing array, inside or behind
// its window, keeps it (with its engine fork, report and capture) alive.
func TestHistoryReleasesEvictedStates(t *testing.T) {
	const history, ticks = 4, 24
	s := smallHistoryServer(t, 7, history)
	var freed sync.Map
	for tick := int64(1); tick <= ticks; tick++ {
		st, err := s.AdvanceTo(tick)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(st, func(st *State) { freed.Store(st.Tick, true) })
	}
	// The ring holds the last history ticks; every earlier one must go.
	for attempt := 0; ; attempt++ {
		runtime.GC()
		missing := 0
		for tick := int64(1); tick <= ticks-history; tick++ {
			if _, ok := freed.Load(tick); !ok {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if attempt == 50 {
			t.Fatalf("%d of %d evicted states still reachable", missing, ticks-history)
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(s)
}
