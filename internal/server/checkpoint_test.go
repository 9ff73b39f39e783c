package server

import (
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"anysim/internal/worldgen"
)

// TestCheckpointRestoreByteIdentical is the checkpoint contract: run A
// ingests events, checkpoints mid-stream, and keeps going; run B starts
// from the checkpoint file and replays the same tail. B's metrics
// snapshot and every query response must be byte-identical to A's — the
// restored server is indistinguishable from one that never stopped.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	const seed = 11
	a := testServer(t, seed)
	ha := a.Handler()
	site := busiestSite(t, a)

	head := fmt.Sprintf("at 1 site-down %s\nat 2 flash-begin APAC 2.5\n", site)
	if _, err := a.Ingest(strings.NewReader(head)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.json")
	if _, err := a.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	// A's view at checkpoint time, for the restore-only comparison. The
	// snapshot is taken after the same two queries B will make before its
	// own snapshot: per-endpoint status counters register on first use, so
	// the wall section's names reflect query history, and the comparison
	// must hold request histories equal to be meaningful.
	capAtCp := do(t, ha, "GET", "/catchment", "").Body.String()
	var statusAtCp statusView
	decode(t, do(t, ha, "GET", "/status", ""), &statusAtCp)
	snapAtCp := string(a.w.Config.Metrics.AppendSnapshot(nil))

	// A keeps going: restore the site, advance a bucket.
	tail := fmt.Sprintf("at 3 site-up %s\n", site)
	if _, err := a.Ingest(strings.NewReader(tail)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AdvanceTo(6); err != nil {
		t.Fatal(err)
	}

	// B: fresh world from the same seed, restored from the file.
	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	wb := testWorld(t, seed)
	b, err := New(Config{World: wb, Dep: wb.Imperva.IM6, Restore: cp})
	if err != nil {
		t.Fatal(err)
	}
	hb := b.Handler()

	// Before replaying anything, B answers exactly as A did at checkpoint
	// time — catchment and status byte for byte, metrics snapshot included.
	if got := do(t, hb, "GET", "/catchment", "").Body.String(); got != capAtCp {
		t.Error("/catchment after restore differs from checkpoint-time response")
	}
	// /status matches except oldest_tick: B's history ring legitimately
	// starts at the restore point, so diffs across the gap are refused
	// (checked below) rather than pretended.
	var statusB statusView
	decode(t, do(t, hb, "GET", "/status", ""), &statusB)
	statusB.OldestTick = statusAtCp.OldestTick
	if !reflect.DeepEqual(statusB, statusAtCp) {
		t.Errorf("/status after restore differs:\n got %+v\nwant %+v", statusB, statusAtCp)
	}
	if got := string(wb.Config.Metrics.AppendSnapshot(nil)); got != snapAtCp {
		t.Errorf("metrics snapshot after restore differs from the checkpointed one:\n got %s\nwant %s", got, snapAtCp)
	}
	if got := b.Current().Flash; len(got) != 1 {
		t.Errorf("restored flash state = %v, want the APAC crowd", got)
	}

	// Replay the tail on B; every response must match A's.
	if _, err := b.Ingest(strings.NewReader(tail)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AdvanceTo(6); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"/catchment", "/load", "/metrics"} {
		ra, rb := do(t, ha, "GET", ep, ""), do(t, hb, "GET", ep, "")
		if ra.Code != http.StatusOK || rb.Code != http.StatusOK {
			t.Fatalf("GET %s = %d / %d", ep, ra.Code, rb.Code)
		}
		if ra.Body.String() != rb.Body.String() {
			t.Errorf("GET %s diverges after restore+replay:\n got %s\nwant %s", ep, rb.Body, ra.Body)
		}
	}
	var sa, sb statusView
	decode(t, do(t, ha, "GET", "/status", ""), &sa)
	decode(t, do(t, hb, "GET", "/status", ""), &sb)
	sb.OldestTick = sa.OldestTick
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("/status diverges after restore+replay:\n got %+v\nwant %+v", sb, sa)
	}

	// B's history starts at the restore; a diff across the gap is refused
	// with 410, not answered wrongly.
	if rec := do(t, hb, "GET", "/diff?since=0", ""); rec.Code != http.StatusGone {
		t.Errorf("diff across the restore gap = %d, want 410", rec.Code)
	}
}

// TestRestoreRefusesMismatch pins every compatibility check: wrong seed,
// tampered world hash, wrong schema, wrong deployment.
func TestRestoreRefusesMismatch(t *testing.T) {
	const seed = 11
	a := testServer(t, seed)
	path := filepath.Join(t.TempDir(), "cp.json")
	if _, err := a.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	refuse := func(name string, w *worldgen.World, cp *Checkpoint, dep string, wantSub string) {
		t.Helper()
		d := w.Imperva.IM6
		if dep == "eg3" {
			d = w.Edgio.EG3
		}
		_, err := New(Config{World: w, Dep: d, Restore: cp})
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: restore error = %v, want mention of %q", name, err, wantSub)
		}
	}

	refuse("seed mismatch", testWorld(t, seed+1), cp, "im6", "seed")

	wb := testWorld(t, seed)
	tampered := *cp
	tampered.Header.World = "0000000000000000"
	refuse("world-hash mismatch", wb, &tampered, "im6", "world hash")

	tampered = *cp
	tampered.Header.Schema++
	refuse("schema mismatch", wb, &tampered, "im6", "schema")

	refuse("deployment mismatch", wb, cp, "eg3", "deployment")

	// A checkpoint taken under a policy cannot restore onto a world
	// without one — and the refusal names the policy side, rendering the
	// missing hash as "(none)", not the folded world hash.
	tampered = *cp
	tampered.Header.Policy = "deadbeefdeadbeef"
	refuse("policy mismatch", wb, &tampered, "im6", "policy")
	refuse("policy mismatch names none", wb, &tampered, "im6", "(none)")

	tampered = *cp
	tampered.Caps = map[string]float64{"no-such-site": 1}
	refuse("unknown site capacity", wb, &tampered, "im6", "unknown site")

	// The pristine checkpoint still restores onto the pristine world.
	if _, err := New(Config{World: wb, Dep: wb.Imperva.IM6, Restore: cp}); err != nil {
		t.Errorf("valid restore refused: %v", err)
	}
}

// TestCheckpointPathConfined pins where POST /checkpoint may write: ?path=
// is a bare file name resolved inside the -checkpoint directory, and every
// other form — absolute, with a separator, "..", or any ?path= on a server
// without -checkpoint — is refused with 400 and writes nothing.
func TestCheckpointPathConfined(t *testing.T) {
	dir := t.TempDir()
	w := testWorld(t, 7)
	s, err := New(Config{World: w, Dep: w.Imperva.IM6, CheckpointPath: filepath.Join(dir, "cp.json")})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	outside := filepath.Join(t.TempDir(), "escape.json")
	for _, name := range []string{outside, "sub/cp.json", "../escape.json", `..\escape.json`, "..", "."} {
		if rec := do(t, h, "POST", "/checkpoint?path="+url.QueryEscape(name), ""); rec.Code != http.StatusBadRequest {
			t.Errorf("?path=%s = %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	if _, err := os.Stat(outside); err == nil {
		t.Errorf("refused absolute ?path= still wrote %s", outside)
	}

	rec := do(t, h, "POST", "/checkpoint?path=named.json", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("?path=named.json = %d: %s", rec.Code, rec.Body)
	}
	var cv checkpointView
	decode(t, rec, &cv)
	want := filepath.Join(dir, "named.json")
	if cv.Path != want {
		t.Errorf("checkpoint written to %s, want %s", cv.Path, want)
	}
	if _, err := ReadCheckpoint(want); err != nil {
		t.Errorf("named checkpoint unreadable: %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("checkpoint dir holds %d entries, want just named.json", len(ents))
	}

	// Without -checkpoint there is no directory to resolve a name in.
	bare := testServer(t, 7).Handler()
	if rec := do(t, bare, "POST", "/checkpoint?path=named.json", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("?path= without -checkpoint = %d, want 400", rec.Code)
	}
}
