package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestRestoreSnapshotRoundTrip snapshots a populated registry and restores
// it into a fresh one that has already accumulated different values; the
// restored registry's snapshot must be byte-identical to the original.
func TestRestoreSnapshotRoundTrip(t *testing.T) {
	orig := NewRegistry()
	orig.EnableWall(true)
	orig.Counter("a.count").Add(42)
	orig.Gauge("a.gauge").Set(3.25)
	orig.Gauge("a.nan").Set(math.NaN())
	orig.Gauge("a.inf").Set(math.Inf(1))
	h := orig.Histogram("a.hist", Pow2Bounds(4))
	for _, v := range []int64{1, 3, 9, 1000} {
		h.Observe(v)
	}
	orig.WallGauge("w.gauge").Set(7.5)
	orig.WallHistogram("w.hist", Pow2Bounds(3)).Observe(2)
	snap := orig.AppendSnapshot(nil)

	dst := NewRegistry()
	// Pre-registered handles with replay pollution: restore must overwrite
	// in place so existing holders see the recorded values.
	c := dst.Counter("a.count")
	c.Add(9999)
	dh := dst.Histogram("a.hist", Pow2Bounds(4))
	dh.Observe(5)
	if err := dst.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := dst.AppendSnapshot(nil); !bytes.Equal(got, snap) {
		t.Errorf("restored snapshot differs:\n got %s\nwant %s", got, snap)
	}
	if c.Value() != 42 {
		t.Errorf("pre-registered counter handle = %d, want 42", c.Value())
	}
	if dh.Count() != 4 || dh.Sum() != 1013 {
		t.Errorf("pre-registered histogram handle = count %d sum %d, want 4/1013", dh.Count(), dh.Sum())
	}
	if v := dst.Gauge("a.nan").Value(); !math.IsNaN(v) {
		t.Errorf("NaN gauge restored as %v", v)
	}
	// Metrics not named in the snapshot are left untouched.
	dst2 := NewRegistry()
	keep := dst2.Counter("other.count")
	keep.Add(7)
	if err := dst2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if keep.Value() != 7 {
		t.Errorf("unrelated counter = %d, want 7", keep.Value())
	}
}

// TestRestoreSnapshotWithoutWall: a registry with wall collection off
// snapshots without a wall section, and that snapshot restores — sim
// metrics forced, wall collection left off — to a byte-identical snapshot.
func TestRestoreSnapshotWithoutWall(t *testing.T) {
	orig := NewRegistry()
	orig.Counter("a.count").Add(5)
	orig.Histogram("a.hist", Pow2Bounds(2)).Observe(3)
	orig.WallCounter("w.count").Add(1) // gated off: records nothing
	snap := orig.AppendSnapshot(nil)
	if bytes.Contains(snap, []byte(`"wall"`)) {
		t.Fatalf("wall-off snapshot carries a wall section:\n%s", snap)
	}

	dst := NewRegistry()
	dst.Counter("a.count").Add(100)
	if err := dst.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if dst.WallEnabled() {
		t.Error("restoring a wall-less snapshot switched wall collection on")
	}
	if got := dst.AppendSnapshot(nil); !bytes.Equal(got, snap) {
		t.Errorf("restored snapshot differs:\n got %s\nwant %s", got, snap)
	}
}

// TestRestoreSnapshotBoundsMismatch checks that a histogram whose recorded
// bounds differ from an existing handle's is refused.
func TestRestoreSnapshotBoundsMismatch(t *testing.T) {
	orig := NewRegistry()
	orig.Histogram("h", Pow2Bounds(4)).Observe(1)
	snap := orig.AppendSnapshot(nil)

	dst := NewRegistry()
	dst.Histogram("h", Pow2Bounds(8)).Observe(1)
	err := dst.RestoreSnapshot(snap)
	if err == nil || !strings.Contains(err.Error(), "bounds") {
		t.Fatalf("restore with mismatched bounds: %v", err)
	}
}

// TestRestoreSnapshotBadInput checks malformed snapshots are rejected.
func TestRestoreSnapshotBadInput(t *testing.T) {
	r := NewRegistry()
	if err := r.RestoreSnapshot([]byte("not json")); err == nil {
		t.Error("restore accepted garbage")
	}
	if err := r.RestoreSnapshot([]byte(`{"sim":{"gauges":{"g":"wat"}}}`)); err == nil {
		t.Error("restore accepted a bad gauge string")
	}
	var nilReg *Registry
	if err := nilReg.RestoreSnapshot([]byte("{}")); err == nil {
		t.Error("restore into nil registry succeeded")
	}
}
