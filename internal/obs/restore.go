package obs

// Snapshot restore, the metrics half of `anysim serve`'s checkpoint files.
// A restored server rebuilds its world from the same seed and replays
// routing state, which pollutes the registry with construction-time
// counts; RestoreSnapshot then force-sets every metric named in a snapshot
// back to its recorded value, so the registry ends up exactly where the
// checkpointed run's was. Handles keep their identity: components that
// captured a *Counter before the restore see the restored values.

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// snapshotFile mirrors the WriteSnapshot layout. Wall is nil when the
// snapshot was taken with wall collection off.
type snapshotFile struct {
	Sim  snapshotSection  `json:"sim"`
	Wall *snapshotSection `json:"wall"`
}

type snapshotSection struct {
	Counters   map[string]int64           `json:"counters"`
	Gauges     map[string]json.RawMessage `json:"gauges"`
	Histograms map[string]histSnapshot    `json:"histograms"`
}

type histSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// RestoreSnapshot loads a snapshot produced by AppendSnapshot/WriteSnapshot
// back into the registry. Every metric named in the snapshot is created if
// absent (in its recorded class) and forced to the recorded value,
// overwriting whatever the handle accumulated before the call; metrics not
// named in the snapshot are left untouched. A snapshot with a wall section
// switches wall collection on, one without leaves it as it is, so the
// restored registry snapshots to the same sections. Restoring histograms whose
// bucket bounds differ from an existing handle's is an error.
func (r *Registry) RestoreSnapshot(data []byte) error {
	if r == nil {
		return fmt.Errorf("obs: restore into nil registry")
	}
	var f snapshotFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("obs: restore snapshot: %w", err)
	}
	if err := r.restoreSection(f.Sim, false); err != nil {
		return err
	}
	if f.Wall == nil {
		return nil
	}
	// The snapshot was taken with wall collection on; so is the registry
	// it restores.
	r.EnableWall(true)
	return r.restoreSection(*f.Wall, true)
}

// restoreSection forces every metric of one snapshot section.
func (r *Registry) restoreSection(sec snapshotSection, wall bool) error {
	for name, v := range sec.Counters {
		r.counter(name, wall).force(v)
	}
	for name, raw := range sec.Gauges {
		v, err := decodeSnapshotFloat(raw)
		if err != nil {
			return fmt.Errorf("obs: restore gauge %q: %w", name, err)
		}
		r.gauge(name, wall).bits.Store(floatBits(v))
	}
	for name, h := range sec.Histograms {
		if err := r.histogram(name, h.Bounds, wall).force(h); err != nil {
			return fmt.Errorf("obs: restore histogram %q: %w", name, err)
		}
	}
	return nil
}

// counter returns the named counter, creating it in the given class.
func (r *Registry) counter(name string, wall bool) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		if wall {
			c.gate = &r.wall
		}
		r.counters[name] = c
	}
	return c
}

// force overwrites a counter's value, bypassing the wall gate: a restore
// reinstates recorded state rather than observing new state.
func (c *Counter) force(v int64) { c.v.Store(v) }

// force overwrites a histogram's buckets with a recorded snapshot.
func (h *Histogram) force(s histSnapshot) error {
	if len(s.Counts) != len(s.Bounds)+1 || len(h.bounds) != len(s.Bounds) {
		return fmt.Errorf("snapshot has %d bounds/%d counts, handle has %d bounds", len(s.Bounds), len(s.Counts), len(h.bounds))
	}
	for i, b := range s.Bounds {
		if h.bounds[i] != b {
			return fmt.Errorf("bucket bound %d is %d, handle has %d", i, b, h.bounds[i])
		}
	}
	for i := range h.counts {
		h.counts[i].Store(s.Counts[i])
	}
	h.count.Store(s.Count)
	h.sum.Store(s.Sum)
	return nil
}

// decodeSnapshotFloat reads a gauge value as encoded by appendFloat: a JSON
// number, or the strings "NaN", "+Inf", "-Inf".
func decodeSnapshotFloat(raw json.RawMessage) (float64, error) {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		switch s {
		case "NaN", "+Inf", "-Inf":
			return strconv.ParseFloat(s, 64)
		default:
			return 0, fmt.Errorf("bad gauge string %q", s)
		}
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return 0, fmt.Errorf("bad gauge value %s", raw)
	}
	return v, nil
}
