package server

// Checkpoint/restore. The routing engine is a deterministic function of
// (topology, announcement sets), so a checkpoint does not serialize RIBs:
// it records the world's compatibility tag, the clock, the link states,
// the active flash crowds, every prefix's announcement set plus failover
// hints (bgp.PrefixState), the derived site capacities, and the metrics
// snapshot. Restore rebuilds the identical world from the seed and
// replays that state; the engine reconverges to bit-identical RIBs, so a
// /catchment response after restore is byte-for-byte the one the
// checkpointed server would have produced.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"anysim/internal/bgp"
	"anysim/internal/dynamics"
	"anysim/internal/geo"
	"anysim/internal/obs"
	"anysim/internal/traffic"
)

// Checkpoint is the serialized resident state of a server.
type Checkpoint struct {
	// Header tags the checkpoint with the trace schema version, seed, and
	// world-config hash; restore refuses a world that does not match.
	Header obs.TraceHeader `json:"header"`
	Dep    string          `json:"dep"`
	Tick   int64           `json:"tick"`
	Seq    int64           `json:"seq"`
	Events int64           `json:"events"`
	// DisabledLinks are topology link indices currently failed.
	DisabledLinks []int `json:"disabled_links,omitempty"`
	// Flash maps paper-area names to active flash-crowd factors.
	Flash map[string]float64 `json:"flash,omitempty"`
	// Routing is the full announcement state of the engine (all
	// deployments, not only the served one — link events perturb them all).
	Routing []bgp.PrefixState `json:"routing"`
	// Caps are the per-site capacities derived at first start.
	Caps map[string]float64 `json:"caps"`
	// Metrics is the registry snapshot (absent when metrics are off).
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// Checkpoint captures the server's resident state. It runs on the ingest
// path (serialized with Apply), so the captured state is consistent.
func (s *Server) Checkpoint() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	hdr := obs.NewTraceHeader(s.w.Config.Seed, s.w.Config.Hash())
	hdr.Policy = s.w.Config.PolicyHash()
	cp := &Checkpoint{
		Header:        hdr,
		Dep:           s.dep.Name,
		Tick:          s.tick,
		Seq:           s.seq,
		Events:        s.events,
		DisabledLinks: s.w.Topo.DisabledLinks(),
		Routing:       s.w.Engine.ExportState(),
		Caps:          make(map[string]float64, len(s.eval.Caps)),
	}
	for site, c := range s.eval.Caps {
		cp.Caps[site] = c
	}
	if flash := s.runner.ActiveFlash(); len(flash) > 0 {
		cp.Flash = make(map[string]float64, len(flash))
		for a, f := range flash {
			cp.Flash[a.String()] = f
		}
	}
	if reg := s.w.Config.Metrics; reg != nil {
		cp.Metrics = reg.AppendSnapshot(nil)
	}
	s.emitTrace("checkpoint", obs.Int("prefixes", int64(len(cp.Routing))))
	return cp
}

// WriteCheckpoint captures the server's state and writes it atomically
// (temp file + rename) to path, returning the byte count.
func (s *Server) WriteCheckpoint(path string) (int, error) {
	cp := s.Checkpoint()
	data, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return 0, fmt.Errorf("server: encode checkpoint: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".checkpoint-*")
	if err != nil {
		return 0, fmt.Errorf("server: write checkpoint: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("server: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("server: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("server: write checkpoint: %w", err)
	}
	return len(data), nil
}

// ReadCheckpoint loads a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: read checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("server: read checkpoint %s: %w", path, err)
	}
	return &cp, nil
}

// Compatible checks a checkpoint against a world's compatibility tag
// (seed, world hash, policy hash) and a deployment, without restoring
// anything.
func (cp *Checkpoint) Compatible(seed int64, worldHash, policyHash, dep string) error {
	want := obs.NewTraceHeader(seed, worldHash)
	want.Policy = policyHash
	h := cp.Header
	if h.Trace != want.Trace {
		return fmt.Errorf("server: not an anysim checkpoint (header %q)", h.Trace)
	}
	if h.Schema != want.Schema {
		return fmt.Errorf("server: checkpoint schema %d, this build reads %d", h.Schema, want.Schema)
	}
	if h.Seed != want.Seed {
		return fmt.Errorf("server: checkpoint is from seed %d, this world is seed %d", h.Seed, want.Seed)
	}
	// Policy before world: the world hash folds the policy hash in, and a
	// policy mismatch should name the policy, not a generic world hash.
	if h.Policy != want.Policy {
		return fmt.Errorf("server: checkpoint policy %s does not match this world's policy %s; restore under the original -policy file",
			orNone(h.Policy), orNone(want.Policy))
	}
	if h.World != want.World {
		return fmt.Errorf("server: checkpoint world hash %s does not match this world (%s); rebuild with the original configuration", h.World, want.World)
	}
	if cp.Dep != dep {
		return fmt.Errorf("server: checkpoint is for deployment %s, serving %s", cp.Dep, dep)
	}
	return nil
}

// restore reinstates a checkpoint onto the freshly built (and verified
// compatible) world: link states first, then the full announcement replay,
// then flash crowds and the clock. Every field it can check alone is
// checked before the first of those changes the world. The caller
// reinstates the metrics snapshot after the initial publish.
func (s *Server) restore(cp *Checkpoint) error {
	if err := cp.Compatible(s.w.Config.Seed, s.w.Config.Hash(), s.w.Config.PolicyHash(), s.dep.Name); err != nil {
		return err
	}
	for site := range cp.Caps {
		if _, ok := s.dep.SiteByID(site); !ok {
			return fmt.Errorf("server: checkpoint capacity for unknown site %q", site)
		}
	}
	for _, site := range s.dep.Sites {
		c, ok := cp.Caps[site.ID]
		if !ok {
			return fmt.Errorf("server: checkpoint has no capacity for site %q", site.ID)
		}
		if c < 0 {
			return fmt.Errorf("server: checkpoint capacity %v for site %q is negative", c, site.ID)
		}
	}
	tp := s.w.Topo
	nLinks := len(tp.Links())
	for _, li := range cp.DisabledLinks {
		if li < 0 || li >= nLinks {
			return fmt.Errorf("server: checkpoint disables link %d, topology has %d", li, nLinks)
		}
	}
	names := make([]string, 0, len(cp.Flash))
	for a := range cp.Flash {
		names = append(names, a)
	}
	sort.Strings(names)
	flash := make([]dynamics.Event, len(names))
	for i, name := range names {
		a, err := geo.ParseArea(name)
		if err != nil {
			return fmt.Errorf("server: restore flash crowd: %w", err)
		}
		f := cp.Flash[name]
		if !(f > 0) {
			return fmt.Errorf("server: checkpoint flash crowd %s has non-positive factor %g", name, f)
		}
		flash[i] = dynamics.Event{Kind: dynamics.FlashBegin, Area: a, Factor: f}
	}
	switch {
	case cp.Tick < 0:
		return fmt.Errorf("server: checkpoint tick %d is negative", cp.Tick)
	case cp.Events < 0:
		return fmt.Errorf("server: checkpoint event count %d is negative", cp.Events)
	case cp.Seq < 1:
		return fmt.Errorf("server: checkpoint seq %d, a published state has seq 1 or more", cp.Seq)
	}

	for _, li := range cp.DisabledLinks {
		if err := tp.SetLinkEnabled(li, false); err != nil {
			return fmt.Errorf("server: restore link state: %w", err)
		}
	}
	if err := s.w.Engine.RestoreState(cp.Routing); err != nil {
		return fmt.Errorf("server: restore routing: %w", err)
	}
	s.eval = traffic.NewEvaluatorWithCaps(s.w.Engine, s.dep, s.model, traffic.CapacityConfig{}, cp.Caps)
	s.newRunner()
	for _, ev := range flash {
		if err := s.runner.Apply(ev); err != nil {
			return fmt.Errorf("server: restore flash crowd: %w", err)
		}
	}
	s.tick = cp.Tick
	s.events = cp.Events
	// The initial publish bumps seq back to exactly the checkpoint's.
	s.seq = cp.Seq - 1
	return nil
}

// orNone renders an empty policy hash readably in error messages.
func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
