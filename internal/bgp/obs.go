package bgp

// Engine observability. The engine is the hottest layer in the simulator —
// a single steering Resolve drives hundreds of reconvergences across
// dozens of forks — so its instrumentation follows the obs package's two
// rules strictly:
//
//   - Every handle is cached at Instrument time and nil when observability
//     is off, so an uninstrumented engine pays one nil check per site.
//   - Metrics are integer counters/histograms shared across forks: trial
//     forks run concurrently but integer addition commutes, so totals and
//     bucket counts are identical at any worker count.
//
// Trace events are different: their order is their meaning, and fork
// operations interleave nondeterministically. Fork therefore strips the
// tracer — the JSONL stream narrates the committed timeline of the root
// engine only, while the forks' aggregate work still shows up in the
// shared metrics.

import (
	"net/netip"
	"sync/atomic"

	"anysim/internal/obs"
)

// engineObs bundles the engine's cached observability handles. The zero
// value (all nil) is the disabled state.
type engineObs struct {
	announces *obs.Counter // full Announce convergences
	withdraws *obs.Counter // whole-prefix withdrawals
	siteOps   *obs.Counter // sites a commit added, changed or withdrew on a lit prefix
	linkOps   *obs.Counter // commits that flipped links
	fulls     *obs.Counter // incremental runs that fell back to full recompute
	forks     *obs.Counter // Fork calls
	forkCOW   *obs.Counter // map entries shallow-copied by Fork (COW volume)

	dirty    *obs.Histogram // recomputed ASes per (re)convergence
	passes   *obs.Histogram // worklist passes per reconvergence
	frontier *obs.Histogram // frontier size per worklist pass
	p1rounds *obs.Histogram // phase-1 climb rounds per converge call
	p3levels *obs.Histogram // phase-3 descent levels per converge call

	// Span sites of the incremental reconvergence hot path; reg is kept so
	// spans can check the wall gate before reading the clock.
	reg      *obs.Registry
	reconvTm obs.SpanTimer // bgp.reconverge: whole incremental operation
	passTm   obs.SpanTimer // bgp.reconverge.pass: one worklist frontier drain

	tracer *obs.Tracer
	// seq is the engine's simulation clock: it numbers traced operations on
	// the root engine. Forks never trace, so they never advance it.
	seq *atomic.Int64
}

// spanActive reports whether span instrumentation on this engine records
// anything — a tracer is attached or wall metrics may be on. Hot sites check
// it before building clock coordinates so the disabled path allocates
// nothing (two nil checks).
func (e *Engine) spanActive() bool {
	return e.eobs.tracer.Enabled() || e.eobs.reg.WallEnabled()
}

// Instrument attaches a metrics registry and tracer to the engine. Both may
// be nil; a nil registry yields nil metric handles (no-ops), and a nil
// tracer disables the event stream. Call before the workload of interest;
// forks inherit the metric handles but not the tracer (see package
// comment). Instrumenting is not synchronized with concurrent engine use —
// do it while the engine is quiescent.
func (e *Engine) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	e.eobs = engineObs{
		announces: reg.Counter("bgp.announce.full"),
		withdraws: reg.Counter("bgp.withdraw.prefix"),
		siteOps:   reg.Counter("bgp.op.site"),
		linkOps:   reg.Counter("bgp.op.links"),
		fulls:     reg.Counter("bgp.reconverge.full_fallbacks"),
		forks:     reg.Counter("bgp.fork.count"),
		forkCOW:   reg.Counter("bgp.fork.cow_entries"),
		dirty:     reg.Histogram("bgp.reconverge.dirty", obs.Pow2Bounds(20)),
		passes:    reg.Histogram("bgp.reconverge.passes", obs.Pow2Bounds(6)),
		frontier:  reg.Histogram("bgp.reconverge.frontier", obs.Pow2Bounds(20)),
		p1rounds:  reg.Histogram("bgp.converge.phase1_rounds", obs.Pow2Bounds(8)),
		p3levels:  reg.Histogram("bgp.converge.phase3_levels", obs.Pow2Bounds(8)),
		reg:       reg,
		reconvTm:  reg.SpanTimer("bgp.reconverge"),
		passTm:    reg.SpanTimer("bgp.reconverge.pass"),
		tracer:    tr,
		seq:       new(atomic.Int64),
	}
}

// traceOp emits one operation event on the root engine's timeline, clocked
// by the engine op sequence. No-op (and no allocation) when tracing is off.
func (e *Engine) traceOp(name string, prefix netip.Prefix, st ReconvergeStats) {
	if !e.eobs.tracer.Enabled() {
		return
	}
	e.emitOp(name,
		obs.Str("prefix", prefix.String()),
		obs.Int("dirty", int64(st.Dirty)),
		obs.Int("passes", int64(st.Passes)),
		obs.Bool("full", st.Full),
	)
}

// emitOp emits the next event of the root engine's op timeline; callers
// check the tracer first.
func (e *Engine) emitOp(name string, attrs ...obs.Attr) {
	e.eobs.tracer.Emit(obs.Event{
		Scope: "bgp",
		Name:  name,
		Clock: []obs.Coord{{Key: "op", V: e.eobs.seq.Add(1)}},
		Attrs: attrs,
	})
}
