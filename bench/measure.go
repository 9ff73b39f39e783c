package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"anysim/internal/stats"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPercentile returns the highest of the usual reporting percentiles
// that has at least minBeyond samples above it among n, or 50 when the
// sample is too small for any of them. Workloads pass the step count every
// run is guaranteed to reach, so the percentile a metric reports never
// depends on how fast one run happened to be.
func tailPercentile(n int) float64 {
	// Per mille, so the "samples beyond" test is exact integer arithmetic.
	for _, pm := range []int{999, 990, 980, 950, 900, 750} {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// stepMetrics reports a run's step latencies (milliseconds): the median and
// the tail percentile the guaranteed step count supports.
func stepMetrics(rep *report, steps []float64, floor int) {
	tail := tailPercentile(floor)
	rep.set("step_p50_ms", stats.Percentile(steps, 50), len(steps), "median")
	rep.set("step_tail_ms", stats.Percentile(steps, tail), len(steps), fmt.Sprintf("p%g", tail))
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupRuns calls setup n times and keeps the last result. The median
// set-up time is reported as setup_s; the garbage of the discarded set-ups
// is collected before the next one so it cannot inflate peak RSS.
func setupRuns[T any](rep *report, n int, setup func() (T, error)) (T, bool) {
	var (
		v    T
		durs []float64
	)
	for i := 0; i < max(n, 1); i++ {
		var zero T
		v = zero
		runtime.GC()
		t0 := time.Now()
		var err error
		v, err = setup()
		durs = append(durs, time.Since(t0).Seconds())
		if !rep.ok(err) {
			return v, false
		}
	}
	rep.set("setup_s", stats.Median(durs), len(durs), "median of set-ups")
	return v, true
}

// rssMark is VmHWM read when a run completes its guaranteed steps, so the
// peak covers the same work in every run however fast it went.
type rssMark struct {
	kb  int64
	err error
	set bool
}

// take reads VmHWM once.
func (m *rssMark) take() {
	if !m.set {
		m.kb, m.err = vmHWM()
		m.set = true
	}
}

// report sets peak_rss_mb, or notes that VmHWM is unavailable (no
// /proc/self/status) instead of failing the run.
func (m *rssMark) report(rep *report) {
	if !m.set {
		return
	}
	if m.err != nil {
		rep.notef("peak_rss_mb unavailable: %v", m.err)
		return
	}
	rep.set("peak_rss_mb", float64(m.kb)/1024, 1, "VmHWM when the guaranteed steps completed")
}

// resetPeakRSS returns freed memory to the OS and restarts VmHWM from the
// current RSS, so a process that runs several workloads (-workload all)
// reports each one's own peak. The write's error is dropped: without
// /proc/self/clear_refs (Linux before 4.0, other systems) the peak simply
// stays process-wide.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func vmHWM() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runtimeNames are the runtime/metrics read at phase boundaries. The CPU
// classes are the runtime's own estimates, refreshed at each GC; a phase
// spans hundreds of collections, so the lag at its end is negligible.
var runtimeNames = [...]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/live:bytes",
}

type runtimeSnap [len(runtimeNames)]float64

func readRuntime() runtimeSnap {
	var samples [len(runtimeNames)]metrics.Sample
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples[:])
	var s runtimeSnap
	for i, smp := range samples {
		switch smp.Value.Kind() {
		case metrics.KindFloat64:
			s[i] = smp.Value.Float64()
		case metrics.KindUint64:
			s[i] = float64(smp.Value.Uint64())
		}
	}
	return s
}

// startPhase collects garbage (so set-up debris is not charged to the
// measured phase) and snapshots the runtime counters.
func startPhase() runtimeSnap {
	runtime.GC()
	return readRuntime()
}

// runtimeMetrics reports the runtime/metrics deltas of a measured phase
// that completed ops units of work: GC's share of the CPU the process used,
// allocation per unit, and the live heap at the phase's end.
func runtimeMetrics(rep *report, start runtimeSnap, ops int) {
	end := readRuntime()
	d := func(i int) float64 { return end[i] - start[i] }
	if busy := d(1) - d(2); busy > 0 {
		rep.set("runtime.gc_cpu_frac", d(0)/busy, 1, "GC CPU / busy CPU")
	}
	if ops > 0 {
		rep.set("runtime.alloc_mb_per_op", d(3)/float64(ops)/(1<<20), ops, "per unit of work")
		rep.set("runtime.allocs_per_op", d(4)/float64(ops), ops, "per unit of work")
	}
	rep.set("runtime.live_heap_mb", end[5]/(1<<20), 1, "at phase end")
}

// digest is an FNV-64a hash of a run's outputs over the steps every run
// completes, so byte-identical outputs show as equal digests across commits.
type digest struct {
	h     hash.Hash64
	steps int
	limit int
}

func newDigest(limit int) *digest { return &digest{h: fnv.New64a(), limit: limit} }

// step folds one step's output into the digest while under the limit.
func (d *digest) step(out []byte) {
	if d.steps < d.limit {
		d.h.Write(out)
	}
	d.steps++
}

func (d *digest) String() string {
	return fmt.Sprintf("%016x (FNV-64a over the first %d steps)", d.h.Sum64(), min(d.steps, d.limit))
}
