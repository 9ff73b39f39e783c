// Command bench is anysim's end-to-end benchmark. It builds a world, drives
// one closed-loop client goroutine against the public entry points of the
// server, traffic and core packages, checks every output, and prints each
// metric by name with its unit and sample count. The last line of standard
// output is a JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"setup_s":{"value":0.18,"unit":"s"},...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) times calls into each layer from this package's own files,
// writes the spans as an anysim trace (render it with `anysim profile FILE`)
// and reports the per-layer metrics. BENCHMARK.json at the repository root
// declares both sets; README.md explains the workloads.
//
// Run from the repository root:
//
//	bash bench/run.sh --workload twin-ops --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one declared metric. BENCHMARK.json lists the same names,
// units and directions; bench_test.go holds the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator waits for. Every workload
// reports all of them; what a step and a unit of work are depends on the
// workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"step_p50_ms", "ms", "lower"},
	{"step_tail_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics, named by the module whose public
// calls they time or count. A workload that never calls into a layer
// reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"worldgen.build_s", "s", "lower"},
	{"server.new_s", "s", "lower"},
	{"traffic.setup_s", "s", "lower"},
	{"dynamics.decode_us_per_event", "us", "lower"},
	{"dynamics.apply_ms_p50", "ms", "lower"},
	{"dynamics.apply_ms_p98", "ms", "lower"},
	{"bgp.dirty_ases_mean", "count", "lower"},
	{"bgp.passes_mean", "count", "lower"},
	{"bgp.full_fallbacks", "count", "lower"},
	{"bgp.fork_us_p50", "us", "lower"},
	{"traffic.matrix_ms_p50", "ms", "lower"},
	{"traffic.evaluate_ms_p50", "ms", "lower"},
	{"ts.sample_us_p50", "us", "lower"},
	{"server.load_ms_p50", "ms", "lower"},
	{"server.encode_ms_p50", "ms", "lower"},
	{"glass.capture_ms_p50", "ms", "lower"},
	{"glass.diff_ms_p50", "ms", "lower"},
	{"glass.explain_ms_p50", "ms", "lower"},
	{"traffic.resolve_s", "s", "lower"},
	{"traffic.trial_ms_p50", "ms", "lower"},
	{"bgp.site_reconverge_ms_p50", "ms", "lower"},
	{"traffic.trials", "count", "lower"},
	{"traffic.rounds", "count", "lower"},
	{"traffic.actions", "count", "lower"},
	{"traffic.eval_reports", "count", "lower"},
	{"bgp.forks", "count", "lower"},
	{"bgp.site_ops", "count", "lower"},
	{"atlas.resolve_us_mean", "us", "lower"},
	{"bgp.forward_us_mean", "us", "lower"},
	{"atlas.rtt_us_mean", "us", "lower"},
	{"atlas.traceroute_us_mean", "us", "lower"},
	{"core.campaign_self_ms", "ms", "lower"},
	{"core.analyze_ms", "ms", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.live_heap_mb", "MB", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
	{"bench.layer_cover_frac", "frac", "higher"},
}

// workload is one benchmark input family. run performs one run: untraced it
// fills the end-to-end metrics, traced the per-layer ones.
type workload interface {
	run(rc runCfg, traced bool) *report
}

// workloads in the order `-workload all` runs them. README.md and
// BENCHMARK.json say why each exists.
var workloads = []struct {
	name string
	w    workload
}{
	{"twin-ops", defaultTwinOps()},
	{"twin-storm", defaultTwinStorm()},
	{"steer-flash", defaultSteerFlash()},
	{"paper-campaign", defaultPaperCampaign()},
}

// runCfg is what every run gets: the input seed, the measuring budget, and
// where the traced run writes its span trace.
type runCfg struct {
	seed      int64
	seconds   time.Duration
	traceFile string // traced runs only; "" writes no file
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value float64
	N     int
	Note  string
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	digest            string
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// op counts one client operation or output check; a failed one is recorded
// with its reason.
func (r *report) op(err error) bool {
	r.attempted++
	return r.ok(err)
}

// ok records err, when set, as a failure outside any client operation (a
// set-up or the benchmark's own bookkeeping).
func (r *report) ok(err error) bool {
	if err != nil {
		r.fail(err)
		return false
	}
	return true
}

// fail records a failed operation or output check.
func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) set(name string, v float64, n int, note string) {
	r.metrics[name] = metric{Value: v, N: n, Note: note}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the traced run's span trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	var todo []int
	for i, wl := range workloads {
		if *name == "all" || *name == wl.name {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	code := 0
	for _, i := range todo {
		wl := workloads[i]
		rc := runCfg{
			seed:    *seed,
			seconds: time.Duration(*seconds * float64(time.Second)),
		}
		if *trace == 1 {
			rc.traceFile = filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, *seed))
		}
		resetPeakRSS()
		fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d load=1 closed-loop client goroutine\n",
			wl.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		if !printReport(stdout, wl.name, *trace == 1, wl.w.run(rc, *trace == 1)) {
			code = 1
		}
	}
	return code
}

// printReport writes one run's human-readable lines and its JSON result
// line, and reports whether every check passed. An untraced run must have
// measured every end-to-end metric; a traced run reports the per-layer
// metrics of layers its workload never calls as 0.
func printReport(w io.Writer, name string, traced bool, rep *report) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		m, ok := rep.metrics[d.Name]
		if !ok && !traced {
			rep.fail(fmt.Errorf("%s: end-to-end metric %s not measured", name, d.Name))
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.fail(fmt.Errorf("%s: metric %s is %v", name, d.Name, m.Value))
			m.Value = 0
		}
		note := m.Note
		if !ok {
			note = "not exercised by this workload"
		}
		fmt.Fprintf(w, "%-30s %14.6g %-6s n=%-6d %s\n", d.Name, m.Value, d.Unit, m.N, note)
		out.Metrics[d.Name] = jsonMetric{Value: m.Value, Unit: d.Unit}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if rep.digest != "" {
		fmt.Fprintf(w, "digest %s %s\n", name, rep.digest)
	}
	failures := append([]string(nil), rep.failures...)
	sort.Strings(failures)
	for _, f := range failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	out.Correct = rep.failed == 0
	out.Attempted = max(rep.attempted, 1)
	out.Failed = rep.failed
	b, err := json.Marshal(out)
	if err != nil {
		// Only a non-finite value can fail to encode, and those were zeroed.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
	return out.Correct
}
