package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"anysim/internal/core"
	"anysim/internal/obs"
	"anysim/internal/worldgen"
)

// benchmarkJSON is the shape of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want exactly %v", got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSON holds BENCHMARK.json to its format rules and to
// this package's workload and metric tables.
func TestBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	for _, arg := range bj.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the repository", arg)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", bj.RunSeconds)
	}

	if n := len(bj.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}

	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range bj.EndToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if d := endToEnd[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %g, want the largest bound (%g)", setupBound, maxBound)
	}

	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if d := perLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{499, 95}, {500, 98}, {999, 98}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPeakRSS(t *testing.T) {
	var m rssMark
	m.take()
	rep := newReport()
	m.report(rep)
	if _, err := os.Stat("/proc/self/status"); err != nil {
		if _, ok := rep.metrics["peak_rss_mb"]; ok || len(rep.notes) == 0 {
			t.Fatalf("without /proc/self/status peak_rss_mb must be noted unavailable, got %v", rep.metrics)
		}
		return
	}
	if got := rep.metrics["peak_rss_mb"].Value; got <= 0 {
		t.Fatalf("peak_rss_mb = %g", got)
	}
	// An unreadable status file is reported, not fatal.
	rep = newReport()
	(&rssMark{err: os.ErrNotExist, set: true}).report(rep)
	if _, ok := rep.metrics["peak_rss_mb"]; ok || len(rep.notes) != 1 || rep.failed != 0 {
		t.Fatalf("unavailable VmHWM: metrics %v, notes %v, failed %d", rep.metrics, rep.notes, rep.failed)
	}
}

// tinyWorkloads are the benchmark's workloads shrunk to a second or so each:
// small worlds, a handful of steps, one set-up.
func tinyWorkloads() map[string]workload {
	small := worldgen.SmallConfig(worldgen.DefaultSeed)
	ops := defaultTwinOps()
	ops.minSteps, ops.setups = 6, 1
	storm := defaultTwinStorm()
	storm.batch, storm.minSteps, storm.setups = 4, 3, 1
	// The small world has no LatAm crowd steering resolves; on the default
	// world a 2.2x crowd resolves in three rounds.
	steer := defaultSteerFlash()
	steer.factor = func(int64) float64 { return 2.2 }
	steer.minSteps, steer.setups = 1, 1
	camp := defaultPaperCampaign()
	camp.world, camp.minSteps, camp.setups = small, 2, 1
	return map[string]workload{"twin-ops": ops, "twin-storm": storm, "steer-flash": steer, "paper-campaign": camp}
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny size
// and checks the result line: every declared metric present with its unit,
// end-to-end values positive, every check passed, nothing failed. The
// traced run's trace must fold and render as `anysim profile` renders it.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several worlds")
	}
	bj := readBenchmarkJSON(t)
	tiny := tinyWorkloads()
	for _, wl := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			w := tiny[wl.Name]
			rc := runCfg{seed: 1, seconds: time.Millisecond}
			if traced {
				rc.traceFile = filepath.Join(t.TempDir(), "trace.jsonl")
			}
			var out bytes.Buffer
			ok := printReport(&out, wl.Name, traced, w.run(rc, traced))
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", wl.Name, traced, err)
			}
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v failed:\n%s", wl.Name, traced, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.Name, traced, d.Name, m, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", wl.Name, d.Name, m.Value)
				}
			}
			if !traced {
				continue
			}
			if cover := res.Metrics["bench.layer_cover_frac"].Value; cover < 0.9 {
				t.Errorf("%s: layer self times cover %.3f of the traced step wall, want >= 0.9", wl.Name, cover)
			}
			f, err := os.Open(rc.traceFile)
			if err != nil {
				t.Fatal(err)
			}
			p, err := obs.ReadProfile(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: trace does not fold: %v", wl.Name, err)
			}
			var table bytes.Buffer
			if err := p.WriteTable(&table, 0); err != nil || !p.HasWall || p.Open != 0 {
				t.Fatalf("%s: profile table: err %v, wall %v, open %d", wl.Name, err, p.HasWall, p.Open)
			}
		}
	}
}

// TestReplayMatchesServer holds the traced twin's layer replay to the
// server it stands in for: event by event, the published load report, the
// captured catchment and the GET /load body are equal, and so are the
// flight recorders at the end.
func TestReplayMatchesServer(t *testing.T) {
	tw := defaultTwinOps()
	tn, err := tw.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	c := tw.world
	c.Metrics = obs.NewRegistry()
	w, err := worldgen.New(c)
	if err != nil {
		t.Fatal(err)
	}
	r := newReplay(w)
	h := tn.s.Handler()
	sched := newSchedule(tw.mix, 7, tn.w)
	for i := 0; i < 20; i++ {
		ev, err := sched.next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.s.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if err := r.apply(nil, ev); err != nil {
			t.Fatal(err)
		}
		st := tn.s.Current()
		if !reflect.DeepEqual(st.Load, r.cur.load) {
			t.Fatalf("event %d (%s): replay load report differs from the server's", i, ev)
		}
		want, err := st.Catchment()
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.captureCurrent(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("event %d (%s): replay capture differs from the server's", i, ev)
		}
		code, body, _ := serve(h, "GET", "/load", nil)
		replayBody, err := r.loadBody(nil)
		if err != nil || code != 200 || string(body) != replayBody {
			t.Fatalf("event %d (%s): GET /load (%d)\n%s\nreplay (%v)\n%s", i, ev, code, body, err, replayBody)
		}
	}
	if a, b := tn.s.Series().AppendJSON(nil), r.tsdb.AppendJSON(nil); !bytes.Equal(a, b) {
		t.Fatalf("replay flight recorder differs from the server's:\n%s\n%s", a, b)
	}
}

// TestReplayCampaignMatchesRunCampaign holds the traced campaign replay to
// core.RunCampaign's Result.
func TestReplayCampaignMatchesRunCampaign(t *testing.T) {
	w, err := worldgen.New(worldgen.SmallConfig(worldgen.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	probes := w.Platform.Retained()
	for _, host := range []string{w.Hostnames.EG3[1], w.Hostnames.IM6[2]} {
		dep := w.DeploymentOfHostname(host)
		want := core.RunCampaign(w.Measurer, w.Auth, dep, host, probes, core.DefaultCampaignConfig())
		tr := newTracer(1, w.Config.Hash())
		got, acc := replayCampaign(tr, w.Measurer, w.Auth, dep, host, probes, core.DefaultCampaignConfig())
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: replayed campaign differs from RunCampaign", host)
		}
		if acc[1].calls != int64(len(probes)*len(dep.VIPs())) {
			t.Errorf("%s: %d Forward calls timed, want one per probe and VIP (%d)", host, acc[1].calls, len(probes)*len(dep.VIPs()))
		}
		if _, err := tr.fold(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScheduleRestores checks what the twin's /diff queries and final
// check rely on: ticks strictly increase across episodes, and at most one
// fault is open at a time, so each repair restores the initial routing.
func TestScheduleRestores(t *testing.T) {
	w, err := worldgen.New(worldgen.SmallConfig(worldgen.DefaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	s := newSchedule(defaultTwinOps().mix, 3, w)
	last := 0
	for i := 0; i < 3*episodeFaults; i++ {
		ev, err := s.next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.At <= last {
			t.Fatalf("event %d at tick %d, not after %d", i, ev.At, last)
		}
		last = ev.At
		if s.open != 0 && s.open != 1 {
			t.Fatalf("event %d (%s): %d faults open", i, ev, s.open)
		}
	}
}
