// Command anysim builds a simulated world and answers interactive queries
// about it: anycast catchments, probe measurements, route tables, site
// load, and deployment inventories. It is the debugging companion to
// cmd/repro.
//
// Usage:
//
//	anysim [-seed N] [-small] <subcommand> [args]
//
// Subcommands:
//
//	deployments              list deployments, regions, and VIPs
//	catchment <host>         per-area catchment-site histogram for a hostname
//	probe <groupKey> <host>  one probe group's DNS answers, pings, traceroute
//	routes <asn> <vip>       an AS's selected routes toward a VIP's prefix
//	explain [-json] ...      looking glass: the provenance-justified decision
//	                         chain for -asn/-prefix or a probe -group
//	diff [-json] <a> <b>     compare two JSONL trace runs (no world built)
//	report <series.json>     render a flight recording as a health report
//	                         (no world built; see -seriesfile)
//	scenario <file>          replay a fault scenario (see -dep) step by step
//	load [bucket]            per-site demand and utilization (see -dep)
//	serve [-listen A] ...    keep the world resident: stream events in over
//	                         stdin/HTTP, query it live, checkpoint/restore
//
// Exit codes: 0 success, 1 runtime error, 2 usage error, 3 routing
// non-termination (the scenario drove the BGP solver past its iteration
// bound — a policy-dispute configuration, not a crash), 4 event-stream
// decode failure (serve's stdin carried a line the dynamics DSL/JSONL
// decoder rejects; the error names the line). diff exits 1 when the event
// streams diverge, so scripts can gate on reproducibility. A failing
// -tracefile sink also exits 1: a partial trace is a failed run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"anysim/internal/asciimap"
	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/dynamics"
	"anysim/internal/geo"
	"anysim/internal/glass"
	"anysim/internal/obs"
	"anysim/internal/obs/ts"
	"anysim/internal/policy"
	"anysim/internal/server"
	"anysim/internal/topo"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// Exit codes.
const (
	exitOK             = 0
	exitError          = 1
	exitUsage          = 2
	exitNonTermination = 3
	exitDecode         = 4
)

// stdin is the serve subcommand's event source; tests substitute it.
var stdin io.Reader = os.Stdin

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, builds the world, and
// dispatches, writing to the given streams instead of the process globals.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("anysim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	var (
		seed        = fs.Int64("seed", worldgen.DefaultSeed, "world seed")
		small       = fs.Bool("small", false, "use the reduced-scale world")
		dep         = fs.String("dep", "im6", "deployment for the scenario and load subcommands (eg3, eg4, im6, ns, tangled)")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile of the subcommand (excluding world build) to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile taken after the subcommand to this file")
		metricsOut  = fs.String("metrics", "", "write a deterministic metrics snapshot (JSON) to this file after the run; \"-\" for stdout")
		traceFile   = fs.String("tracefile", "", "write a JSONL trace of simulation events (world build, routing ops, scenario steps) to this file")
		wallMetrics = fs.Bool("wallmetrics", false, "also collect wall-clock timings (the snapshot's \"wall\" section; nondeterministic)")
		debugAddr   = fs.String("debug-addr", "", "serve expvar, net/http/pprof, and /metrics on this address while the run executes")
		policyFile  = fs.String("policy", "", "install a community/filter policy from this file on the routing engine (its hash joins the run identity)")
		seriesFile  = fs.String("seriesfile", "", "write the flight-recorder dump (time series, SLO rules, alert history; JSON) to this file after a scenario or serve run; anysim report renders it")
		sloFile     = fs.String("slo", "", "load SLO rules (one per line, see internal/obs/ts) from this file for the flight recorder, replacing the defaults")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() < 1 {
		usage(stderr)
		return exitUsage
	}

	// diff and profile consume already-written traces: no world is built,
	// so they are dispatched before any of the expensive setup below.
	if fs.Arg(0) == "diff" {
		return diffCmd(fs.Args()[1:], stdout, stderr)
	}
	if fs.Arg(0) == "profile" {
		return profileCmd(fs.Args()[1:], stdout, stderr)
	}
	if fs.Arg(0) == "report" {
		return reportCmd(fs.Args()[1:], stdout, stderr)
	}

	// The SLO rule file is parsed before the world build so a bad rule is a
	// fast usage error. Recording is armed when either flag is set: -slo
	// without -seriesfile still drives the rules (scenario prints the alert
	// timeline, serve pages on /alerts and /watch).
	var sloRules []ts.Rule
	if *sloFile != "" {
		f, err := os.Open(*sloFile)
		if err != nil {
			fmt.Fprintf(stderr, "anysim: slo: %v\n", err)
			return exitUsage
		}
		sloRules, err = ts.ParseRules(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "anysim: slo: %s: %v\n", *sloFile, err)
			return exitUsage
		}
	}
	recordSeries := *seriesFile != "" || *sloFile != ""

	// explain and serve have their own flags; parse them now so mistakes are
	// fast usage errors and so the world build below can enable provenance
	// recording (the looking glass and the serve query API both need it).
	var exp *explainArgs
	var sv *serveArgs
	switch fs.Arg(0) {
	case "explain":
		var code int
		if exp, code = parseExplain(fs.Args()[1:], stderr); exp == nil {
			return code
		}
	case "serve":
		var code int
		if sv, code = parseServe(fs.Args()[1:], stderr); sv == nil {
			return code
		}
	default:
		// Validate argument counts before paying for world construction.
		wantArgs := map[string][]int{
			"deployments": {1}, "catchment": {2}, "probe": {3},
			"routes": {3}, "scenario": {2}, "load": {1, 2},
		}
		want, ok := wantArgs[fs.Arg(0)]
		if !ok {
			usage(stderr)
			return exitUsage
		}
		okCount := false
		for _, n := range want {
			if fs.NArg() == n {
				okCount = true
			}
		}
		if !okCount {
			usage(stderr)
			return exitUsage
		}
	}
	bucket := -1
	if fs.Arg(0) == "load" && fs.NArg() == 2 {
		var err error
		bucket, err = strconv.Atoi(fs.Arg(1))
		if err != nil || bucket < 0 {
			fmt.Fprintf(stderr, "anysim: bad bucket %q\n", fs.Arg(1))
			return exitUsage
		}
	}

	// Observability sinks are opened before the (expensive) world build so
	// an unwritable path is a fast usage error.
	var reg *obs.Registry
	// -wallmetrics alone is enough to want a registry: spans only record
	// wall coordinates (for anysim profile) when a wall-enabled registry is
	// attached, even if no snapshot file was requested. serve always gets
	// one — its telemetry plane (/metrics, /metrics.prom, per-endpoint
	// latencies) must work out of the box for supervisors and scrapers —
	// but wall collection stays opt-in even there: wall coordinates in the
	// trace would break cross-run `anysim diff` comparisons.
	if *metricsOut != "" || *debugAddr != "" || *wallMetrics || sv != nil {
		reg = obs.NewRegistry()
		reg.EnableWall(*wallMetrics)
	}
	var metricsW io.Writer
	if *metricsOut == "-" {
		metricsW = stdout
	} else if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(stderr, "anysim: metrics: %v\n", err)
			return exitUsage
		}
		defer f.Close()
		metricsW = f
	}
	var tracer *obs.Tracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "anysim: tracefile: %v\n", err)
			return exitUsage
		}
		defer f.Close()
		tracer = obs.NewTracer(f)
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "anysim: debug-addr: %v\n", err)
			return exitUsage
		}
		defer ln.Close()
		go http.Serve(ln, debugMux(reg)) //nolint:errcheck // best-effort debug endpoint
		fmt.Fprintf(stderr, "anysim: debug server on http://%s/ (expvar, pprof, /metrics)\n", ln.Addr())
	}

	var (
		w   *worldgen.World
		err error
	)
	wcfg := worldgen.Config{Seed: *seed}
	if *small {
		wcfg = worldgen.SmallConfig(*seed)
	}
	wcfg.Metrics = reg
	wcfg.Tracer = tracer
	// The looking glass needs the engine's decision record, and serve's
	// /explain endpoint is the same glass served over HTTP.
	wcfg.Provenance = exp != nil || sv != nil
	if *policyFile != "" {
		pol, perr := policy.Load(*policyFile)
		if perr != nil {
			fmt.Fprintf(stderr, "anysim: %v\n", perr)
			return exitUsage
		}
		wcfg.Policy = pol
	}
	w, err = worldgen.New(wcfg)
	if err != nil {
		fmt.Fprintf(stderr, "anysim: building world: %v\n", err)
		return exitError
	}

	// Profiling brackets the subcommand only: world construction is
	// benchmarked separately (BenchmarkWorldBuild) and would otherwise
	// dominate steering/scenario profiles.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "anysim: cpuprofile: %v\n", err)
			return exitError
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "anysim: cpuprofile: %v\n", err)
			return exitError
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "anysim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // surface live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "anysim: memprofile: %v\n", err)
			}
		}()
	}

	switch fs.Arg(0) {
	case "deployments":
		deployments(stdout, w)
	case "catchment":
		catchment(stdout, w, fs.Arg(1))
	case "probe":
		err = probe(stdout, w, fs.Arg(1), fs.Arg(2))
	case "routes":
		err = routes(stdout, w, fs.Arg(1), fs.Arg(2))
	case "explain":
		err = explain(stdout, w, *dep, exp)
	case "scenario":
		var rec *recorderArgs
		if recordSeries {
			rec = &recorderArgs{rules: sloRules, file: *seriesFile}
		}
		err = scenario(stdout, w, *dep, fs.Arg(1), reg, tracer, rec)
	case "load":
		err = load(stdout, w, *dep, bucket, reg)
	case "serve":
		sv.sloRules = sloRules
		sv.seriesFile = *seriesFile
		err = serveCmd(stderr, w, *dep, sv)
	}

	// The snapshot is written even when the subcommand failed: the metrics
	// up to the failure are exactly what a debugging run wants.
	if metricsW != nil {
		if _, werr := metricsW.Write(reg.AppendSnapshot(nil)); werr != nil {
			fmt.Fprintf(stderr, "anysim: metrics: %v\n", werr)
			if err == nil {
				return exitError
			}
		}
	}
	// Close surfaces the first sink error: a trace that silently lost
	// events would poison later `anysim diff` comparisons, so a failed sink
	// fails the run.
	if terr := tracer.Close(); terr != nil {
		fmt.Fprintf(stderr, "anysim: tracefile: %v (%d events dropped; trace is incomplete)\n",
			terr, tracer.Dropped())
		if err == nil {
			return exitError
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "anysim: %v\n", err)
		return exitCode(err)
	}
	return exitOK
}

// debugRegistry is the registry the expvar hook reads. expvar publication
// is process-global and permanent, so the hook indirects through this
// pointer instead of capturing one run's registry.
var debugRegistry atomic.Pointer[obs.Registry]

var expvarOnce sync.Once

// debugMux serves the debug endpoints: expvar under /debug/vars (including
// the metrics snapshot as the "anysim" var), the net/http/pprof profiles
// under /debug/pprof/, and the raw snapshot JSON under /metrics.
func debugMux(reg *obs.Registry) *http.ServeMux {
	debugRegistry.Store(reg)
	expvarOnce.Do(func() {
		expvar.Publish("anysim", expvar.Func(func() any {
			var v any
			if r := debugRegistry.Load(); r != nil {
				_ = json.Unmarshal(r.AppendSnapshot(nil), &v)
			}
			return v
		}))
	})
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r := debugRegistry.Load(); r != nil {
			_ = r.WriteSnapshot(w)
		} else {
			_, _ = w.Write([]byte("{}\n"))
		}
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = debugRegistry.Load().WriteProm(w)
	})
	return mux
}

// exitCode maps a subcommand error to the process exit code. Routing
// non-termination gets its own code so scripts can tell a policy dispute
// (a legitimate, reportable simulation outcome) from an ordinary failure,
// and an event-stream decode failure gets its own so a supervisor can tell
// a bad feed (fix the producer, line number in the error) from a sim error.
func exitCode(err error) int {
	var nte *bgp.NonTerminationError
	if errors.As(err, &nte) {
		return exitNonTermination
	}
	var derr *dynamics.DecodeError
	if errors.As(err, &derr) {
		return exitDecode
	}
	return exitError
}

func deployments(out io.Writer, w *worldgen.World) {
	for _, d := range []*cdn.Deployment{w.Edgio.EG3, w.Edgio.EG4, w.Imperva.IM6, w.Imperva.NS, w.Tangled.Global} {
		fmt.Fprintf(out, "%s (AS%d): %d sites, %d regions\n", d.Name, d.ASN, len(d.Sites), len(d.Regions))
		for _, r := range d.Regions {
			sites := d.SitesOfRegion(r.Name)
			cities := make([]string, 0, len(sites))
			for _, s := range sites {
				cities = append(cities, s.City)
			}
			fmt.Fprintf(out, "  %-8s %-18s VIP %-15s sites: %v\n", r.Name, r.Prefix.String(), r.VIP, cities)
		}
	}
}

func catchment(out io.Writer, w *worldgen.World, host string) {
	counts := map[geo.Area]map[string]int{}
	for _, p := range w.Platform.Retained() {
		addr, ok := w.Measurer.ResolveHost(w.Auth, host, p, atlas.LDNS)
		if !ok {
			continue
		}
		prefix := netip.PrefixFrom(addr, 24).Masked()
		fwd, ok := w.Engine.Lookup(prefix, p.ASN, p.City)
		if !ok {
			continue
		}
		if counts[p.Area()] == nil {
			counts[p.Area()] = map[string]int{}
		}
		counts[p.Area()][fwd.Site]++
	}
	for _, area := range geo.Areas {
		sites := counts[area]
		type sc struct {
			site string
			n    int
		}
		var list []sc
		for s, n := range sites {
			list = append(list, sc{s, n})
		}
		sort.Slice(list, func(i, j int) bool { return list[i].n > list[j].n })
		fmt.Fprintf(out, "%s:", area)
		for i, e := range list {
			if i == 8 {
				fmt.Fprintf(out, " …")
				break
			}
			fmt.Fprintf(out, " %s:%d", e.site, e.n)
		}
		fmt.Fprintln(out)
	}
}

func probe(out io.Writer, w *worldgen.World, groupKey, host string) error {
	found := false
	for _, p := range w.Platform.Retained() {
		if p.GroupKey() != groupKey {
			continue
		}
		found = true
		fmt.Fprintf(out, "probe %d: %s (%s, %s), AS%d, addr %v, access %.1f ms\n",
			p.ID, p.City, p.Country, p.Area(), p.ASN, p.Addr, p.AccessMs)
		for _, mode := range []atlas.DNSMode{atlas.LDNS, atlas.ADNS} {
			addr, ok := w.Measurer.ResolveHost(w.Auth, host, p, mode)
			if !ok {
				fmt.Fprintf(out, "  %-18s no answer\n", mode)
				continue
			}
			rtt, _ := w.Measurer.Ping(p, addr)
			fmt.Fprintf(out, "  %-18s %v (%.1f ms)\n", mode, addr, rtt)
			if mode == atlas.LDNS {
				if tr, ok := w.Measurer.Traceroute(p, addr); ok && tr.Reached {
					for i, h := range tr.Hops {
						owner := "IXP " + h.IXP
						if h.Owner != 0 {
							owner = h.Owner.String()
						}
						fmt.Fprintf(out, "    %2d  %-15v %-10s %6.1f ms  %s\n", i+1, h.Addr, owner, h.RTTMs, h.RDNS)
					}
					fmt.Fprintf(out, "    %2d  %-15v (site %s)\n", len(tr.Hops)+1, tr.Dest, tr.Fwd.Site)
				}
			}
		}
	}
	if !found {
		return fmt.Errorf("no probe with group key %q (format CITY|ASN, e.g. FRA|10042)", groupKey)
	}
	return nil
}

func routes(out io.Writer, w *worldgen.World, asnStr, vipStr string) error {
	asn64, err := strconv.ParseUint(asnStr, 10, 32)
	if err != nil {
		return fmt.Errorf("bad ASN %q", asnStr)
	}
	vip, err := netip.ParseAddr(vipStr)
	if err != nil {
		return fmt.Errorf("bad address %q", vipStr)
	}
	var prefix netip.Prefix
	for _, p := range w.Engine.Prefixes() {
		if p.Contains(vip) {
			prefix = p
		}
	}
	if !prefix.IsValid() {
		return fmt.Errorf("%v is not inside any announced prefix", vip)
	}
	cls, rts, ok := w.Engine.Routes(prefix, topo.ASN(asn64))
	if !ok {
		return fmt.Errorf("AS%d has no route to %v", asn64, prefix)
	}
	fmt.Fprintf(out, "AS%d routes to %v (class %s):\n", asn64, prefix, cls)
	for _, r := range rts {
		fmt.Fprintf(out, "  via %-8v handoff %-4s site %-5s downstream %6.0f km  path %v\n",
			r.Path[0], r.Handoff(), r.Site, r.DownKm, r.Path)
	}
	return nil
}

// explainArgs are the parsed flags of the explain subcommand.
type explainArgs struct {
	asn    uint64
	prefix string
	group  string
	json   bool
}

// parseExplain parses the explain subcommand's flags. It returns nil and an
// exit code on error.
func parseExplain(args []string, stderr io.Writer) (*explainArgs, int) {
	efs := flag.NewFlagSet("anysim explain", flag.ContinueOnError)
	efs.SetOutput(stderr)
	var ea explainArgs
	efs.Uint64Var(&ea.asn, "asn", 0, "AS to explain (with -prefix)")
	efs.StringVar(&ea.prefix, "prefix", "", "anycast prefix or VIP address (with -asn)")
	efs.StringVar(&ea.group, "group", "", "probe group key CITY|ASN to explain the catchment of (uses -dep)")
	efs.BoolVar(&ea.json, "json", false, "render stable-key JSON instead of text")
	if err := efs.Parse(args); err != nil {
		return nil, exitUsage
	}
	byGroup := ea.group != ""
	byRoute := ea.asn != 0 || ea.prefix != ""
	if efs.NArg() != 0 || byGroup == byRoute || (byRoute && (ea.asn == 0 || ea.prefix == "")) {
		fmt.Fprintln(stderr, "usage: anysim explain [-json] -group CITY|ASN\n       anysim explain [-json] -asn N -prefix P")
		return nil, exitUsage
	}
	return &ea, exitOK
}

// explain runs the looking glass: either one AS's decision chain toward a
// prefix (-asn/-prefix) or a probe group's full catchment explanation with
// pathology class (-group).
func explain(out io.Writer, w *worldgen.World, depName string, ea *explainArgs) error {
	if ea.group != "" {
		d, err := deploymentByName(w, depName)
		if err != nil {
			return err
		}
		ce, err := glass.ExplainCatchment(w.Engine, d, w.Measurer, w.Platform.Retained(), ea.group)
		if err != nil {
			return err
		}
		return renderGlass(out, ce, ce.Text, ea.json)
	}
	prefix, err := resolvePrefix(w, ea.prefix)
	if err != nil {
		return err
	}
	e, err := glass.Explain(w.Engine, topo.ASN(ea.asn), prefix)
	if err != nil {
		return err
	}
	return renderGlass(out, e, e.Text, ea.json)
}

// renderGlass writes a glass value as JSON or via its text renderer.
func renderGlass(out io.Writer, v any, text func() string, jsonOut bool) error {
	if jsonOut {
		s, err := glass.JSON(v)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, s)
		return err
	}
	_, err := io.WriteString(out, text())
	return err
}

// resolvePrefix accepts an announced prefix or a bare VIP address.
func resolvePrefix(w *worldgen.World, s string) (netip.Prefix, error) {
	if p, err := netip.ParsePrefix(s); err == nil {
		return p, nil
	}
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("bad prefix or address %q", s)
	}
	for _, p := range w.Engine.Prefixes() {
		if p.Contains(addr) {
			return p, nil
		}
	}
	return netip.Prefix{}, fmt.Errorf("%v is not inside any announced prefix", addr)
}

// diffCmd compares two JSONL trace files. It needs no world: the traces
// carry their own identity (schema, seed, world hash) in the header line,
// and incomparable runs are refused. Diverging event streams exit nonzero.
func diffCmd(args []string, stdout, stderr io.Writer) int {
	dfs := flag.NewFlagSet("anysim diff", flag.ContinueOnError)
	dfs.SetOutput(stderr)
	jsonOut := dfs.Bool("json", false, "render stable-key JSON instead of text")
	if err := dfs.Parse(args); err != nil {
		return exitUsage
	}
	if dfs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: anysim diff [-json] <traceA> <traceB>")
		return exitUsage
	}
	fa, err := os.Open(dfs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "anysim: %v\n", err)
		return exitError
	}
	defer fa.Close()
	fb, err := os.Open(dfs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "anysim: %v\n", err)
		return exitError
	}
	defer fb.Close()
	d, err := glass.DiffTraces(fa, fb)
	if err != nil {
		fmt.Fprintf(stderr, "anysim: %v\n", err)
		return exitError
	}
	if err := renderGlass(stdout, d, d.Text, *jsonOut); err != nil {
		fmt.Fprintf(stderr, "anysim: %v\n", err)
		return exitError
	}
	if !d.Identical {
		return exitError
	}
	return exitOK
}

// deploymentByName resolves the -dep flag.
func deploymentByName(w *worldgen.World, name string) (*cdn.Deployment, error) {
	deps := map[string]*cdn.Deployment{
		"eg3": w.Edgio.EG3, "eg4": w.Edgio.EG4,
		"im6": w.Imperva.IM6, "ns": w.Imperva.NS,
		"tangled": w.Tangled.Global,
	}
	d, ok := deps[name]
	if !ok {
		return nil, fmt.Errorf("unknown deployment %q (want eg3, eg4, im6, ns, or tangled)", name)
	}
	return d, nil
}

// serveArgs are the parsed flags of the serve subcommand, plus the global
// flight-recorder settings (-slo, -seriesfile) run threads through.
type serveArgs struct {
	listen     string
	checkpoint string
	restore    string
	sloRules   []ts.Rule
	seriesFile string
}

// recorderArgs arm the scenario subcommand's flight recorder: the SLO rules
// to evaluate (nil = defaults) and the dump file to write ("" = none).
type recorderArgs struct {
	rules []ts.Rule
	file  string
}

// parseServe parses the serve subcommand's flags. It returns nil and an
// exit code on error.
func parseServe(args []string, stderr io.Writer) (*serveArgs, int) {
	sfs := flag.NewFlagSet("anysim serve", flag.ContinueOnError)
	sfs.SetOutput(stderr)
	var sa serveArgs
	sfs.StringVar(&sa.listen, "listen", "127.0.0.1:0", "HTTP listen address for the query API")
	sfs.StringVar(&sa.checkpoint, "checkpoint", "", "default checkpoint path: POST /checkpoint and graceful shutdown write here; POST /checkpoint?path=NAME writes the bare file NAME in the same directory")
	sfs.StringVar(&sa.restore, "restore", "", "checkpoint file to restore before serving (refused unless seed, world hash, and deployment match)")
	if err := sfs.Parse(args); err != nil {
		return nil, exitUsage
	}
	if sfs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: anysim serve [-listen A] [-checkpoint F] [-restore F]")
		return nil, exitUsage
	}
	return &sa, exitOK
}

// syncWriter serializes serve's log lines: the banner, the per-event ingest
// log, and the shutdown notice come from different goroutines but share one
// stream.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// serveCmd keeps the world resident. Events stream in over stdin and POST
// /events; queries read published snapshots and never block ingest. SIGTERM
// or SIGINT shuts down gracefully: in-flight queries drain, the default
// checkpoint (if configured) is written, and the caller's sink teardown then
// flushes metrics and the trace. stdin is an event source, not a lifetime —
// EOF (an empty or redirected stdin) leaves the server on the HTTP API
// alone, while a malformed stdin line is fatal with exit code 4.
func serveCmd(stderr io.Writer, w *worldgen.World, depName string, sa *serveArgs) error {
	d, err := deploymentByName(w, depName)
	if err != nil {
		return err
	}
	cfg := server.Config{World: w, Dep: d, CheckpointPath: sa.checkpoint, Series: ts.Config{Rules: sa.sloRules}}
	if sa.restore != "" {
		cp, err := server.ReadCheckpoint(sa.restore)
		if err != nil {
			return err
		}
		cfg.Restore = cp
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", sa.listen)
	if err != nil {
		return err
	}
	out := &syncWriter{w: stderr}
	st := s.Current()
	fmt.Fprintf(out, "anysim: serving %s on http://%s/ (tick %d, %d events)\n",
		d.Name, ln.Addr(), st.Tick, s.EventsApplied())

	// The handler is installed before the API answers its first query, so a
	// supervisor that signals as soon as the port is up is never missed.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	hs := &http.Server{Handler: s.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	ingestErr := make(chan error, 1)
	dec := dynamics.NewDecoder(stdin)
	go func() {
		for {
			ev, err := dec.Next()
			if err == io.EOF {
				ingestErr <- nil
				return
			}
			if err != nil {
				ingestErr <- err
				return
			}
			res, err := s.Apply(ev)
			if err != nil {
				ingestErr <- err
				return
			}
			fmt.Fprintf(out, "anysim: applied %s: seq %d, tick %d, %d dirty\n",
				res.Event, res.Seq, res.Tick, res.Dirty)
		}
	}()

	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx) // drains in-flight queries
	}
	for {
		select {
		case sig := <-sigc:
			fmt.Fprintf(out, "anysim: %v: draining queries and shutting down\n", sig)
			if err := shutdown(); err != nil {
				return err
			}
			if sa.checkpoint != "" {
				if _, err := s.WriteCheckpoint(sa.checkpoint); err != nil {
					return err
				}
				fmt.Fprintf(out, "anysim: checkpoint written to %s\n", sa.checkpoint)
			}
			if sa.seriesFile != "" {
				if err := os.WriteFile(sa.seriesFile, s.Series().AppendJSON(nil), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(out, "anysim: flight recording written to %s\n", sa.seriesFile)
			}
			return nil
		case err := <-httpErr:
			return fmt.Errorf("http: %w", err)
		case err := <-ingestErr:
			if err != nil {
				shutdown() //nolint:errcheck // the ingest error is the one to report
				return fmt.Errorf("stdin ingest: %w", err)
			}
			ingestErr = nil // EOF: keep serving on the HTTP API
		}
	}
}

func scenario(out io.Writer, w *worldgen.World, depName, file string, reg *obs.Registry, tracer *obs.Tracer, rec *recorderArgs) error {
	d, err := deploymentByName(w, depName)
	if err != nil {
		return err
	}
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := dynamics.Parse(f)
	if err != nil {
		return err
	}

	r := dynamics.NewRunner(w.Engine, d)
	r.Measurer = w.Measurer
	r.Probes = w.Platform.Retained()
	r.Instrument(reg, tracer)

	// -slo/-seriesfile arm the flight recorder: every step samples the load
	// trajectory and evaluates the SLO rules, the alert timeline prints
	// after the step table, and the dump (if requested) feeds anysim report.
	var db *ts.DB
	if rec != nil {
		db = ts.New(ts.Config{Rules: rec.rules})
		db.Instrument(reg, tracer)
		model := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
		r.Series = db
		r.Eval = traffic.NewEvaluator(w.Engine, d, model, traffic.CapacityConfig{})
		r.Model = model
	}

	fmt.Fprintf(out, "scenario %s on %s (AS%d, %d prefixes)\n", sc.Name, d.Name, d.ASN, len(r.Prefixes()))
	pre := r.ProbeViews()
	steps, err := r.Run(sc)
	if err != nil {
		return err
	}
	for _, st := range steps {
		mode := "incremental"
		if st.Stats.Full {
			mode = "full"
		}
		fmt.Fprintf(out, "%-32s moved %4d  lost %4d  gained %4d  blast %6.2f%%  (%s: %d dirty, %d passes)\n",
			st.Event, st.Churn.Moved, st.Churn.Lost, st.Churn.Gained,
			100*st.Churn.ChangedFraction(), mode, st.Stats.Dirty, st.Stats.Passes)
	}
	post := r.ProbeViews()
	changed, total := r.GroupChurn(pre, post)
	fmt.Fprintf(out, "net effect: %d/%d probe groups changed service", changed, total)
	if pens := dynamics.Penalties(pre, post); len(pens) > 0 {
		sort.Float64s(pens)
		fmt.Fprintf(out, ", median residual RTT delta %.1f ms", pens[len(pens)/2])
	}
	fmt.Fprintln(out)

	if db != nil {
		if hist := db.History(); len(hist) > 0 {
			fmt.Fprintln(out, "\nSLO alert timeline:")
			for _, tr := range hist {
				fmt.Fprintf(out, "  tick %-4d %-9s %s (%s = %.4g, threshold %g)\n",
					tr.Tick, tr.State, tr.Rule, tr.Series, tr.Value, tr.Threshold)
			}
		} else {
			fmt.Fprintln(out, "\nSLO alert timeline: no transitions")
		}
		if rec.file != "" {
			if err := os.WriteFile(rec.file, db.AppendJSON(nil), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "flight recording written to %s\n", rec.file)
		}
	}
	return nil
}

// load prints a deployment's per-site demand and utilization under the
// seeded traffic model. With no bucket argument it summarizes the whole
// day and details the peak bucket; with one it details that bucket.
func load(out io.Writer, w *worldgen.World, depName string, bucket int, reg *obs.Registry) error {
	d, err := deploymentByName(w, depName)
	if err != nil {
		return err
	}
	model := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
	if bucket >= model.Buckets() {
		return fmt.Errorf("bucket %d outside [0,%d)", bucket, model.Buckets())
	}
	ev := traffic.NewEvaluator(w.Engine, d, model, traffic.CapacityConfig{})
	ev.Instrument(reg)

	fmt.Fprintf(out, "%s under the seeded demand model: %d probe groups, %.0f req/s day-mean\n\n",
		d.Name, len(model.Groups), model.TotalBase())

	// Day summary: each bucket's aggregate demand and worst site.
	fmt.Fprintln(out, "bucket  UTC      demand     max util  overloaded")
	peak, peakUtil := 0, -1.0
	reports := make([]*traffic.LoadReport, model.Buckets())
	for b := 0; b < model.Buckets(); b++ {
		mat := model.Matrix(b)
		rep := ev.Evaluate(mat)
		reports[b] = rep
		u := rep.MaxUtilization()
		if u > peakUtil {
			peak, peakUtil = b, u
		}
		h := b * 24 / model.Buckets()
		fmt.Fprintf(out, "%-7d %02d-%02dh   %9.0f  %8.2f  %d\n",
			b, h, h+24/model.Buckets(), mat.Total, u, len(rep.Overloads()))
	}
	if bucket < 0 {
		bucket = peak
	}
	rep := reports[bucket]

	fmt.Fprintf(out, "\nper-site load at bucket %d:\n", bucket)
	fmt.Fprintln(out, "site   city  tier   capacity     demand   groups   util")
	sites := append([]traffic.SiteLoad(nil), rep.Sites...)
	sort.Slice(sites, func(i, j int) bool { return sites[i].Utilization() > sites[j].Utilization() })
	for _, s := range sites {
		mark := ""
		if s.Overloaded() {
			mark = "  OVERLOADED"
		}
		fmt.Fprintf(out, "%-6s %-5s %-5s %10.0f %10.0f   %6d   %4.2f%s\n",
			s.Site, s.City, s.Tier, s.Capacity, s.Demand, s.Groups, s.Utilization(), mark)
	}
	if rep.Unserved > 0 {
		fmt.Fprintf(out, "unserved demand: %.0f req/s\n", rep.Unserved)
	}

	points := make([]asciimap.HeatPoint, 0, len(rep.Sites))
	for _, s := range rep.Sites {
		points = append(points, asciimap.HeatPoint{
			Coord: geo.MustCity(s.City).Coord,
			Value: s.Utilization(),
		})
	}
	m := asciimap.New(100, 22)
	m.Plot(asciimap.HeatMarkers(points))
	fmt.Fprintf(out, "\nutilization at bucket %d:\n%s%s", bucket, m.String(), asciimap.HeatLegend())
	return nil
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `usage: anysim [-seed N] [-small] [-policy F] [-cpuprofile F] [-memprofile F]
              [-metrics F|-] [-tracefile F] [-wallmetrics] [-debug-addr A] <subcommand>
  deployments              list deployments, regions, and VIPs
  catchment <host>         per-area catchment histogram for a hostname
  probe <groupKey> <host>  one probe group's measurements (key: CITY|ASN)
  routes <asn> <vip>       an AS's selected routes toward a VIP
  explain [-json] -asn N -prefix P | -group CITY|ASN
                           looking glass: the provenance-justified decision
                           chain (per-AS, or a probe group's catchment with
                           pathology class against -dep)
  diff [-json] <a> <b>     compare two JSONL traces; refuses incompatible
                           runs, exits 1 when the event streams diverge
  profile [-top N] [-chrome F] <trace.jsonl>
                           aggregate a trace's spans into a self-time table
                           (run with -wallmetrics for wall timings); -chrome
                           exports a Perfetto-loadable trace-event file
  report [-width N] <series.json>
                           render a flight recording (written with
                           -seriesfile) as a health report: per-site
                           utilization sparklines, SLO verdicts, and the
                           alert timeline (no world built)
  scenario <file>          replay a fault scenario against -dep (default im6);
                           with -slo/-seriesfile the flight recorder samples
                           the load trajectory each step and prints the SLO
                           alert timeline
  load [bucket]            per-site demand and utilization for -dep
                           (default: the peak bucket)
  serve [-listen A] [-checkpoint F] [-restore F]
                           keep the world resident for -dep: ingest dynamics
                           events from stdin and POST /events, answer live
                           queries (/status /catchment /load /explain /diff
                           /timeseries /alerts /metrics /metrics.prom
                           /healthz, SSE /watch) from consistent snapshots,
                           advance the demand clock via POST /advance, and
                           checkpoint/restore the full simulation state;
                           SIGTERM drains queries, checkpoints (if
                           -checkpoint), writes the flight recording (if
                           -seriesfile), and flushes sinks before exiting
exit codes: 0 success; 1 runtime error (including diverging traces under
diff and failed -tracefile sinks); 2 usage error; 3 routing non-termination
(a policy dispute drove the BGP solver past its iteration bound); 4 event
stream decode failure (serve's stdin held a line the dynamics DSL/JSONL
decoder rejects; the error names the line)
-cpuprofile/-memprofile write pprof profiles of the subcommand (world
construction excluded), e.g.: anysim -small -cpuprofile cpu.out load
-metrics writes a deterministic JSON metrics snapshot after the run ("-"
for stdout); -wallmetrics adds nondeterministic wall-clock timings to it.
-tracefile writes a JSONL stream of simulation events keyed to simulation
clocks; with -wallmetrics its spans also carry wall timings, which anysim
profile aggregates. -debug-addr serves expvar, pprof, /metrics, and
/metrics.prom over HTTP while the run executes, e.g.:
anysim -small -debug-addr localhost:6060 load
-policy installs a community/filter policy (see internal/policy) on the
routing engine; the policy hash joins the trace-header and checkpoint
identity, so diff and restore refuse runs under a different policy.
-slo arms the flight recorder's SLO rules from a file (one rule per line,
e.g. "slo eu: region.latency.p90{region=EMEA} > 40ms for 3 ticks");
-seriesfile writes the tick-keyed recording (series, rules, alert history)
after scenario and serve runs, for anysim report.`)
}
