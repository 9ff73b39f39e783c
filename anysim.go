// Package anysim is the public facade of the regional IP anycast
// reproduction: a deterministic Internet simulator (AS-level Gao-Rexford
// policy routing, IXPs with route-server and public peering, a geographic
// latency model, geolocating DNS, and a RIPE-Atlas-like probe platform)
// plus the measurement and analysis methodology of "Regional IP Anycast:
// Deployments, Performance, and Potentials" (ACM SIGCOMM 2023).
//
// Typical use:
//
//	world, err := anysim.NewWorld(anysim.Config{Seed: 7})
//	ctx := anysim.NewExperimentContext(world)
//	reports, err := anysim.RunAllExperiments(ctx)
//
// or, for custom studies, drive the layers directly: world.Engine for
// routing lookups, world.Measurer for pings and traceroutes, and the
// analysis helpers re-exported below.
package anysim

import (
	"io"
	"net/netip"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/core"
	"anysim/internal/dynamics"
	"anysim/internal/experiments"
	"anysim/internal/geo"
	"anysim/internal/glass"
	"anysim/internal/obs/ts"
	"anysim/internal/reopt"
	"anysim/internal/server"
	"anysim/internal/sitemap"
	"anysim/internal/topo"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// World construction.
type (
	// Config parameterises world construction; the zero value (plus a
	// seed) builds the full-scale paper world.
	Config = worldgen.Config
	// World is a fully-wired simulated Internet with the paper's content
	// networks deployed.
	World = worldgen.World
)

// NewWorld builds a world from a config.
func NewWorld(cfg Config) (*World, error) { return worldgen.New(cfg) }

// DefaultWorld builds the full-scale canonical paper world (seed 2023).
func DefaultWorld() (*World, error) { return worldgen.Default() }

// SmallWorld builds a reduced-scale world for quick experiments.
func SmallWorld(seed int64) (*World, error) { return worldgen.Small(seed) }

// Representative customer hostnames (§4.3).
const (
	RepresentativeEdgio3   = worldgen.RepEG3
	RepresentativeEdgio4   = worldgen.RepEG4
	RepresentativeImperva6 = worldgen.RepIM6
)

// Geography.
type (
	// Area is one of the paper's four probe areas.
	Area = geo.Area
)

// The paper's probe areas.
const (
	EMEA  = geo.EMEA
	NA    = geo.NA
	LatAm = geo.LatAm
	APAC  = geo.APAC
)

// Routing and measurement types.
type (
	// Forward is an anycast catchment decision.
	Forward = bgp.Forward
	// Probe is one measurement vantage point.
	Probe = atlas.Probe
	// Trace is a traceroute result.
	Trace = atlas.Trace
	// DNSMode selects the Local-DNS or Authoritative-DNS configuration.
	DNSMode = atlas.DNSMode
	// Deployment is a content network's anycast deployment.
	Deployment = cdn.Deployment
)

// DNS measurement modes.
const (
	LDNS = atlas.LDNS
	ADNS = atlas.ADNS
)

// Campaigns and analyses (the paper's §5 methodology).
type (
	// CampaignResult is one hostname measured from every probe.
	CampaignResult = core.Result
	// Measurement is one probe's record within a campaign.
	Measurement = core.Measurement
	// ProbeGroup is a <city, AS> probe group.
	ProbeGroup = core.Group
	// MappingEfficiency is a Table-2 style DNS-mapping classification.
	MappingEfficiency = core.MappingEfficiency
	// Comparison is the §5.3 regional-vs-global pairing.
	Comparison = core.Comparison
	// CauseBreakdown is the §5.4 cause classification.
	CauseBreakdown = core.CauseBreakdown
)

// RunCampaign measures one hostname of a deployment from the given probes.
func RunCampaign(w *World, dep *Deployment, host string, probes []*Probe) *CampaignResult {
	return core.RunCampaign(w.Measurer, w.Auth, dep, host, probes, core.DefaultCampaignConfig())
}

// AnalyzeDNSMapping classifies a campaign's probe groups per Table 2.
func AnalyzeDNSMapping(res *CampaignResult, mode DNSMode) *MappingEfficiency {
	return core.AnalyzeDNSMapping(res, mode)
}

// CompareRegionalGlobal pairs a regional campaign against a global one
// after the §5.3 site/peer overlap filtering.
func CompareRegionalGlobal(w *World, regional, global *CampaignResult, mode DNSMode) (*Comparison, error) {
	overlap, err := core.ComputeOverlap(w.Topo, regional.Deployment, global.Deployment)
	if err != nil {
		return nil, err
	}
	return core.CompareRegionalGlobal(regional, global, mode, overlap), nil
}

// Site enumeration (§4.4 / Appendix B).
type (
	// EnumerationResult is a site-enumeration outcome with per-technique
	// attribution.
	EnumerationResult = sitemap.Result
)

// EnumerateSites runs the p-hop geolocation pipeline over traceroutes.
func EnumerateSites(w *World, network string, traces []*Trace, published []string) *EnumerationResult {
	return sitemap.Enumerate(network, traces, published, sitemap.DefaultConfig(w.GeoDBs))
}

// ReOpt (§6.1).
type (
	// ReOptSweep is the outcome of the latency-based partition sweep.
	ReOptSweep = reopt.Sweep
	// ReOptCandidate is one evaluated partition.
	ReOptCandidate = reopt.Candidate
)

// RunReOpt executes the ReOpt partition sweep on the world's Tangled
// testbed.
func RunReOpt(w *World, seed int64) (*ReOptSweep, error) {
	return reopt.Run(w.Engine, w.Measurer, w.Tangled, w.Platform.Retained(), reopt.Config{Seed: seed})
}

// Routing dynamics and fault injection (extension X2).
type (
	// Scenario is a schedule of fault and repair events, writable in a
	// line-oriented DSL (see ParseScenario) or generated from a seed.
	Scenario = dynamics.Scenario
	// FaultEvent is one scheduled routing event (site, link, or IXP).
	FaultEvent = dynamics.Event
	// ScenarioRunner applies scenarios to one deployment through the
	// engine's incremental reconvergence API, measuring catchment churn.
	ScenarioRunner = dynamics.Runner
	// ScenarioStep is one applied event with its churn and solver stats.
	ScenarioStep = dynamics.Step
	// ChurnStats aggregates per-AS catchment changes across an event.
	ChurnStats = dynamics.ChurnStats
	// ScenarioGenConfig parameterises the seeded fault-schedule generator.
	ScenarioGenConfig = dynamics.GenConfig
)

// NewScenarioRunner wires a runner for one of the world's deployments,
// with probe-level analyses enabled.
func NewScenarioRunner(w *World, dep *Deployment) *ScenarioRunner {
	r := dynamics.NewRunner(w.Engine, dep)
	r.Measurer = w.Measurer
	r.Probes = w.Platform.Retained()
	return r
}

// ParseScenario reads a scenario from its DSL text.
func ParseScenario(text string) (*Scenario, error) { return dynamics.ParseString(text) }

// GenerateScenario builds a deterministic fault schedule for a deployment.
func GenerateScenario(w *World, dep *Deployment, cfg ScenarioGenConfig) (*Scenario, error) {
	return dynamics.Generate(cfg, w.Topo, dep)
}

// FailoverPenalties extracts per-probe RTT deltas between two probe views.
func FailoverPenalties(pre, post []dynamics.View) []float64 {
	return dynamics.Penalties(pre, post)
}

// Traffic load and steering (extension X3).
type (
	// DemandConfig seeds the per-probe-group demand model.
	DemandConfig = traffic.DemandConfig
	// DemandModel is a deterministic day of client demand: Zipf-skewed
	// group popularity with a longitude-keyed diurnal cycle.
	DemandModel = traffic.Model
	// DemandMatrix is one time bucket's request rate per probe group.
	DemandMatrix = traffic.Matrix
	// CapacityConfig derives per-site serving capacity from the Table-1
	// site tiers and the baseline diurnal peak.
	CapacityConfig = traffic.CapacityConfig
	// LoadEvaluator computes the catchment × demand product for a
	// deployment under the engine's current routing state.
	LoadEvaluator = traffic.Evaluator
	// LoadReport is per-site demand, capacity, and utilization for one
	// demand matrix.
	LoadReport = traffic.LoadReport
	// SiteLoad is one site's load state within a report.
	SiteLoad = traffic.SiteLoad
	// SteeringConfig bounds the steering loop and selects which BGP
	// knobs it may use.
	SteeringConfig = traffic.SteeringConfig
	// Steerer resolves site overload with BGP-level actions (prepending,
	// selective announcement, cross-announcement), restorable via Reset.
	Steerer = traffic.Steerer
	// SteeringResult is the action log plus the initial and final loads.
	SteeringResult = traffic.SteeringResult
	// SteeringAction is one applied BGP knob with its measured effect.
	SteeringAction = traffic.Action
)

// NewDemandModel builds the seeded demand model over the world's retained
// probe groups. A zero cfg.Seed inherits the world's seed, so demand is
// reproducible alongside everything else.
func NewDemandModel(w *World, cfg DemandConfig) *DemandModel {
	if cfg.Seed == 0 {
		cfg.Seed = w.Config.Seed
	}
	return traffic.NewModel(w.Platform, cfg)
}

// NewLoadEvaluator derives site capacities for a deployment against the
// current (baseline) routing state and returns the load evaluator. Build
// it before steering or faults perturb the catchments.
func NewLoadEvaluator(w *World, dep *Deployment, m *DemandModel, cfg CapacityConfig) *LoadEvaluator {
	return traffic.NewEvaluator(w.Engine, dep, m, cfg)
}

// NewSteerer returns a steering engine over the evaluator's deployment. It
// snapshots the evaluator's routing engine as it stands — build it on the
// deployment's plan state — and Steerer.Reset returns the engine to that
// snapshot.
func NewSteerer(ev *LoadEvaluator, cfg SteeringConfig) *Steerer {
	return traffic.NewSteerer(ev, cfg)
}

// LoadPenaltyMs converts a site utilization into the excess serving
// latency its clients see (zero below the soft-utilization knee).
func LoadPenaltyMs(utilization, softUtil float64) float64 {
	return traffic.PenaltyMs(utilization, softUtil)
}

// Looking glass: route provenance and catchment diffs (extension X4).
// Provenance recording must be on (Config.Provenance, or the engine's
// SetProvenance plus re-announcement) for explanations to carry decision
// records.
type (
	// RouteExplanation is one AS's provenance-justified decision chain to
	// its serving site.
	RouteExplanation = glass.Explanation
	// CatchmentExplanation is one probe group's catchment with the paper's
	// pathology classification.
	CatchmentExplanation = glass.CatchmentExplanation
	// CatchmentPathology is the inefficiency taxonomy (§2.1, §5.4).
	CatchmentPathology = glass.Pathology
	// CatchmentSet is a full captured catchment state, the input to diffs.
	CatchmentSet = glass.CatchmentSet
	// CatchmentDiff is the classified churn between two captures, with a
	// cause attributed to every moved group.
	CatchmentDiff = glass.DiffReport
	// TraceDiff is the structural comparison of two JSONL trace runs.
	TraceDiff = glass.TraceDiff
)

// ExplainRoute returns the decision chain from an AS to its serving site.
func ExplainRoute(w *World, asn uint32, prefix netip.Prefix) (RouteExplanation, error) {
	return glass.Explain(w.Engine, topo.ASN(asn), prefix)
}

// ExplainCatchment explains where a <city,AS> probe group (key "CITY|ASN")
// of a deployment lands and why.
func ExplainCatchment(w *World, dep *Deployment, group string) (CatchmentExplanation, error) {
	return glass.ExplainCatchment(w.Engine, dep, w.Measurer, w.Platform.Retained(), group)
}

// CaptureCatchments snapshots every probe group's catchment of a deployment.
func CaptureCatchments(w *World, dep *Deployment) (CatchmentSet, error) {
	return glass.Capture(w.Engine, dep, w.Measurer, w.Platform.Retained())
}

// DiffCatchments attributes a cause to every group that moved between two
// captures of the same deployment.
func DiffCatchments(before, after CatchmentSet) (CatchmentDiff, error) {
	return glass.Diff(before, after)
}

// DiffTraces compares two JSONL trace runs, refusing incompatible ones.
func DiffTraces(a, b io.Reader) (TraceDiff, error) { return glass.DiffTraces(a, b) }

// The always-on twin (extension X5): a resident simulation that ingests
// dynamics events incrementally, re-binds demand as its virtual clock
// advances, serves consistent-snapshot queries over HTTP, and checkpoints/
// restores its full state bit-identically. `anysim serve` is this server
// behind a CLI.
type (
	// AnycastServer is the resident simulation server.
	AnycastServer = server.Server
	// ServerConfig wires a server to a world and deployment; Restore
	// resumes from a checkpoint.
	ServerConfig = server.Config
	// ServerState is one immutable published snapshot (engine fork, load
	// report, clock) that queries read.
	ServerState = server.State
	// ServerApplyResult reports one ingested event's effect.
	ServerApplyResult = server.ApplyResult
	// ServerCheckpoint is the serialized full state of a server, tagged
	// with the world's identity; incompatible restores are refused.
	ServerCheckpoint = server.Checkpoint
)

// NewServer builds a resident simulation server. The world must have been
// built with provenance recording (Config.Provenance) for the /explain and
// /diff queries.
func NewServer(cfg ServerConfig) (*AnycastServer, error) { return server.New(cfg) }

// ReadServerCheckpoint loads a checkpoint file for ServerConfig.Restore.
func ReadServerCheckpoint(path string) (*ServerCheckpoint, error) {
	return server.ReadCheckpoint(path)
}

// The flight recorder: tick-keyed ring-buffer time series plus the SLO
// rule engine behind `anysim serve`'s /timeseries and /alerts endpoints
// and `anysim report`.
type (
	// TimeSeriesDB records tick-keyed series and evaluates SLO rules;
	// nil is a valid disabled recorder.
	TimeSeriesDB = ts.DB
	// TimeSeriesConfig sizes a recorder and arms its rules.
	TimeSeriesConfig = ts.Config
	// SLORule is one declarative threshold condition over a series.
	SLORule = ts.Rule
	// SLOAlert is one rule's active (pending or firing) alert.
	SLOAlert = ts.Alert
	// SLOTransition records one alert lifecycle change.
	SLOTransition = ts.Transition
)

// NewTimeSeriesDB builds a flight recorder. Attach it to a ScenarioRunner
// (Series and Eval fields) or pass rules via ServerConfig.Series.
func NewTimeSeriesDB(cfg TimeSeriesConfig) *TimeSeriesDB { return ts.New(cfg) }

// ParseSLORule parses one rule line, e.g.
// "slo eu: region.latency.p90{region=EMEA} > 40ms for 3 ticks".
func ParseSLORule(line string) (SLORule, error) { return ts.ParseRule(line) }

// Experiments (every table and figure).
type (
	// ExperimentContext memoizes shared measurement campaigns.
	ExperimentContext = experiments.Context
	// ExperimentReport is one experiment's rendered output plus data.
	ExperimentReport = experiments.Report
	// Experiment is one reproducible table or figure.
	Experiment = experiments.Experiment
)

// NewExperimentContext wraps a world for experiment execution.
func NewExperimentContext(w *World) *ExperimentContext { return experiments.NewContext(w) }

// Experiments lists every table and figure experiment in paper order.
func Experiments() []Experiment { return experiments.All() }

// RunAllExperiments regenerates every table and figure.
func RunAllExperiments(ctx *ExperimentContext) ([]*ExperimentReport, error) {
	return experiments.RunAll(ctx)
}
