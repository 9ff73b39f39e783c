// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated world. Each experiment has a stable ID
// (T1-T6 for tables, F1-F8 for figures, S54 for the §5.4 case study),
// returns typed data plus a rendered text report, and is driven by a
// memoizing Context so shared measurement campaigns run once.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"anysim/internal/atlas"
	"anysim/internal/cdn"
	"anysim/internal/cdnfinder"
	"anysim/internal/core"
	"anysim/internal/reopt"
	"anysim/internal/sitemap"
	"anysim/internal/stats"
	"anysim/internal/worldgen"
)

// Context carries the world and memoized intermediate results.
type Context struct {
	World *worldgen.World

	campaigns map[string]*core.Result
	traces    map[string][]*atlas.Trace
	enums     map[string]*sitemap.Result
	overlap   *core.OverlapSpec
	cmp       *core.Comparison
	sweep     *reopt.Sweep
	census    *cdnfinder.Census
	nsHost    string
}

// NewContext wraps a world.
func NewContext(w *worldgen.World) *Context {
	return &Context{
		World:     w,
		campaigns: map[string]*core.Result{},
		traces:    map[string][]*atlas.Trace{},
		enums:     map[string]*sitemap.Result{},
	}
}

// Campaign runs (or returns the cached) measurement campaign for a
// deployment + hostname.
func (c *Context) Campaign(dep *cdn.Deployment, host string) *core.Result {
	key := dep.Name + "|" + host
	if r, ok := c.campaigns[key]; ok {
		return r
	}
	r := core.RunCampaign(c.World.Measurer, c.World.Auth, dep, host, c.World.Platform.Retained(), core.DefaultCampaignConfig())
	c.campaigns[key] = r
	return r
}

// NSHost returns the synthetic hostname standing in for direct measurement
// of Imperva's DNS global anycast VIP.
func (c *Context) NSHost() string {
	if c.nsHost == "" {
		c.nsHost = "ns.imperva-sim.example"
		// Registration is idempotent (replaces the mapper).
		if err := c.World.Auth.Register(c.nsHost, c.World.Imperva.NS.Mapper(c.World.OperatorDB)); err != nil {
			panic(fmt.Sprintf("experiments: registering NS hostname: %v", err))
		}
	}
	return c.nsHost
}

// IM6 returns the Imperva-6 campaign for the representative hostname.
func (c *Context) IM6() *core.Result {
	return c.Campaign(c.World.Imperva.IM6, worldgen.RepIM6)
}

// NS returns the Imperva-NS campaign.
func (c *Context) NS() *core.Result {
	return c.Campaign(c.World.Imperva.NS, c.NSHost())
}

// EG3 returns the Edgio-3 campaign for the representative hostname.
func (c *Context) EG3() *core.Result {
	return c.Campaign(c.World.Edgio.EG3, worldgen.RepEG3)
}

// EG4 returns the Edgio-4 campaign for the representative hostname.
func (c *Context) EG4() *core.Result {
	return c.Campaign(c.World.Edgio.EG4, worldgen.RepEG4)
}

// Overlap returns the Imperva-6 / Imperva-NS overlap spec (§5.3).
func (c *Context) Overlap() *core.OverlapSpec {
	if c.overlap == nil {
		o, err := core.ComputeOverlap(c.World.Topo, c.World.Imperva.IM6, c.World.Imperva.NS)
		if err != nil {
			panic(fmt.Sprintf("experiments: overlap: %v", err))
		}
		c.overlap = o
	}
	return c.overlap
}

// Comparison returns the filtered regional-vs-global pairing (§5.3).
func (c *Context) Comparison() *core.Comparison {
	if c.cmp == nil {
		c.cmp = core.CompareRegionalGlobal(c.IM6(), c.NS(), atlas.LDNS, c.Overlap())
	}
	return c.cmp
}

// Traces returns (cached) traceroutes from every probe to every VIP of a
// deployment, the input to site enumeration.
func (c *Context) Traces(dep *cdn.Deployment) []*atlas.Trace {
	if tr, ok := c.traces[dep.Name]; ok {
		return tr
	}
	var out []*atlas.Trace
	for _, p := range c.World.Platform.Retained() {
		for _, vip := range dep.VIPs() {
			if tr, ok := c.World.Measurer.Traceroute(p, vip); ok && tr.Reached {
				out = append(out, tr)
			}
		}
	}
	c.traces[dep.Name] = out
	return out
}

// Enumeration returns the (cached) site-enumeration result for a
// deployment, against the operator's published site list.
func (c *Context) Enumeration(dep *cdn.Deployment, published []string) *sitemap.Result {
	if r, ok := c.enums[dep.Name]; ok {
		return r
	}
	cfg := sitemap.DefaultConfig(c.World.GeoDBs)
	r := sitemap.Enumerate(dep.Name, c.Traces(dep), published, cfg)
	c.enums[dep.Name] = r
	return r
}

// Sweep returns the (cached) ReOpt sweep over the Tangled testbed (§6.1).
func (c *Context) Sweep() *reopt.Sweep {
	if c.sweep == nil {
		s, err := reopt.Run(c.World.Engine, c.World.Measurer, c.World.Tangled, c.World.Platform.Retained(), reopt.Config{Seed: c.World.Config.Seed})
		if err != nil {
			panic(fmt.Sprintf("experiments: reopt: %v", err))
		}
		c.sweep = s
	}
	return c.sweep
}

// Census returns the (cached) §4.2 hostname census.
func (c *Context) Census() *cdnfinder.Census {
	if c.census == nil {
		clients := cdnfinder.ClientPrefixes(c.World.Platform.Retained())
		c.census = cdnfinder.RunCensus(c.World.Auth, c.World.Hostnames.All(), clients)
	}
	return c.census
}

// PublishedFeeds returns the IXPs that publish route-server feeds: a
// deterministic half of the world's IXPs, modelling the paper's limited
// feed visibility (§5.4).
func (c *Context) PublishedFeeds() map[string]bool {
	out := map[string]bool{}
	ixps := c.World.Topo.IXPs()
	ids := make([]string, 0, len(ixps))
	for _, ix := range ixps {
		ids = append(ids, ix.ID)
	}
	sort.Strings(ids)
	for i, id := range ids {
		if i%2 == 0 {
			out[id] = true
		}
	}
	return out
}

// Report is an experiment's output: typed data plus rendered text.
type Report struct {
	ID    string
	Title string
	Text  string
	Data  any
	// Series holds plottable curves (x, y pairs) for figure experiments,
	// keyed by series name; cmd/repro can export them as TSV for external
	// plotting.
	Series map[string][]stats.Point
}

// FileText renders the report as it is published in results/<id>.txt.
func (r *Report) FileText() string {
	return fmt.Sprintf("%s — %s\n\n%s", r.ID, r.Title, r.Text)
}

// SeriesFiles renders each of the report's curves as a two-column TSV
// (x, cumulative y), keyed by the file name it is published under in
// results/series.
func (r *Report) SeriesFiles() map[string]string {
	out := make(map[string]string, len(r.Series))
	for name, pts := range r.Series {
		var b strings.Builder
		b.WriteString("# " + r.ID + " " + name + "\n")
		for _, pt := range pts {
			fmt.Fprintf(&b, "%g\t%g\n", pt.X, pt.Y)
		}
		out[strings.ToLower(r.ID)+"_"+sanitize(name)+".tsv"] = b.String()
	}
	return out
}

// sanitize maps a series name to a safe file-name fragment.
func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '-')
		}
	}
	return string(out)
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Context) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"F1", "Figure 1: catchment-inefficiency example", Figure1},
		{"F2", "Figure 2: client and site partitions", Figure2},
		{"F3", "Figure 3: p-hop geolocation technique mix", Figure3},
		{"T1", "Table 1: sites per area per network", Table1},
		{"T2", "Table 2: DNS mapping efficiency", Table2},
		{"F4", "Figure 4: client latency and distance CDFs", Figure4},
		{"T3", "Table 3: tail latency, Imperva-6 vs Imperva-NS", Table3},
		{"F5", "Figure 5: regional-global difference CDFs", Figure5},
		{"T4", "Table 4: RTT class vs catchment-site distance", Table4},
		{"S54", "Section 5.4: causes of latency reduction", Section54},
		{"F6", "Figure 6: ReOpt partition; Route 53 vs direct; regional vs global on Tangled", Figure6},
		{"F7", "Figure 7: route-server override example", Figure7},
		{"F8", "Figure 8: same-site latency validation", Figure8},
		{"T5", "Table 5: CDN redirection survey", Table5},
		{"T6", "Table 6: representative vs other hostnames", Table6},
		{"X1", "Extension: DailyCatch and AnyOpt-style baselines vs regional anycast", Extensions},
		{"X2", "Extension: routing dynamics — fault blast radius, regional vs global", Dynamics},
		{"X3", "Extension: flash-crowd steering — regional knobs vs global prepending", Traffic},
		{"X4", "Extension: looking glass — root causes of catchment inefficiency and churn", Glass},
		{"X6", "Extension: RFC6 metro offload — community-scoped announcements", MetroOffload},
	}
}

// RunAll executes every experiment and returns the reports in order.
func RunAll(ctx *Context) ([]*Report, error) {
	var out []*Report
	for _, ex := range All() {
		r, err := ex.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", ex.ID, err)
		}
		r.ID, r.Title = ex.ID, ex.Title
		out = append(out, r)
	}
	return out, nil
}
