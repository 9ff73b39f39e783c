package experiments

import (
	"fmt"
	"net/netip"

	"anysim/internal/atlas"
	"anysim/internal/dailycatch"
	"anysim/internal/siteopt"
	"anysim/internal/stats"
)

// ExtensionsData compares the alternative global anycast improvement
// proposals of §2.2 against latency-based regional anycast on the same
// testbed.
type ExtensionsData struct {
	// GlobalP90 is the default all-sessions global configuration.
	GlobalP90 float64
	// DailyCatch holds the two measured configurations and the winner.
	DailyCatch *dailycatch.Result
	// SiteOpt is the AnyOpt-style greedy site-subset optimisation.
	SiteOpt *siteopt.Result
	// SiteOptP90 is the pooled group p90 under the optimised subset.
	SiteOptP90 float64
	// RegionalP90 is ReOpt regional anycast with country-level mapping.
	RegionalP90 float64
}

// Extensions reproduces the paper's §2.2 positioning quantitatively: it
// runs DailyCatch (pick the better of transit-only / all-peers) and an
// AnyOpt-style site-subset optimizer on the Tangled testbed's global
// anycast prefix, and compares both against the §6 latency-based regional
// configuration. The paper argues regional anycast subsumes these
// approaches because it bounds catchments geographically; the report
// measures by how much.
//
// The experiment restores the default global announcement before returning
// so other experiments are unaffected.
func Extensions(ctx *Context) (*Report, error) {
	w := ctx.World
	probes := w.Platform.Retained()
	tangled := w.Tangled.Global

	restore := func() error { return tangled.Announce(w.Engine) }

	// Baseline: default global configuration.
	globalP90, err := pooledP90(ctx, tangled.Regions[0].Prefix)
	if err != nil {
		return nil, err
	}

	dc, err := dailycatch.Run(w.Engine, w.Measurer, tangled, probes)
	if err != nil {
		return nil, err
	}

	so, err := siteopt.Optimize(w.Engine, w.Measurer, tangled, probes, siteopt.Config{})
	if err != nil {
		return nil, err
	}
	soP90, err := pooledP90(ctx, tangled.Regions[0].Prefix)
	if err != nil {
		return nil, err
	}
	if err := restore(); err != nil {
		return nil, err
	}

	// ReOpt regional with country-level mapping (pooled over areas).
	best := ctx.Sweep().Best
	var regVals []float64
	for _, p := range probes {
		region, ok := best.Deployment.RegionForCountry(p.Country)
		if !ok {
			continue
		}
		if fwd, ok := w.Engine.Lookup(region.Prefix, p.ASN, p.City); ok {
			regVals = append(regVals, w.Measurer.RTT(p, fwd))
		}
	}
	data := &ExtensionsData{
		GlobalP90:   globalP90,
		DailyCatch:  dc,
		SiteOpt:     so,
		SiteOptP90:  soP90,
		RegionalP90: stats.Percentile(regVals, 90),
	}

	tb := &stats.Table{Header: []string{"Configuration", "pooled p90 (ms)", "notes"}}
	tb.AddRow("global (all sessions)", stats.Fmt1(data.GlobalP90), "baseline")
	tb.AddRow("DailyCatch: transit-only", stats.Fmt1(dc.Transit.P90Ms), "")
	tb.AddRow("DailyCatch: all-peers", stats.Fmt1(dc.Peers.P90Ms), "")
	tb.AddRow("DailyCatch winner", stats.Fmt1(dc.Chosen().P90Ms), fmt.Sprintf("picked %s", dc.Winner))
	tb.AddRow("AnyOpt-style subset", stats.Fmt1(data.SiteOptP90),
		fmt.Sprintf("%d/%d sites, %d BGP experiments", len(so.Best), len(tangled.Sites), so.Announcements))
	tb.AddRow("ReOpt regional", stats.Fmt1(data.RegionalP90), fmt.Sprintf("k=%d, country-level DNS mapping", best.K))
	return &Report{Text: tb.String(), Data: data}, nil
}

// pooledP90 computes the pooled probe-group p90 RTT to a prefix under the
// currently announced configuration.
func pooledP90(ctx *Context, prefix netip.Prefix) (float64, error) {
	w := ctx.World
	_, vals := w.Platform.Groups().Medians(func(p *atlas.Probe) (float64, bool) {
		fwd, ok := w.Engine.Lookup(prefix, p.ASN, p.City)
		if !ok {
			return 0, false
		}
		return w.Measurer.RTT(p, fwd), true
	})
	if len(vals) == 0 {
		return 0, fmt.Errorf("experiments: no probe reaches %v", prefix)
	}
	return stats.Percentile(vals, 90), nil
}
