// Package siteopt implements an AnyOpt-style baseline (Zhang et al.,
// SIGCOMM'21, discussed in the paper's §2.2): choose which subset of a
// network's sites should announce a global anycast prefix so that client
// latency is minimised. AnyOpt predicts catchments from pairwise BGP
// experiments; this simulator can afford the experiments directly, so the
// optimizer greedily grows the announcing set, re-measuring the true
// catchment after each candidate addition — the paper's criticism (pairwise
// BGP experiments are operationally expensive) translates here into the
// optimizer's measured announcement count.
package siteopt

import (
	"fmt"
	"sort"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/stats"
)

// Result is a greedy site-subset optimisation outcome.
type Result struct {
	// Order lists site IDs in the order the greedy pass added them.
	Order []string
	// MeanMsAt[i] is the mean group latency with Order[:i+1] announcing.
	MeanMsAt []float64
	// Best is the prefix of Order achieving the minimum mean latency.
	Best []string
	// BestMeanMs is that minimum.
	BestMeanMs float64
	// Announcements counts BGP announcements performed — the operational
	// cost AnyOpt's experiments impose on a real network.
	Announcements int
}

// Config tunes the optimisation.
type Config struct {
	// MaxSites caps the announcing set (0 = all sites).
	MaxSites int
	// Patience stops the greedy pass after this many consecutive
	// non-improving additions (default 3).
	Patience int
}

// Optimize greedily selects announcing sites for the deployment's single
// (global) region to minimise mean probe-group latency. It leaves the best
// configuration announced.
func Optimize(e *bgp.Engine, m *atlas.Measurer, dep *cdn.Deployment, probes []*atlas.Probe, cfg Config) (*Result, error) {
	if len(dep.Regions) != 1 {
		return nil, fmt.Errorf("siteopt: %s has %d regions; the optimizer operates a global anycast network", dep.Name, len(dep.Regions))
	}
	if cfg.MaxSites <= 0 || cfg.MaxSites > len(dep.Sites) {
		cfg.MaxSites = len(dep.Sites)
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 3
	}
	remaining := map[string]cdn.Site{}
	for _, s := range dep.Sites {
		remaining[s.ID] = s
	}

	groups := atlas.GroupProbes(probes)
	res := &Result{BestMeanMs: -1}
	var chosen []cdn.Site
	stale := 0
	for len(chosen) < cfg.MaxSites && len(remaining) > 0 && stale < cfg.Patience {
		// Try each remaining site appended to the chosen set; keep the one
		// with the lowest measured mean latency.
		ids := make([]string, 0, len(remaining))
		for id := range remaining {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		bestID, bestMean := "", -1.0
		for _, id := range ids {
			mean, err := measureSet(e, m, dep, append(chosen, remaining[id]), groups)
			if err != nil {
				return nil, err
			}
			res.Announcements++
			if bestMean < 0 || mean < bestMean {
				bestID, bestMean = id, mean
			}
		}
		chosen = append(chosen, remaining[bestID])
		delete(remaining, bestID)
		res.Order = append(res.Order, bestID)
		res.MeanMsAt = append(res.MeanMsAt, bestMean)
		if res.BestMeanMs < 0 || bestMean < res.BestMeanMs {
			res.BestMeanMs = bestMean
			res.Best = append([]string(nil), res.Order...)
			stale = 0
		} else {
			stale++
		}
	}

	// Leave the best configuration announced.
	bestSites := make([]cdn.Site, 0, len(res.Best))
	bySiteID := map[string]cdn.Site{}
	for _, s := range dep.Sites {
		bySiteID[s.ID] = s
	}
	for _, id := range res.Best {
		bestSites = append(bestSites, bySiteID[id])
	}
	if _, err := measureSet(e, m, dep, bestSites, groups); err != nil {
		return nil, err
	}
	res.Announcements++
	return res, nil
}

// measureSet announces the deployment's global prefix from the given sites
// and returns the mean probe-group latency.
func measureSet(e *bgp.Engine, m *atlas.Measurer, dep *cdn.Deployment, sites []cdn.Site, groups *atlas.GroupTable) (float64, error) {
	anns := make([]bgp.SiteAnnouncement, 0, len(sites))
	for _, s := range sites {
		anns = append(anns, bgp.SiteAnnouncement{Origin: dep.ASN, Site: s.ID, City: s.City})
	}
	p := dep.Regions[0].Prefix
	if err := e.Announce(p, anns); err != nil {
		return 0, err
	}
	_, vals := groups.Medians(func(probe *atlas.Probe) (float64, bool) {
		fwd, ok := e.Lookup(p, probe.ASN, probe.City)
		if !ok {
			return 0, false
		}
		return m.RTT(probe, fwd), true
	})
	return stats.Mean(vals), nil
}
