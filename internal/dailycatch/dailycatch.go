// Package dailycatch implements the DailyCatch baseline the paper discusses
// in §2.2 (McQuistin et al., IMC'19): a system that uses routine
// measurements to choose between two global anycast announcement
// configurations — announcing only to transit providers, or announcing to
// all peers as well — and deploys whichever measures better. The paper's
// point is that DailyCatch can only pick the better of the two measured
// configurations; catchment inefficiencies survive under either, whereas
// regional anycast bounds them geographically. This package exists so that
// comparison can be made quantitatively (see the ablation benchmarks and
// the extensions experiment).
package dailycatch

import (
	"fmt"
	"net/netip"
	"sort"

	"anysim/internal/atlas"
	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/geo"
	"anysim/internal/stats"
	"anysim/internal/topo"
)

// ConfigKind is one of DailyCatch's two candidate configurations.
type ConfigKind uint8

// The two configurations DailyCatch measures.
const (
	// TransitOnly announces the global prefix over transit (customer-to-
	// provider) sessions only.
	TransitOnly ConfigKind = iota
	// AllPeers announces over transit and every peering session.
	AllPeers
)

var kindNames = map[ConfigKind]string{TransitOnly: "transit-only", AllPeers: "all-peers"}

// String names the configuration.
func (k ConfigKind) String() string { return kindNames[k] }

// Measurement is one configuration's measured performance.
type Measurement struct {
	Kind ConfigKind
	// RTTs maps probe area to the measured group RTT samples.
	RTTs map[geo.Area][]float64
	// MeanMs / P90Ms summarise the pooled distribution.
	MeanMs, P90Ms float64
	// Reachable is the fraction of probes with a route under this
	// configuration (transit-only always reaches; all-peers too, since
	// transit is kept).
	Reachable float64
}

// Result is a DailyCatch run: both measurements and the chosen winner.
type Result struct {
	Transit, Peers *Measurement
	Winner         ConfigKind
}

// Chosen returns the winning measurement.
func (r *Result) Chosen() *Measurement {
	if r.Winner == TransitOnly {
		return r.Transit
	}
	return r.Peers
}

// Run measures both DailyCatch configurations for a deployment's global
// anycast prefix and picks the one with the lower pooled 90th-percentile
// group latency (DailyCatch optimises tail performance through routine
// measurement).
//
// The deployment must have exactly one region (a global anycast network);
// the function re-announces its prefix under each configuration and leaves
// the winner announced.
func Run(e *bgp.Engine, m *atlas.Measurer, dep *cdn.Deployment, probes []*atlas.Probe) (*Result, error) {
	if len(dep.Regions) != 1 {
		return nil, fmt.Errorf("dailycatch: %s has %d regions; DailyCatch operates a global anycast network", dep.Name, len(dep.Regions))
	}
	prefix := dep.Regions[0].Prefix

	transitAnns, allAnns, err := configurations(e.Topology(), dep)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	groups := atlas.GroupProbes(probes)
	if res.Transit, err = measure(e, m, prefix, transitAnns, TransitOnly, groups); err != nil {
		return nil, err
	}
	if res.Peers, err = measure(e, m, prefix, allAnns, AllPeers, groups); err != nil {
		return nil, err
	}
	res.Winner = AllPeers
	winnerAnns := allAnns
	if res.Transit.P90Ms < res.Peers.P90Ms {
		res.Winner = TransitOnly
		winnerAnns = transitAnns
	}
	if err := e.Announce(prefix, winnerAnns); err != nil {
		return nil, err
	}
	return res, nil
}

// configurations derives the two announcement plans from the deployment's
// topology attachments: per site, the transit-only plan restricts
// OnlyNeighbors to providers; the all-peers plan announces to everyone.
func configurations(tp *topo.Topology, dep *cdn.Deployment) (transit, all []bgp.SiteAnnouncement, err error) {
	for _, s := range dep.Sites {
		var providers []topo.ASN
		for _, li := range tp.LinksOf(dep.ASN) {
			l := tp.Links()[li]
			if !containsCity(l.Cities, s.City) {
				continue
			}
			if l.Type == topo.CustomerToProvider && l.A == dep.ASN {
				nbr, _ := l.Other(dep.ASN)
				providers = append(providers, nbr)
			}
		}
		sort.Slice(providers, func(i, j int) bool { return providers[i] < providers[j] })
		transit = append(transit, bgp.SiteAnnouncement{
			Origin: dep.ASN, Site: s.ID, City: s.City, OnlyNeighbors: providers,
		})
		all = append(all, bgp.SiteAnnouncement{Origin: dep.ASN, Site: s.ID, City: s.City})
	}
	return transit, all, nil
}

func containsCity(cities []string, c string) bool {
	for _, x := range cities {
		if x == c {
			return true
		}
	}
	return false
}

// measure announces the plan and records per-area group RTTs.
func measure(e *bgp.Engine, m *atlas.Measurer, prefix netip.Prefix, anns []bgp.SiteAnnouncement, kind ConfigKind, groups *atlas.GroupTable) (*Measurement, error) {
	if err := e.Announce(prefix, anns); err != nil {
		return nil, err
	}
	out := &Measurement{Kind: kind, RTTs: map[geo.Area][]float64{}}
	reached := 0
	// Group medians per the paper's methodology.
	ranks, pooled := groups.Medians(func(p *atlas.Probe) (float64, bool) {
		fwd, ok := e.Lookup(prefix, p.ASN, p.City)
		if !ok {
			return 0, false
		}
		reached++
		return m.RTT(p, fwd), true
	})
	for i, r := range ranks {
		area := groups.Groups[r].Area()
		out.RTTs[area] = append(out.RTTs[area], pooled[i])
	}
	out.MeanMs = stats.Mean(pooled)
	out.P90Ms = stats.Percentile(pooled, 90)
	if n := groups.NumProbes(); n > 0 {
		out.Reachable = float64(reached) / float64(n)
	}
	return out, nil
}
