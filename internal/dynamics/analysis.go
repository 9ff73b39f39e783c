package dynamics

import (
	"net/netip"

	"anysim/internal/atlas"
	"anysim/internal/topo"
)

// ChurnStats aggregates per-AS catchment changes between two snapshots,
// counted over (prefix, AS) pairs.
type ChurnStats struct {
	// Moved pairs were served before and after, by different sites.
	Moved int
	// Lost pairs had service before and none after.
	Lost int
	// Gained pairs had no service before and some after.
	Gained int
	// Stable pairs kept the same serving site.
	Stable int
}

// Total is the number of pairs served in at least one snapshot.
func (c ChurnStats) Total() int { return c.Moved + c.Lost + c.Gained + c.Stable }

// ChangedFraction is the blast radius of an event: the share of served
// (prefix, AS) pairs whose service changed.
func (c ChurnStats) ChangedFraction() float64 {
	if t := c.Total(); t > 0 {
		return float64(c.Moved+c.Lost+c.Gained) / float64(t)
	}
	return 0
}

func (c ChurnStats) add(o ChurnStats) ChurnStats {
	return ChurnStats{Moved: c.Moved + o.Moved, Lost: c.Lost + o.Lost, Gained: c.Gained + o.Gained, Stable: c.Stable + o.Stable}
}

// Diff compares two catchment snapshots.
func Diff(pre, post Snapshot) ChurnStats {
	var out ChurnStats
	prefixes := map[netip.Prefix]bool{}
	for p := range pre {
		prefixes[p] = true
	}
	for p := range post {
		prefixes[p] = true
	}
	for p := range prefixes {
		out = out.add(diffPrefix(pre[p], post[p]))
	}
	return out
}

func diffPrefix(pre, post map[topo.ASN]string) ChurnStats {
	var out ChurnStats
	for asn, was := range pre {
		now, ok := post[asn]
		switch {
		case !ok:
			out.Lost++
		case now != was:
			out.Moved++
		default:
			out.Stable++
		}
	}
	for asn := range post {
		if _, ok := pre[asn]; !ok {
			out.Gained++
		}
	}
	return out
}

// View is one probe's service state for its deployment-assigned regional
// prefix: which prefix its operator's DNS maps it to, the serving site, and
// the measured RTT.
type View struct {
	Prefix netip.Prefix
	Site   string
	RTTMs  float64
	OK     bool
}

// ProbeViews measures every probe against its region's prefix under the
// engine's current routing state. The result is aligned with r.Probes.
// Requires Measurer and Probes to be set.
func (r *Runner) ProbeViews() []View {
	out := make([]View, len(r.Probes))
	for i, p := range r.Probes {
		region, ok := r.Dep.RegionForCountry(p.Country)
		if !ok {
			continue
		}
		out[i].Prefix = region.Prefix
		fwd, ok := r.Engine.Lookup(region.Prefix, p.ASN, p.City)
		if !ok {
			continue
		}
		out[i].Site = fwd.Site
		out[i].RTTMs = r.Measurer.RTT(p, fwd)
		out[i].OK = true
	}
	return out
}

// GroupChurn counts probe groups (the paper's <city, AS> unit) whose
// serving site changed between two probe views, out of the groups served in
// either. A group counts as changed if any of its probes moved, lost, or
// gained service.
func (r *Runner) GroupChurn(pre, post []View) (changed, total int) {
	groups := atlas.GroupProbes(r.Probes)
	served := make([]bool, len(groups.Groups))
	moved := make([]bool, len(groups.Groups))
	for i := range pre {
		g := groups.Rank(i)
		served[g] = served[g] || pre[i].OK || post[i].OK
		moved[g] = moved[g] || pre[i].OK != post[i].OK || pre[i].Site != post[i].Site
	}
	for g := range served {
		if served[g] {
			total++
			if moved[g] {
				changed++
			}
		}
	}
	return changed, total
}

// Penalties returns the per-probe RTT deltas (post minus pre, in ms) for
// probes that stayed served but switched site — the failover RTT penalty
// distribution. Probes that lost service entirely are excluded (they have
// no post RTT); count them via GroupChurn or Diff.
func Penalties(pre, post []View) []float64 {
	var out []float64
	for i := range pre {
		if i >= len(post) {
			break
		}
		if pre[i].OK && post[i].OK && pre[i].Site != post[i].Site {
			out = append(out, post[i].RTTMs-pre[i].RTTMs)
		}
	}
	return out
}
