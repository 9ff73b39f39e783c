package worldgen

import (
	"testing"

	"anysim/internal/bgp"
	"anysim/internal/cdn"
	"anysim/internal/geo"
	"anysim/internal/topo"
)

// TestAllPrefixInvariants checks every announced prefix of the world
// against routing invariants for a sample of client ASes: paths are
// valley-free, structurally consistent, end at the right origin, and the
// catchment site actually announces the prefix looked up.
func TestAllPrefixInvariants(t *testing.T) {
	w := world(t)
	deployments := []*cdn.Deployment{
		w.Edgio.EG3, w.Edgio.EG4, w.Imperva.IM6, w.Imperva.NS, w.Tangled.Global,
	}
	// Sample stubs deterministically.
	var stubs []topo.ASN
	for i, asn := range w.Topo.ASNs() {
		if w.Topo.MustAS(asn).Tier == topo.TierStub && i%7 == 0 {
			stubs = append(stubs, asn)
		}
	}
	if len(stubs) < 50 {
		t.Fatalf("only %d sampled stubs", len(stubs))
	}

	for _, dep := range deployments {
		siteRegions := map[string]map[string]bool{}
		for _, s := range dep.Sites {
			siteRegions[s.ID] = map[string]bool{}
			for _, rn := range s.Regions {
				siteRegions[s.ID][rn] = true
			}
		}
		for _, region := range dep.Regions {
			for _, asn := range stubs {
				city := w.Topo.MustAS(asn).Cities[0]
				fwd, ok := w.Engine.Lookup(region.Prefix, asn, city)
				if !ok {
					continue
				}
				if fwd.Path[len(fwd.Path)-1] != dep.ASN {
					t.Fatalf("%s/%s: path from %v ends at %v, want %v",
						dep.Name, region.Name, asn, fwd.Path[len(fwd.Path)-1], dep.ASN)
				}
				if len(fwd.Path) != len(fwd.Cities)+1 {
					t.Fatalf("%s/%s: path/cities mismatch: %v %v", dep.Name, region.Name, fwd.Path, fwd.Cities)
				}
				if !siteRegions[fwd.Site][region.Name] {
					t.Fatalf("%s: catchment site %q does not announce region %q",
						dep.Name, fwd.Site, region.Name)
				}
				if !valleyFree(w.Topo, fwd.Path) {
					t.Fatalf("%s/%s: path not valley-free: %v", dep.Name, region.Name, fwd.Path)
				}
				// Forwarding distance is at least the straight line.
				pc, _ := geo.CityIDOf(city)
				sc, _ := geo.CityIDOf(fwd.SiteCity())
				if direct := geo.KmBetween(pc, sc); fwd.DistKm < direct-1 {
					t.Fatalf("%s/%s: path distance %.0f below direct %.0f", dep.Name, region.Name, fwd.DistKm, direct)
				}
			}
		}
	}
}

// valleyFree checks the Gao-Rexford property over a forwarding path.
func valleyFree(tp *topo.Topology, path []topo.ASN) bool {
	const (
		up = iota
		crossed
		down
	)
	state := up
	for i := 0; i+1 < len(path); i++ {
		l, ok := tp.LinkBetween(path[i], path[i+1])
		if !ok {
			return false
		}
		var step int
		switch l.Type {
		case topo.CustomerToProvider:
			if l.A == path[i] {
				step = 0 // climbing
			} else {
				step = 2 // descending
			}
		default:
			step = 1 // peering
		}
		switch state {
		case up:
			if step == 1 {
				state = crossed
			} else if step == 2 {
				state = down
			}
		case crossed, down:
			if step != 2 {
				return false
			}
			state = down
		}
	}
	return true
}

// TestReachabilityOfEveryRegionalPrefix reproduces §4.5 at world scope:
// nearly every probe can reach every regional VIP of every deployment,
// regardless of what DNS returned to it.
func TestReachabilityOfEveryRegionalPrefix(t *testing.T) {
	w := world(t)
	probes := w.Platform.Retained()
	step := len(probes) / 150
	if step == 0 {
		step = 1
	}
	var checked, reached int
	for _, dep := range []*cdn.Deployment{w.Edgio.EG3, w.Edgio.EG4, w.Imperva.IM6} {
		for i := 0; i < len(probes); i += step {
			p := probes[i]
			for _, vip := range dep.VIPs() {
				checked++
				if _, ok := w.Measurer.Ping(p, vip); ok {
					reached++
				}
			}
		}
	}
	if frac := float64(reached) / float64(checked); frac < 0.995 {
		t.Errorf("global reachability of regional VIPs = %.4f, want ~1", frac)
	}
}

// TestRelClassPreferenceOrder pins the preference order the paper's case
// studies rely on.
func TestRelClassPreferenceOrder(t *testing.T) {
	order := []bgp.RelClass{bgp.FromOrigin, bgp.FromCustomer, bgp.FromPublicPeer, bgp.FromRSPeer, bgp.FromProvider}
	for i := 1; i < len(order); i++ {
		if !(order[i-1] < order[i]) {
			t.Fatalf("preference order broken at %v !< %v", order[i-1], order[i])
		}
	}
	for _, c := range order {
		exportable := c == bgp.FromOrigin || c == bgp.FromCustomer
		if c.Exportable() != exportable {
			t.Errorf("%v exportable = %v", c, c.Exportable())
		}
	}
}
