// Quickstart: build a small simulated Internet, deploy a three-site content
// network under both global and regional anycast, and see why the paper
// prefers regional: the same client can be routed across an ocean by global
// anycast's policy routing while the regional prefix pins it to a nearby
// site.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"anysim"
)

func main() {
	// A reduced-scale world: ~1,300 ASes, ~1,100 probes, and the paper's
	// content networks (Edgio, Imperva, Tangled) already deployed.
	world, err := anysim.SmallWorld(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d ASes, %d probes in %d <city,AS> groups\n\n",
		world.Topo.NumASes(), len(world.Platform.Retained()), len(world.Platform.Groups().Groups))

	// Imperva-6 is the paper's six-region deployment; Imperva-NS is the
	// same operator's global anycast network. Measure one customer
	// hostname against both.
	probes := world.Platform.Retained()
	regional := anysim.RunCampaign(world, world.Imperva.IM6, anysim.RepresentativeImperva6, probes)

	// The global network has no customer hostname of its own; register a
	// synthetic one so the same machinery applies.
	if err := world.Auth.Register("global.example", world.Imperva.NS.Mapper(world.OperatorDB)); err != nil {
		log.Fatal(err)
	}
	global := anysim.RunCampaign(world, world.Imperva.NS, "global.example", probes)

	// Pair the two campaigns with the paper's §5.3 overlap filtering and
	// print the headline: tail latency per area.
	cmp, err := anysim.CompareRegionalGlobal(world, regional, global, anysim.LDNS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probe groups retained after site/peer overlap filtering: %.1f%%\n\n",
		cmp.Filter.RetainedFraction()*100)

	fmt.Println("90th-percentile client RTT, regional vs global anycast:")
	perArea := map[anysim.Area][]float64{}
	perAreaG := map[anysim.Area][]float64{}
	for _, pair := range cmp.Pairs {
		perArea[pair.Area] = append(perArea[pair.Area], pair.RTTReg)
		perAreaG[pair.Area] = append(perAreaG[pair.Area], pair.RTTGlob)
	}
	for _, area := range []anysim.Area{anysim.APAC, anysim.EMEA, anysim.NA, anysim.LatAm} {
		fmt.Printf("  %-6s regional %6.1f ms   global %6.1f ms\n",
			area, percentile(perArea[area], 90), percentile(perAreaG[area], 90))
	}

	// Show one concrete catchment decision: where one probe's traffic
	// lands under each configuration.
	p := probes[0]
	fmt.Printf("\nexample probe: %s (%s), AS%d\n", p.City, p.Country, p.ASN)
	for _, tc := range []struct {
		label string
		host  string
	}{
		{"regional", anysim.RepresentativeImperva6},
		{"global  ", "global.example"},
	} {
		addr, ok := world.Measurer.ResolveHost(world.Auth, tc.host, p, anysim.LDNS)
		if !ok {
			continue
		}
		rtt, _ := world.Measurer.Ping(p, addr)
		tr, _ := world.Measurer.Traceroute(p, addr)
		fmt.Printf("  %s DNS says %v -> site %q in %.1f ms over AS path %v\n",
			tc.label, addr, tr.Fwd.Site, rtt, tr.Fwd.Path)
	}
}

// percentile is a tiny local helper so the example stays self-contained.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}
