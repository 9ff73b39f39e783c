package bgp

import (
	"net/netip"
	"sync"
	"testing"

	"anysim/internal/topo"
)

// TestConcurrentAnnounceAndLookup exercises the engine's documented
// concurrency contract: Lookup on existing prefixes while Announce
// converges new ones. Run with -race to verify the locking.
func TestConcurrentAnnounceAndLookup(t *testing.T) {
	tp, err := topo.Generate(topo.GenConfig{Seed: 3, NumTier1: 4, NumTier2: 20, NumStub: 150, NumIXP: 6})
	if err != nil {
		t.Fatal(err)
	}
	cdnAS := &topo.AS{ASN: topo.CDNBase, Name: "CDN", Tier: topo.TierCDN, Home: "US",
		Cities: []string{"IAD", "FRA", "SIN"}, Prefix: netip.MustParsePrefix("32.0.0.0/16")}
	if err := tp.AddAS(cdnAS); err != nil {
		t.Fatal(err)
	}
	providerCities := map[topo.ASN][]string{}
	for _, city := range cdnAS.Cities {
		for _, asn := range tp.ASNs() {
			if a := tp.MustAS(asn); a.Tier == topo.Tier1 && a.PresentIn(city) {
				providerCities[asn] = append(providerCities[asn], city)
				break
			}
		}
	}
	for asn, cities := range providerCities {
		if err := tp.AddLink(topo.Link{A: cdnAS.ASN, B: asn, Type: topo.CustomerToProvider, Cities: cities}); err != nil {
			t.Fatal(err)
		}
	}
	tp.Freeze()

	e := NewEngine(tp)
	base := netip.MustParsePrefix("198.18.100.0/24")
	err = e.Announce(base, []SiteAnnouncement{
		{Origin: cdnAS.ASN, Site: "iad", City: "IAD"},
		{Origin: cdnAS.ASN, Site: "fra", City: "FRA"},
	})
	if err != nil {
		t.Fatal(err)
	}

	stubs := []topo.ASN{}
	for _, asn := range tp.ASNs() {
		if tp.MustAS(asn).Tier == topo.TierStub {
			stubs = append(stubs, asn)
		}
	}

	var wg sync.WaitGroup
	// Writers: announce 8 more prefixes concurrently.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(101 + i), 0}), 24)
			err := e.Announce(p, []SiteAnnouncement{{Origin: cdnAS.ASN, Site: "sin", City: "SIN"}})
			if err != nil {
				t.Errorf("announce %d: %v", i, err)
			}
		}(i)
	}
	// Readers: hammer Lookup on the base prefix.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				asn := stubs[k%len(stubs)]
				city := tp.MustAS(asn).Cities[0]
				e.Lookup(base, asn, city)
			}
		}()
	}
	wg.Wait()

	if got := len(e.Prefixes()); got != 9 {
		t.Errorf("announced prefixes = %d, want 9", got)
	}
}

// TestConcurrentForkEvaluation stress-tests the steering trial pattern under
// -race: many goroutines fork the shared engine, mutate their private forks
// (withdraw/restore/prepend, some then ResetTo a shared snapshot), and run
// lookups on them, while writer, resetter and reader goroutines keep
// mutating and querying the parent. No fork mutation may leak into the
// parent.
func TestConcurrentForkEvaluation(t *testing.T) {
	_, e, anns := generatedCDNWorld(t, 5)
	tp := e.Topology()

	stubs := []topo.ASN{}
	for _, asn := range tp.ASNs() {
		if tp.MustAS(asn).Tier == topo.TierStub {
			stubs = append(stubs, asn)
		}
	}
	before := snapshotRibs(e, pfxGlobal)
	snap := e.Fork()

	var wg sync.WaitGroup
	// Forkers: per-candidate trial evaluation on private snapshots.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := e.Fork()
			var err error
			switch i % 3 {
			case 0:
				err = f.WithdrawSite(pfxGlobal, anns[i%len(anns)].Site)
			case 1:
				a := anns[i%len(anns)]
				a.Prepend = 1 + i%MaxPrepend
				err = f.AnnounceSite(pfxGlobal, a)
			default:
				err = f.WithdrawSite(pfxGlobal, anns[i%len(anns)].Site)
				if err == nil {
					err = f.AnnounceSite(pfxGlobal, anns[i%len(anns)])
				}
				if err == nil {
					err = f.ResetTo(snap)
				}
			}
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			for k := 0; k < 50; k++ {
				asn := stubs[(i*50+k)%len(stubs)]
				f.Lookup(pfxGlobal, asn, tp.MustAS(asn).Cities[0])
			}
		}(i)
	}
	// Parent writers: announce fresh prefixes while forks evaluate.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 18, byte(150 + i), 0}), 24)
			a := anns[i%len(anns)]
			if err := e.Announce(p, []SiteAnnouncement{a}); err != nil {
				t.Errorf("parent announce %d: %v", i, err)
			}
		}(i)
	}
	// Parent resetter: reinstate the snapshot while forks copy the parent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 4; k++ {
			if err := e.ResetTo(snap); err != nil {
				t.Errorf("parent reset %d: %v", k, err)
			}
		}
	}()
	// Parent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				asn := stubs[k%len(stubs)]
				e.Lookup(pfxGlobal, asn, tp.MustAS(asn).Cities[0])
			}
		}()
	}
	wg.Wait()

	if asn, ok := ribsEqual(e, before, snapshotRibs(e, pfxGlobal)); !ok {
		t.Fatalf("fork mutations leaked into parent rib for %s", asn)
	}
}
