package bgp

import (
	"runtime/debug"
	"strings"
	"testing"

	"anysim/internal/policy"
	"anysim/internal/topo"
)

func mustMetro(t *testing.T, mk func(string) (policy.Community, error), metro string) policy.Community {
	t.Helper()
	c, err := mk(metro)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSeedPolicyTagging: a tag-metro import policy stamps every seed with
// the metro it entered at, and the tag travels transitively through transit.
func TestSeedPolicyTagging(t *testing.T) {
	_, e := figure7World(t)
	const zayo, belnet, imperva topo.ASN = 6461, 6697, 19551
	e.SetProvenance(true)
	e.SetPolicy(policy.MustParse("policy tag\nimport -> tag-metro\n"))

	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: imperva, Site: "fra", City: "FRA"},
		{Origin: imperva, Site: "sin", City: "SIN"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sinTag := mustMetro(t, policy.MetroTag, "SIN")
	fraTag := mustMetro(t, policy.MetroTag, "FRA")

	// Zayo's route came up the customer chain from the SIN seed; the tag
	// survived two transit hops untouched.
	pz, ok := e.Provenance(pfxGlobal, zayo)
	if !ok || !pz.Valid {
		t.Fatal("no provenance for zayo")
	}
	if !pz.Winner().Comms.Has(sinTag) || pz.Winner().Comms.Has(fraTag) {
		t.Fatalf("zayo winner communities = %v, want metro:SIN only", pz.Winner().Comms)
	}
	// Belnet prefers the public peer (through Zayo, hence SIN-tagged); the
	// losing route-server route was seeded at FRA.
	pb, ok := e.Provenance(pfxGlobal, belnet)
	if !ok || !pb.Valid {
		t.Fatal("no provenance for belnet")
	}
	if pb.WinnerClass != FromPublicPeer || !pb.Winner().Comms.Has(sinTag) {
		t.Fatalf("belnet winner = %v comms %v, want public-peer with metro:SIN", pb.WinnerClass, pb.Winner().Comms)
	}
	if !pb.HasRunnerUp || pb.RunnerClass != FromRSPeer || !pb.RunnerUp().Comms.Has(fraTag) {
		t.Fatalf("belnet runner-up = %v comms %v, want rs-peer with metro:FRA", pb.RunnerClass, pb.RunnerUp().Comms)
	}
}

// TestScopedAnnouncementSuppressesPeers: a no-peer-metro community on one
// site's announcement removes that site's peer and route-server seeds, and
// provenance explains the missing alternative as community-dropped.
func TestScopedAnnouncementSuppressesPeers(t *testing.T) {
	_, e := figure7World(t)
	const belnet, imperva topo.ASN = 6697, 19551
	e.SetProvenance(true)
	e.SetPolicy(policy.MustParse("policy scope\nimport -> accept\n"))

	scope := mustMetro(t, policy.NoPeerMetro, "FRA")
	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: imperva, Site: "fra", City: "FRA", Communities: []policy.Community{scope}},
		{Origin: imperva, Site: "sin", City: "SIN"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Belnet's route-server session at FRA no longer hears the route; the
	// public-peer path to Singapore is all that is left.
	fwd, ok := e.Lookup(pfxGlobal, belnet, "MSQ")
	if !ok || fwd.Site != "sin" || fwd.Rel != FromPublicPeer {
		t.Fatalf("belnet fwd = %+v, want sin via public-peer", fwd)
	}
	p, ok := e.Provenance(pfxGlobal, belnet)
	if !ok || !p.Valid {
		t.Fatal("no provenance for belnet")
	}
	if !p.HasRunnerUp || p.Step != StepCommunity {
		t.Fatalf("belnet step = %v (runner-up %v), want community-dropped", p.Step, p.HasRunnerUp)
	}
	if p.RunnerClass != FromRSPeer {
		t.Fatalf("belnet runner-up class = %v, want rs-peer", p.RunnerClass)
	}
	if p.Step.String() != "community-dropped" {
		t.Fatalf("StepCommunity renders %q", p.Step.String())
	}
}

// TestScopeCommunityClasses: no-peer-metro spares transit sessions;
// no-export-metro blocks them too.
func TestScopeCommunityClasses(t *testing.T) {
	const zayo, imperva topo.ASN = 6461, 19551
	ann := func(c policy.Community) []SiteAnnouncement {
		return []SiteAnnouncement{{Origin: imperva, Site: "sin", City: "SIN", Communities: []policy.Community{c}}}
	}
	// The SIN seed enters through SingTel, Imperva's transit provider.
	_, e := figure7World(t)
	e.SetPolicy(policy.MustParse("policy scope\nimport -> accept\n"))
	if err := e.Announce(pfxAsia, ann(mustMetro(t, policy.NoPeerMetro, "SIN"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Lookup(pfxAsia, zayo, "SIN"); !ok {
		t.Fatal("no-peer-metro must not block the transit seed")
	}
	if err := e.Announce(pfxAsia, ann(mustMetro(t, policy.NoExportMetro, "SIN"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Lookup(pfxAsia, zayo, "SIN"); ok {
		t.Fatal("no-export-metro must block every session at the metro")
	}
}

// TestCommunitiesRequirePolicy: announcing communities without a policy
// layer is a configuration error, not a silent no-op.
func TestCommunitiesRequirePolicy(t *testing.T) {
	_, e := figure7World(t)
	const imperva topo.ASN = 19551
	scope := mustMetro(t, policy.NoPeerMetro, "FRA")
	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: imperva, Site: "fra", City: "FRA", Communities: []policy.Community{scope}},
	})
	if err == nil || !strings.Contains(err.Error(), "no policy layer") {
		t.Fatalf("err = %v, want communities-without-policy rejection", err)
	}
}

// TestPolicyLocalPrefOverride: an import rule that prefers the route-server
// route like a customer route flips Belnet's Figure 7 pathology.
func TestPolicyLocalPrefOverride(t *testing.T) {
	_, e := figure7World(t)
	const belnet, imperva topo.ASN = 6697, 19551
	e.SetPolicy(policy.MustParse("policy prefer-rs\nimport class rs-peer neighbor 6697 -> set-local-pref 300\n"))

	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: imperva, Site: "fra", City: "FRA"},
		{Origin: imperva, Site: "sin", City: "SIN"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd, ok := e.Lookup(pfxGlobal, belnet, "MSQ")
	if !ok {
		t.Fatal("no route for belnet")
	}
	if fwd.Site != "fra" || fwd.Rel != FromCustomer {
		t.Fatalf("fwd = %+v, want fra imported as customer", fwd)
	}
}

// TestPolicyExportReject: the operator's export chain can refuse a whole
// session class at the origin edge.
func TestPolicyExportReject(t *testing.T) {
	_, e := figure7World(t)
	const zayo, belnet, imperva topo.ASN = 6461, 6697, 19551
	e.SetPolicy(policy.MustParse("policy no-transit\nexport class provider -> reject\n"))

	err := e.Announce(pfxGlobal, []SiteAnnouncement{
		{Origin: imperva, Site: "fra", City: "FRA"},
		{Origin: imperva, Site: "sin", City: "SIN"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The SIN seed (into transit provider SingTel) is refused, so Zayo's
	// customer chain never hears the prefix; the FRA route-server seed is
	// Belnet's only path.
	if _, ok := e.Lookup(pfxGlobal, zayo, "SIN"); ok {
		t.Fatal("transit must not hear the route under export class provider -> reject")
	}
	fwd, ok := e.Lookup(pfxGlobal, belnet, "MSQ")
	if !ok || fwd.Site != "fra" || fwd.Rel != FromRSPeer {
		t.Fatalf("belnet fwd = %+v, want fra via rs-peer", fwd)
	}
}

// policyTestWorld is generatedCDNWorld plus a metro-offload policy and a
// scoped announcement set: site fra's announcement carries no-peer-metro:FRA.
func policyTestAnnouncements(anns []SiteAnnouncement, t *testing.T) []SiteAnnouncement {
	t.Helper()
	out := make([]SiteAnnouncement, len(anns))
	copy(out, anns)
	for i := range out {
		if out[i].City == "FRA" {
			out[i].Communities = []policy.Community{mustMetro(t, policy.NoPeerMetro, "FRA")}
		}
	}
	return out
}

// TestPolicyFullVsIncremental: converging a scoped, tagged announcement set
// in one shot, via per-site incremental announcements, and on a fork all
// produce bit-identical routing state (communities included — routeEqual
// compares the sets).
func TestPolicyFullVsIncremental(t *testing.T) {
	pol := policy.MustParse("policy tag\nimport -> tag-metro\n")
	tp, full, anns := generatedCDNWorld(t, 17)
	scoped := policyTestAnnouncements(anns, t)

	full.SetPolicy(pol)
	if err := full.Announce(pfxGlobal, scoped); err != nil {
		t.Fatal(err)
	}

	// Incremental: announce unscoped, then swap each site in one at a time.
	incr := NewEngine(tp)
	incr.SetPolicy(pol)
	if err := incr.Announce(pfxGlobal, anns); err != nil {
		t.Fatal(err)
	}
	for _, a := range scoped {
		if err := incr.AnnounceSite(pfxGlobal, a); err != nil {
			t.Fatal(err)
		}
	}
	enginesStateEqual(t, "incremental", full, incr, pfxGlobal)

	// Fork: the parent announces unscoped, the fork converges the scoped
	// set; the fork matches full convergence, the parent is untouched.
	parent := NewEngine(tp)
	parent.SetPolicy(pol)
	if err := parent.Announce(pfxGlobal, anns); err != nil {
		t.Fatal(err)
	}
	before := snapshotRibs(parent, pfxGlobal)
	f := parent.Fork()
	if f.Policy() != pol {
		t.Fatal("fork must share the parent's policy")
	}
	if err := f.Announce(pfxGlobal, scoped); err != nil {
		t.Fatal(err)
	}
	enginesStateEqual(t, "fork", full, f, pfxGlobal)
	if asn, ok := ribsEqual(parent, before, snapshotRibs(parent, pfxGlobal)); !ok {
		t.Fatalf("parent rib for %s changed under fork policy convergence", asn)
	}
}

// TestPolicyDeterministic: repeated scoped convergence is bit-identical.
func TestPolicyDeterministic(t *testing.T) {
	pol := policy.MustParse("policy tag\nimport -> tag-metro\n")
	_, e, anns := generatedCDNWorld(t, 23)
	e.SetPolicy(pol)
	scoped := policyTestAnnouncements(anns, t)
	if err := e.Announce(pfxGlobal, scoped); err != nil {
		t.Fatal(err)
	}
	want := snapshotRibs(e, pfxGlobal)
	for i := 0; i < 3; i++ {
		if err := e.Announce(pfxGlobal, scoped); err != nil {
			t.Fatal(err)
		}
		if asn, ok := ribsEqual(e, want, snapshotRibs(e, pfxGlobal)); !ok {
			t.Fatalf("round %d: rib for %s differs", i, asn)
		}
	}
}

// TestNoPolicyAllocPin holds the no-policy announce path to its pre-policy
// allocation behaviour: an engine built through the config constructor with
// no policy allocates exactly what the plain constructor does, and enabling
// an accept-everything policy on a provenance-recording engine does not
// allocate either (the policy drop ledger is lazy).
func TestNoPolicyAllocPin(t *testing.T) {
	tp, _, anns := generatedCDNWorld(t, 31)

	measure := func(e *Engine) float64 {
		if err := e.Announce(pfxGlobal, anns); err != nil {
			t.Fatal(err)
		}
		// A GC cycle during the measured runs adds a few runtime
		// allocations to whichever engine it lands on; with collection
		// off the count is exact.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(20, func() {
			if err := e.Announce(pfxGlobal, anns); err != nil {
				t.Fatal(err)
			}
		})
	}

	plain := measure(NewEngine(tp))
	viaConfig := measure(NewEngineWithConfig(tp, EngineConfig{}))
	if plain != viaConfig {
		t.Fatalf("allocs: NewEngine %v vs NewEngineWithConfig{} %v — no-policy path must be untouched", plain, viaConfig)
	}

	provOff := NewEngineWithConfig(tp, EngineConfig{Provenance: true})
	provOn := measure(provOff)
	noop := NewEngineWithConfig(tp, EngineConfig{Provenance: true, Policy: policy.MustParse("policy noop\nimport -> accept\n")})
	withPolicy := measure(noop)
	if withPolicy != provOn {
		t.Fatalf("allocs with accept-all policy %v vs without %v — rejection ledger must stay lazy", withPolicy, provOn)
	}
}

// TestEngineConfigPolicy: the config constructor installs the policy.
func TestEngineConfigPolicy(t *testing.T) {
	tp, _ := figure7World(t)
	pol := policy.MustParse("policy p\nimport -> accept\n")
	e := NewEngineWithConfig(tp, EngineConfig{Policy: pol})
	if e.Policy() != pol {
		t.Fatal("EngineConfig.Policy not installed")
	}
}
