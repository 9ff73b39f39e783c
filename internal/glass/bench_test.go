package glass

import (
	"slices"
	"testing"

	"anysim/internal/bgp"
	"anysim/internal/topo"
)

// BenchmarkCapture measures a catchment capture of the small world's IM6
// deployment. full walks every probe group of the engine; the others
// capture a fork after one fault against the base capture, as the server
// captures each published state after an event: delta after a public
// peering link fault, deployment-link after a fault on one of the
// deployment AS's links (its origin rib changes, the last hop of every
// served view), and site-withdraw after one site's withdrawal from the
// first region's prefix (the prefix's site set changes).
func BenchmarkCapture(b *testing.B) {
	w := provWorld(b, 5)
	dep, probes := w.Imperva.IM6, w.Platform.Retained()
	base, err := Capture(w.Engine, dep, w.Measurer, probes)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Capture(w.Engine, dep, w.Measurer, probes); err != nil {
				b.Fatal(err)
			}
		}
	})
	// delta captures fork against the base capture. The topology is shared
	// with the base engine, so a link fault is repaired afterwards.
	delta := func(b *testing.B, fault func(fork *bgp.Engine) error) {
		fork := w.Engine.Fork()
		if err := fault(fork); err != nil {
			b.Fatal(err)
		}
		if len(fork.RibsChangedFrom(w.Engine, dep.Regions[0].Prefix)) == 0 {
			b.Fatal("the fault changed no rib")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := CaptureFrom(fork, dep, w.Measurer, w.Platform.Groups(), &base, w.Engine); err != nil {
				b.Fatal(err)
			}
		}
	}
	linkFault := func(li int) func(*bgp.Engine) error {
		return func(fork *bgp.Engine) error {
			batch := fork.NewBatch()
			if err := batch.SetLink(li, false); err != nil {
				return err
			}
			return fork.ApplyBatch(batch)
		}
	}
	b.Run("delta", func(b *testing.B) {
		li := slices.IndexFunc(w.Topo.Links(), func(l topo.Link) bool { return l.Type == topo.PublicPeer })
		defer w.Topo.SetLinkEnabled(li, true)
		delta(b, linkFault(li))
	})
	b.Run("deployment-link", func(b *testing.B) {
		li := slices.IndexFunc(w.Topo.Links(), func(l topo.Link) bool { return l.A == dep.ASN || l.B == dep.ASN })
		defer w.Topo.SetLinkEnabled(li, true)
		delta(b, linkFault(li))
	})
	b.Run("site-withdraw", func(b *testing.B) {
		prefix := dep.Regions[0].Prefix
		site := w.Engine.Announcements(prefix)[0].Site
		delta(b, func(fork *bgp.Engine) error { return fork.WithdrawSite(prefix, site) })
	})
}
