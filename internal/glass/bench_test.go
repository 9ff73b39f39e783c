package glass

import (
	"slices"
	"testing"

	"anysim/internal/topo"
)

// BenchmarkCapture measures a catchment capture of the small world's IM6
// deployment. full walks every probe group of the engine; delta captures a
// fork after one link fault against the base capture, as the server
// captures each published state after an event.
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
	b.Run("delta", func(b *testing.B) {
		// Fail the first public peering link on a fork: a few ribs change
		// and most views are reused. The topology is shared with the base
		// engine, so the link is repaired afterwards.
		li := slices.IndexFunc(w.Topo.Links(), func(l topo.Link) bool { return l.Type == topo.PublicPeer })
		fork := w.Engine.Fork()
		batch := fork.NewBatch()
		if err := batch.SetLink(li, false); err != nil {
			b.Fatal(err)
		}
		if err := fork.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		defer w.Topo.SetLinkEnabled(li, true)
		if len(fork.RibsChangedFrom(w.Engine, dep.Regions[0].Prefix)) == 0 {
			b.Fatal("the link fault changed no rib")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := CaptureFrom(fork, dep, w.Measurer, w.Platform.Groups(), &base, w.Engine); err != nil {
				b.Fatal(err)
			}
		}
	})
}
