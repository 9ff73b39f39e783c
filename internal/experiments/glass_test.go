package experiments

import (
	"testing"

	"anysim/internal/glass"
)

// TestGlassX4 checks the X4 contract: every group classified, 100% of the
// flap's moves attributed, and the site withdrawal recognized as such.
func TestGlassX4(t *testing.T) {
	rep := report(t, "X4")
	data := rep.Data.(*GlassData)
	for _, set := range []glass.CatchmentSet{data.Regional, data.Global} {
		if len(set.Groups) == 0 {
			t.Fatalf("%s: empty capture", set.Dep)
		}
		for _, g := range set.Groups {
			if g.Class == "" {
				t.Errorf("%s %s: unclassified group", set.Dep, g.Group)
			}
		}
	}
	if data.Moved == 0 {
		t.Fatalf("flapping %s moved nothing", data.FlapSite)
	}
	if data.Attributed != data.Moved {
		t.Fatalf("attributed %d of %d moves", data.Attributed, data.Moved)
	}
	withdrawn := 0
	for _, m := range data.Down.Moves {
		if m.FromSite == data.FlapSite {
			if m.Cause != glass.CauseSiteWithdrawn {
				t.Errorf("%s left %s with cause %s", m.Group, data.FlapSite, m.Cause)
			}
			withdrawn++
		}
	}
	if withdrawn == 0 {
		t.Error("no move attributed to the withdrawn site")
	}
}
