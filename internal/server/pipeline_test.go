package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"anysim/internal/dynamics"
	"anysim/internal/obs/ts"
	"anysim/internal/traffic"
)

// TestServeMatchesScenarioRun pins the one tick pipeline: a server ingesting
// flash crowds and faults, and a dynamics.Runner running the same events as
// a scenario on a twin world, record identical load, site and region series
// at every event tick.
func TestServeMatchesScenarioRun(t *testing.T) {
	s := testServer(t, 7)
	site := busiestSite(t, s)
	tp := s.w.Topo
	link := tp.Links()[tp.LinksOf(s.dep.ASN)[0]]
	ixp := tp.IXPs()[0].ID
	sc, err := dynamics.ParseString(fmt.Sprintf(`scenario pipeline
at 1 flash-begin EMEA 4
at 2 site-down %[1]s
at 3 link-down %[2]d %[3]d
at 3 flash-begin LatAm 2.5
at 4 ixp-down %[4]s
at 5 link-up %[2]d %[3]d
at 5 ixp-up %[4]s
at 6 site-up %[1]s
at 7 flash-end EMEA
at 8 reannounce %[1]s
`, site, link.A, link.B, ixp))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sc.Events {
		if _, err := s.Apply(ev); err != nil {
			t.Fatalf("serve %s: %v", ev, err)
		}
	}

	w := testWorld(t, 7)
	model := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})
	r := dynamics.NewRunner(w.Engine, w.Imperva.IM6)
	r.Eval = traffic.NewEvaluator(w.Engine, w.Imperva.IM6, model, traffic.CapacityConfig{})
	r.Series = ts.New(ts.Config{})
	if _, err := r.Run(sc); err != nil {
		t.Fatal(err)
	}

	loadSeries := func(db *ts.DB) []string {
		var out []string
		for _, name := range db.Names() {
			for _, p := range []string{"load.", "site.", "region."} {
				if strings.HasPrefix(name, p) {
					out = append(out, name)
				}
			}
		}
		return out
	}
	names := loadSeries(r.Series)
	if got := loadSeries(s.Series()); !reflect.DeepEqual(got, names) {
		t.Fatalf("series differ:\nserver %v\nrunner %v", got, names)
	}
	if len(names) == 0 {
		t.Fatal("no load series recorded")
	}
	for _, name := range names {
		// The server also published its initial state at tick 0.
		want, _ := r.Series.Query(name, 1, 1<<62, 0)
		got, _ := s.Series().Query(name, 1, 1<<62, 0)
		if len(want) != 8 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nserver %v\nrunner %v", name, got, want)
		}
	}
}
