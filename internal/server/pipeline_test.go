package server

import (
	"fmt"
	"math/rand"
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

// TestPublishDeltaMatchesFull holds every published load, which Runner.Load
// evaluates as a delta against the load published before it, to a full
// evaluation of the same state: EvaluateOn of the state's fork on the
// tick's demand. Over 500 seeded events of every kind — site, link and IXP
// faults with their repairs, re-announcement flaps and flash crowds —
// ingested one at a time and in 16-event bodies, with clock advances that
// move demand into other time buckets in between.
func TestPublishDeltaMatchesFull(t *testing.T) {
	s := testServer(t, 7)
	sc, err := dynamics.Generate(dynamics.GenConfig{
		Seed: 7, Faults: 300,
		PSite: 0.25, PLink: 0.3, PIXP: 0.1, PCrowd: 0.2, PFlap: 0.15,
	}, s.w.Topo, s.dep)
	if err != nil {
		t.Fatal(err)
	}
	evs := sc.Events
	kinds := map[dynamics.Kind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if len(evs) < 500 || len(kinds) != 9 {
		t.Fatalf("%d events of %d kinds; want at least 500 of all 9", len(evs), len(kinds))
	}
	check := func(st *State) {
		t.Helper()
		want := s.eval.EvaluateOn(st.Engine, s.model.Demand(st.Tick, st.Flash))
		if !reflect.DeepEqual(st.Load, want) {
			t.Fatalf("state %d (tick %d, flash %v): published load differs from a full evaluation", st.Seq, st.Tick, st.Flash)
		}
	}
	check(s.Current())
	rng := rand.New(rand.NewSource(7))
	buckets := map[int]bool{}
	for i := 0; i < len(evs); {
		n := 1
		if rng.Intn(2) == 0 {
			n = 16
		}
		body := evs[i:min(i+n, len(evs))]
		i += len(body)
		if _, err := s.ApplyBatch(body); err != nil {
			t.Fatal(err)
		}
		check(s.Current())
		if rng.Intn(3) == 0 {
			st, err := s.AdvanceTo(s.Current().Tick + 1 + int64(rng.Intn(3)))
			if err != nil {
				t.Fatal(err)
			}
			check(st)
			buckets[st.Bucket] = true
		}
	}
	if len(buckets) < s.model.Buckets() {
		t.Fatalf("clock advances reached %d of %d buckets", len(buckets), s.model.Buckets())
	}
}
