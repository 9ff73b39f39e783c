package ts_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"anysim/internal/geo"
	"anysim/internal/obs"
	"anysim/internal/obs/ts"
	"anysim/internal/stats"
	"anysim/internal/traffic"
	"anysim/internal/worldgen"
)

// observeLoad records what SampleLoad records, one Observe per series name:
// the reference for SampleLoad's resolved series.
func observeLoad(db *ts.DB, tick int64, m *traffic.Model, rep *traffic.LoadReport, softUtil float64) {
	total := rep.Unserved
	for _, sl := range rep.Sites {
		total += sl.Demand
	}
	overloads := 0
	for _, sl := range rep.Sites {
		ov := 0.0
		if sl.Overloaded() {
			ov = 1
			overloads++
		}
		share := 0.0
		if total > 0 {
			share = sl.Demand / total
		}
		db.Observe(tick, "site.util{site="+sl.Site+"}", sl.Utilization())
		db.Observe(tick, "site.demand{site="+sl.Site+"}", sl.Demand)
		db.Observe(tick, "site.share{site="+sl.Site+"}", share)
		db.Observe(tick, "site.overload{site="+sl.Site+"}", ov)
	}
	db.Observe(tick, "load.max_util", rep.MaxUtilization())
	db.Observe(tick, "load.unserved", rep.Unserved)
	db.Observe(tick, "load.overloads", float64(overloads))
	byArea := map[geo.Area][]float64{}
	for i, a := range rep.Assignments {
		if a.Site != "" {
			area := m.Groups[i].Area
			byArea[area] = append(byArea[area], rep.EffectiveRTTMs(i, softUtil))
		}
	}
	for _, a := range geo.Areas {
		if vs := byArea[a]; len(vs) > 0 {
			db.Observe(tick, "region.latency.p50{region="+a.String()+"}", stats.Percentile(vs, 50))
			db.Observe(tick, "region.latency.p90{region="+a.String()+"}", stats.Percentile(vs, 90))
		}
	}
}

// TestSampleLoadResolvedSeries feeds one DB, in turn, the load reports of
// three site lists: two deployments of different sizes, and the first with
// its sites in reverse order, so SampleLoad resolves its series again at
// every report. The DB must hold what per-name Observe calls record: the
// same names, the same points, and the same ts.samples count.
func TestSampleLoadResolvedSeries(t *testing.T) {
	w, err := worldgen.Small(7)
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: 1})
	rev := *w.Imperva.IM6
	rev.Sites = slices.Clone(rev.Sites)
	slices.Reverse(rev.Sites)
	evs := []*traffic.Evaluator{
		traffic.NewEvaluator(w.Engine, w.Imperva.IM6, m, traffic.CapacityConfig{}),
		traffic.NewEvaluator(w.Engine, w.Edgio.EG3, m, traffic.CapacityConfig{}),
		traffic.NewEvaluator(w.Engine, &rev, m, traffic.CapacityConfig{}),
	}
	if len(w.Imperva.IM6.Sites) == len(w.Edgio.EG3.Sites) || rev.Sites[0].ID == w.Imperva.IM6.Sites[0].ID {
		t.Fatal("the site lists do not differ as the test needs")
	}
	newDB := func() (*ts.DB, *obs.Registry) {
		reg := obs.NewRegistry()
		db := ts.New(ts.Config{Capacity: 16})
		db.Instrument(reg, nil)
		return db, reg
	}
	got, gotReg := newDB()
	want, wantReg := newDB()
	flash := map[geo.Area]float64{geo.EMEA: 4}
	for tick := int64(0); tick < 24; tick++ {
		ev := evs[tick%3]
		rep := ev.Evaluate(m.Demand(tick, flash))
		soft := ev.Config().SoftUtil
		got.SampleLoad(tick, m, rep, soft)
		observeLoad(want, tick, m, rep, soft)
		// A report sampled twice in one tick: the last one wins.
		if tick%3 == 0 {
			rep = evs[0].Evaluate(m.Demand(tick, nil))
			got.SampleLoad(tick, m, rep, soft)
			observeLoad(want, tick, m, rep, soft)
		}
	}
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("series names:\n%v\nwant\n%v", got.Names(), want.Names())
	}
	if g, w := got.AppendJSON(nil), want.AppendJSON(nil); !bytes.Equal(g, w) {
		t.Fatalf("series differ from per-name Observe:\n%s\nwant\n%s", g, w)
	}
	g, wn := gotReg.Counter("ts.samples").Value(), wantReg.Counter("ts.samples").Value()
	if g != wn || g == 0 {
		t.Fatalf("ts.samples = %d, per-name Observe counts %d", g, wn)
	}
}
