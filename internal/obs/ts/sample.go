package ts

// The canonical sampling glue: one call records the whole load plane of a
// published state under stable series names, so the server's publish path,
// a scenario runner's step loop, and the determinism tests all produce the
// same vocabulary:
//
//	site.util{site=S}        demand / capacity
//	site.demand{site=S}      absolute demand
//	site.share{site=S}       catchment share of total demand
//	site.overload{site=S}    1 when demand > capacity
//	load.max_util            worst site utilization
//	load.unserved            demand with no route
//	load.overloads           count of overloaded sites
//	region.latency.p50{region=A}  served-group effective RTT percentile
//	region.latency.p90{region=A}
//	reconverge.dirty         reconverged ASes, summed per tick
//	reconverge.passes        reconvergence passes, summed per tick
//	churn.moved              probe groups whose site changed, summed per tick
//	churn.lost               probe groups that lost service, summed per tick

import (
	"slices"

	"anysim/internal/geo"
	"anysim/internal/stats"
	"anysim/internal/traffic"
)

// SampleLoad records the load plane of one evaluated report at tick:
// per-site series, the aggregate load series, and per-region effective-RTT
// percentiles over served probe groups (group → region via m, the demand
// model rep was evaluated with). softUtil is the capacity knee for the
// latency penalty (pass Evaluator.Config().SoftUtil). Safe to call several
// times per tick; the last report wins. Follow with Eval to advance the SLO
// lifecycles.
//
// The series are resolved once per site list (see loadSeries) and recorded
// under one lock; the samples are those of one Observe per series.
func (db *DB) SampleLoad(tick int64, m *traffic.Model, rep *traffic.LoadReport, softUtil float64) {
	if db == nil || rep == nil {
		return
	}
	total := rep.Unserved
	for _, sl := range rep.Sites {
		total += sl.Demand
	}
	n := 0
	record := func(s *Series, v float64) {
		s.record(tick, v, false)
		n++
	}
	db.mu.Lock()
	ls := db.loadSeriesLocked(rep.Sites)
	overloads := 0
	for i, sl := range rep.Sites {
		ov := 0.0
		if sl.Overloaded() {
			ov = 1
			overloads++
		}
		share := 0.0
		if total > 0 {
			share = sl.Demand / total
		}
		ss := &ls.site[i]
		record(ss[0], sl.Utilization())
		record(ss[1], sl.Demand)
		record(ss[2], share)
		record(ss[3], ov)
	}
	record(ls.maxUtil, rep.MaxUtilization())
	record(ls.unserved, rep.Unserved)
	record(ls.overloads, float64(overloads))
	if m != nil {
		// Assignments are indexed by group rank in m.Groups.
		for a := range ls.vals {
			ls.vals[a] = ls.vals[a][:0]
		}
		for i, a := range rep.Assignments {
			if a.Site < 0 {
				continue
			}
			area := m.Groups[i].Area
			ls.vals[area] = append(ls.vals[area], rep.EffectiveRTTMs(i, softUtil))
		}
		for _, a := range geo.Areas {
			vs := ls.vals[a]
			if len(vs) == 0 {
				continue
			}
			lat := ls.latency(db, a)
			record(lat[0], stats.PercentileSelect(vs, 50))
			record(lat[1], stats.PercentileSelect(vs, 90))
		}
	}
	db.mu.Unlock()
	db.o.samples.Add(int64(n))
}

// loadSeries is SampleLoad's series resolved for one site list: each
// site's four series by site rank, the aggregate series, and each area's
// latency percentiles by area, which are created once the area has values.
type loadSeries struct {
	sites                        []string     // the site list resolved for
	site                         [][4]*Series // util, demand, share, overload
	maxUtil, unserved, overloads *Series
	lat                          [][2]*Series // by area: p50, p90; nil until first recorded
	vals                         [][]float64  // by area: the selection buffer of its served groups' RTTs
}

// loadSeriesLocked returns SampleLoad's series for a report's site list,
// resolving them again when the list is not the last one's. Caller holds
// db.mu.
func (db *DB) loadSeriesLocked(sites []traffic.SiteLoad) *loadSeries {
	if ls := db.load; ls != nil && slices.EqualFunc(ls.sites, sites, func(id string, sl traffic.SiteLoad) bool { return id == sl.Site }) {
		return ls
	}
	ls := &loadSeries{
		sites:     make([]string, len(sites)),
		site:      make([][4]*Series, len(sites)),
		maxUtil:   db.seriesLocked("load.max_util"),
		unserved:  db.seriesLocked("load.unserved"),
		overloads: db.seriesLocked("load.overloads"),
	}
	for i, sl := range sites {
		ls.sites[i] = sl.Site
		for k, kind := range [4]string{"util", "demand", "share", "overload"} {
			ls.site[i][k] = db.seriesLocked("site." + kind + "{site=" + sl.Site + "}")
		}
	}
	nAreas := 0
	for _, a := range geo.Areas {
		nAreas = max(nAreas, int(a)+1)
	}
	ls.lat, ls.vals = make([][2]*Series, nAreas), make([][]float64, nAreas)
	db.load = ls
	return ls
}

// latency returns an area's latency percentile series, creating them on
// first use. Caller holds db.mu.
func (ls *loadSeries) latency(db *DB, a geo.Area) [2]*Series {
	if ls.lat[a][0] == nil {
		ls.lat[a] = [2]*Series{
			db.seriesLocked("region.latency.p50{region=" + a.String() + "}"),
			db.seriesLocked("region.latency.p90{region=" + a.String() + "}"),
		}
	}
	return ls.lat[a]
}

// SampleReconverge accumulates one routing event's reconvergence cost onto
// the tick (several events within a tick sum).
func (db *DB) SampleReconverge(tick int64, dirty, passes int) {
	if db == nil {
		return
	}
	db.Add(tick, "reconverge.dirty", float64(dirty))
	db.Add(tick, "reconverge.passes", float64(passes))
}

// SampleChurn accumulates one routing event's catchment churn onto the tick.
func (db *DB) SampleChurn(tick int64, moved, lost int) {
	if db == nil {
		return
	}
	db.Add(tick, "churn.moved", float64(moved))
	db.Add(tick, "churn.lost", float64(lost))
}
