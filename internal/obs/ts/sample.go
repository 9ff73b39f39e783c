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
func (db *DB) SampleLoad(tick int64, m *traffic.Model, rep *traffic.LoadReport, softUtil float64) {
	if db == nil || rep == nil {
		return
	}
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
	if m == nil {
		return
	}
	// Assignments are indexed by group rank in m.Groups.
	byArea := map[geo.Area][]float64{}
	for i, a := range rep.Assignments {
		if a.Site == "" {
			continue
		}
		area := m.Groups[i].Area
		byArea[area] = append(byArea[area], rep.EffectiveRTTMs(i, softUtil))
	}
	for _, a := range geo.Areas {
		vs := byArea[a]
		if len(vs) == 0 {
			continue
		}
		db.Observe(tick, "region.latency.p50{region="+a.String()+"}", stats.Percentile(vs, 50))
		db.Observe(tick, "region.latency.p90{region="+a.String()+"}", stats.Percentile(vs, 90))
	}
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
