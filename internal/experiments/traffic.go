package experiments

import (
	"fmt"
	"math"
	"sort"

	"anysim/internal/asciimap"
	"anysim/internal/cdn"
	"anysim/internal/dynamics"
	"anysim/internal/geo"
	"anysim/internal/stats"
	"anysim/internal/traffic"
)

// x3FlashArea / x3FlashFactor define the X3 flash-crowd schedule: demand in
// one paper area scales by the factor for the duration of the event. The
// factor is chosen so the crowd overloads sites of both deployments but
// stays within what steering can resolve.
const (
	x3FlashArea   = geo.LatAm
	x3FlashFactor = 2.8
)

// TrafficRunSummary is one deployment's behaviour under the X3 flash crowd.
type TrafficRunSummary struct {
	Deployment string
	// OverloadsBefore/After count overloaded sites at flash onset and
	// after steering.
	OverloadsBefore, OverloadsAfter int
	// MaxUtilBefore/After are the worst site utilizations.
	MaxUtilBefore, MaxUtilAfter float64
	// Actions taken by the steering loop, in order.
	Actions []traffic.Action
	// Stranded counts probe groups that lost service due to steering.
	Stranded int
	// Inflations are per-group effective-RTT increases (ms) versus the
	// no-flash baseline, over groups served in both states.
	Inflations []float64
}

// p returns a percentile of the run's inflation distribution.
func (s *TrafficRunSummary) p(q float64) float64 { return stats.Percentile(s.Inflations, q) }

// TrafficData is the X3 result.
type TrafficData struct {
	Bucket   int
	Area     string
	Factor   float64
	Regional TrafficRunSummary
	Global   TrafficRunSummary
}

// Traffic (X3) quantifies the paper's control argument (§5-§6): when a
// flash crowd overloads sites, a regional deployment can steer load with
// surgical BGP knobs — prepending within the region, transit-only configs,
// cross-announcing the crowded prefix from spare sites elsewhere — while a
// global deployment's only lever, prepending the one shared prefix, moves
// catchments it never aimed at. An identical flash-crowd schedule (demand
// in one area scaled up, expressed as dynamics flash events) is applied to
// Imperva-6 and Imperva-NS under the same demand and capacity models;
// steering runs until overload clears or the knob budget is spent, and
// each group's effective RTT (propagation + load penalty) is compared to
// the no-flash baseline. All announcements are restored afterwards.
func Traffic(ctx *Context) (*Report, error) {
	w := ctx.World
	model := traffic.NewModel(w.Platform, traffic.DemandConfig{Seed: w.Config.Seed})

	// The flash hits at the bucket where the crowded area's demand peaks.
	bucket := model.PeakBucket(x3FlashArea)

	// Capacity is provisioned against baseline routing, before any
	// steering perturbs catchments.
	evReg := traffic.NewEvaluator(w.Engine, w.Imperva.IM6, model, traffic.CapacityConfig{})
	evGlob := traffic.NewEvaluator(w.Engine, w.Imperva.NS, model, traffic.CapacityConfig{})

	// The schedule is expressed in the dynamics DSL so flash crowds are
	// replayable scenario events like any fault.
	sc, err := dynamics.ParseString(fmt.Sprintf(
		"scenario x3-flash\nat 1 flash-begin %s %g\nat 2 flash-end %s\n",
		x3FlashArea, x3FlashFactor, x3FlashArea))
	if err != nil {
		return nil, fmt.Errorf("experiments: X3 schedule: %w", err)
	}

	data := &TrafficData{Bucket: bucket, Area: x3FlashArea.String(), Factor: x3FlashFactor}
	var maps string
	for _, run := range []struct {
		name string
		ev   *traffic.Evaluator
		cfg  traffic.SteeringConfig
		out  *TrafficRunSummary
	}{
		// Regional: the full knob set. Global: a single shared prefix
		// leaves prepending as the only lever. Both get the same budget.
		{"IM-6", evReg, traffic.SteeringConfig{MaxActions: 64, AllowSelective: true, AllowCrossAnnounce: true}, &data.Regional},
		{"IM-NS", evGlob, traffic.SteeringConfig{MaxActions: 64}, &data.Global},
	} {
		runner := dynamics.NewRunner(w.Engine, run.ev.Dep)
		summary, heat, err := runFlashCrowd(runner, sc, run.ev, run.cfg, int64(bucket))
		if err != nil {
			return nil, fmt.Errorf("experiments: X3 %s: %w", run.name, err)
		}
		summary.Deployment = run.name
		*run.out = *summary
		maps += heat
	}

	text := renderTraffic(data) + "\n" + maps
	series := map[string][]stats.Point{
		"inflation-cdf-regional": penaltyCDF(data.Regional.Inflations),
		"inflation-cdf-global":   penaltyCDF(data.Global.Inflations),
	}
	return &Report{Text: text, Data: data, Series: series}, nil
}

// runFlashCrowd replays the flash schedule for one deployment at a tick of
// the peak bucket: evaluate the baseline, apply the flash events, steer,
// measure, restore. It returns the run summary and the utilization heat
// maps.
func runFlashCrowd(runner *dynamics.Runner, sc *dynamics.Scenario, ev *traffic.Evaluator, cfg traffic.SteeringConfig, tick int64) (*TrafficRunSummary, string, error) {
	soft := ev.Config().SoftUtil
	baseline := ev.Evaluate(ev.Model.Demand(tick, nil))

	// Apply the schedule's onset events; the runner tracks the active
	// crowd factors that shape the demand matrix.
	var flashEvents []dynamics.Event
	for _, evn := range sc.Events {
		if evn.Kind == dynamics.FlashBegin {
			if err := runner.Apply(evn); err != nil {
				return nil, "", err
			}
			flashEvents = append(flashEvents, evn)
		}
	}
	st := traffic.NewSteerer(ev, cfg)
	res, err := st.Resolve(ev.Model.Demand(tick, runner.ActiveFlash()))
	if err != nil {
		return nil, "", err
	}

	s := &TrafficRunSummary{
		OverloadsBefore: len(res.Initial.Overloads()),
		OverloadsAfter:  len(res.Final.Overloads()),
		MaxUtilBefore:   res.Initial.MaxUtilization(),
		MaxUtilAfter:    res.Final.MaxUtilization(),
		Actions:         res.Actions,
	}
	for i, a := range baseline.Assignments {
		if a.Site == "" {
			continue
		}
		before := baseline.EffectiveRTTMs(i, soft)
		after := res.Final.EffectiveRTTMs(i, soft)
		if math.IsInf(after, 1) {
			s.Stranded++
			continue
		}
		s.Inflations = append(s.Inflations, after-before)
	}
	sort.Float64s(s.Inflations)

	heat := fmt.Sprintf("%s utilization under the flash crowd (before steering):\n%s", ev.Dep.Name, heatMap(ev.Dep, res.Initial))
	heat += fmt.Sprintf("%s utilization after steering:\n%s", ev.Dep.Name, heatMap(ev.Dep, res.Final))

	// Restore: unwind the steering, then end the crowd.
	if err := st.Reset(); err != nil {
		return nil, "", err
	}
	for _, evn := range flashEvents {
		if err := runner.Apply(dynamics.Event{Kind: dynamics.FlashEnd, Area: evn.Area}); err != nil {
			return nil, "", err
		}
	}
	return s, heat, nil
}

// heatMap renders a deployment's per-site utilization as a world map.
func heatMap(dep *cdn.Deployment, rep *traffic.LoadReport) string {
	points := make([]asciimap.HeatPoint, 0, len(rep.Sites))
	for _, sl := range rep.Sites {
		points = append(points, asciimap.HeatPoint{
			Coord: geo.MustCity(sl.City).Coord,
			Value: sl.Utilization(),
		})
	}
	m := asciimap.New(100, 22)
	m.Plot(asciimap.HeatMarkers(points))
	return m.String() + asciimap.HeatLegend() + "\n"
}

// renderTraffic builds the X3 text report.
func renderTraffic(d *TrafficData) string {
	tb := &stats.Table{Header: []string{"deployment", "overloads", "resolved", "max util", "actions", "shed RTT cost", "inflation p50/p90", "stranded"}}
	for _, s := range []*TrafficRunSummary{&d.Regional, &d.Global} {
		var kinds [4]int
		var cost float64
		for _, a := range s.Actions {
			kinds[a.Kind]++
			cost += a.RTTCostMs
		}
		mean := 0.0
		if len(s.Actions) > 0 {
			mean = cost / float64(len(s.Actions))
		}
		tb.AddRow(s.Deployment,
			fmt.Sprintf("%d -> %d", s.OverloadsBefore, s.OverloadsAfter),
			fmt.Sprintf("%v", s.OverloadsAfter == 0),
			fmt.Sprintf("%.2f -> %.2f", s.MaxUtilBefore, s.MaxUtilAfter),
			fmt.Sprintf("%dp/%dt/%dx/%dw", kinds[traffic.ActionPrepend], kinds[traffic.ActionSelective], kinds[traffic.ActionCrossAnnounce], kinds[traffic.ActionPrependWave]),
			stats.Fmt1(mean)+" ms",
			stats.Fmt1(s.p(50))+"/"+stats.Fmt1(s.p(90))+" ms",
			fmt.Sprintf("%d", s.Stranded))
	}
	text := fmt.Sprintf("flash crowd: %s demand x%.1f at bucket %d\n\n%s\n", d.Area, d.Factor, d.Bucket, tb.String())
	text += "steering actions (regional):\n"
	text += renderActions(d.Regional.Actions)
	text += "steering actions (global):\n"
	text += renderActions(d.Global.Actions)
	return text
}

func renderActions(actions []traffic.Action) string {
	if len(actions) == 0 {
		return "  (none)\n"
	}
	tb := &stats.Table{Header: []string{"action", "util", "shed", "RTT cost"}}
	for _, a := range actions {
		tb.AddRow(a.String(),
			fmt.Sprintf("%.2f -> %.2f", a.UtilBefore, a.UtilAfter),
			fmt.Sprintf("%.0f", a.ShedRate),
			stats.Fmt1(a.RTTCostMs)+" ms")
	}
	return tb.String()
}
