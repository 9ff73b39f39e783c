package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"anysim/internal/atlas"
	"anysim/internal/core"
	"anysim/internal/geo"
	"anysim/internal/sitemap"
	"anysim/internal/worldgen"
)

var sharedCtx *Context

func testCtx(t *testing.T) *Context {
	t.Helper()
	if sharedCtx == nil {
		w, err := worldgen.Default()
		if err != nil {
			t.Fatal(err)
		}
		sharedCtx = NewContext(w)
	}
	return sharedCtx
}

// sharedRun is the one RunAll of this test binary over testCtx, so that
// every test reading an experiment's report reads the same run instead of
// running the experiment again.
var sharedRun struct {
	done    bool
	reports []*Report
	err     error
}

// runAll returns the binary's shared RunAll, running it on first use.
func runAll(t *testing.T) []*Report {
	t.Helper()
	if !sharedRun.done {
		ctx := testCtx(t)
		sharedRun.reports, sharedRun.err = RunAll(ctx)
		sharedRun.done = true
	}
	if sharedRun.err != nil {
		t.Fatal(sharedRun.err)
	}
	return sharedRun.reports
}

// report returns experiment id's report from the shared RunAll.
func report(t *testing.T, id string) *Report {
	t.Helper()
	for _, r := range runAll(t) {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("RunAll produced no %s report", id)
	return nil
}

var update = flag.Bool("update", false, "rewrite results/ and results/series from this run")

// resultsDir is the published reports, relative to this package.
const resultsDir = "../../results"

// TestRunAll is the golden-results test: the shared RunAll over the
// canonical world, each report compared byte for byte with its published
// results/<id>.txt and each curve with results/series. Run with -update to
// regenerate them (the same files `go run ./cmd/repro -out results -data
// results/series` writes).
func TestRunAll(t *testing.T) {
	reports := runAll(t)
	if len(reports) != len(All()) {
		t.Fatalf("got %d reports, want %d", len(reports), len(All()))
	}
	want := map[string]string{} // path -> content
	for _, r := range reports {
		if r.ID == "" || r.Title == "" || strings.TrimSpace(r.Text) == "" {
			t.Errorf("report %q incomplete", r.ID)
		}
		if r.Data == nil {
			t.Errorf("report %s has no data", r.ID)
		}
		path := filepath.Join(resultsDir, strings.ToLower(r.ID)+".txt")
		if _, dup := want[path]; dup {
			t.Errorf("duplicate report ID %s", r.ID)
		}
		want[path] = r.FileText()
		for file, content := range r.SeriesFiles() {
			want[filepath.Join(resultsDir, "series", file)] = content
		}
	}
	paths := make([]string, 0, len(want))
	for path := range want {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	if *update {
		for _, path := range paths {
			if err := os.WriteFile(path, []byte(want[path]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, path := range paths {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%v (regenerate with -update)", err)
			continue
		}
		if string(got) != want[path] {
			t.Errorf("%s differs from this run (regenerate with -update):\n%s", path, firstDiff(string(got), want[path]))
		}
	}
	// Every published file must come from a report: nothing stale.
	published, err := filepath.Glob(filepath.Join(resultsDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	series, err := filepath.Glob(filepath.Join(resultsDir, "series", "*.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(published, series...) {
		if _, ok := want[path]; !ok {
			t.Errorf("%s is published but no report produces it", path)
		}
	}
}

// firstDiff describes the first line where the published text and this
// run's differ.
func firstDiff(published, run string) string {
	a, b := strings.Split(published, "\n"), strings.Split(run, "\n")
	for i := 0; i < len(a) || i < len(b); i++ {
		var la, lb string
		if i < len(a) {
			la = a[i]
		}
		if i < len(b) {
			lb = b[i]
		}
		if la != lb {
			return fmt.Sprintf("line %d:\n  published: %q\n  this run:  %q", i+1, la, lb)
		}
	}
	return "(no line differs)"
}

func TestTable1MatchesPaperCounts(t *testing.T) {
	rep := report(t, "T1")
	data := rep.Data.(*Table1Data)
	// Published columns are exact.
	wantPub := map[string]map[geo.Area]int{
		"EG-Pub":  {geo.APAC: 19, geo.EMEA: 26, geo.NA: 24, geo.LatAm: 10},
		"IM-Pub":  {geo.APAC: 17, geo.EMEA: 15, geo.NA: 12, geo.LatAm: 6},
		"Tangled": {geo.APAC: 2, geo.EMEA: 5, geo.NA: 3, geo.LatAm: 2},
	}
	for col, want := range wantPub {
		for area, n := range want {
			if got := data.Counts[col][area]; got != n {
				t.Errorf("%s/%v = %d, want %d", col, area, got, n)
			}
		}
	}
	// Enumerated columns: discovered counts are bounded by the active
	// deployments and reasonably complete.
	actives := map[string]int{"EG-3": 43, "EG-4": 47, "IM-6": 48, "IM-NS": 49}
	for col, active := range actives {
		total := 0
		for _, area := range geo.Areas {
			total += data.Counts[col][area]
		}
		if total > active {
			t.Errorf("%s discovered %d sites, more than the %d active", col, total, active)
		}
		if total < active*6/10 {
			t.Errorf("%s discovered only %d of %d active sites", col, total, active)
		}
	}
}

func TestTable2DataShape(t *testing.T) {
	rep := report(t, "T2")
	data := rep.Data.(*Table2Data)
	for _, cdnName := range []string{"Edgio-3", "Edgio-4", "Imperva-6"} {
		for _, mode := range []atlas.DNSMode{atlas.LDNS, atlas.ADNS} {
			eff := data.Eff[cdnName][mode]
			if eff == nil {
				t.Fatalf("missing efficiency for %s/%v", cdnName, mode)
			}
			for _, area := range geo.Areas {
				if eff.Groups[area] == 0 {
					t.Errorf("%s/%v: no groups in %v", cdnName, mode, area)
				}
			}
		}
	}
	// The paper finds Imperva-6's mapping less efficient than Edgio's
	// (rigid six-region partition): compare the pooled efficient fraction.
	pooled := func(name string) float64 {
		eff := data.Eff[name][atlas.LDNS]
		var num, den float64
		for _, area := range geo.Areas {
			num += eff.Fraction(area, core.MappingEfficient) * float64(eff.Groups[area])
			den += float64(eff.Groups[area])
		}
		return num / den
	}
	if pooled("Imperva-6") > pooled("Edgio-3") {
		t.Errorf("Imperva-6 efficiency %.3f should not beat Edgio-3 %.3f", pooled("Imperva-6"), pooled("Edgio-3"))
	}
}

func TestTable3HeadlineReduction(t *testing.T) {
	rep := report(t, "T3")
	data := rep.Data.(*Table3Data)
	for _, area := range []geo.Area{geo.NA, geo.EMEA} {
		if data.Regional[area][90] >= data.Global[area][90] {
			t.Errorf("%v: regional p90 %.1f !< global p90 %.1f", area, data.Regional[area][90], data.Global[area][90])
		}
	}
	if f := data.Filter.RetainedFraction(); f < 0.5 {
		t.Errorf("retained fraction %.2f too low", f)
	}
}

func TestFigure3Dominance(t *testing.T) {
	rep := report(t, "F3")
	data := rep.Data.(*Figure3Data)
	if len(data.Networks) != 4 {
		t.Fatalf("networks = %v", data.Networks)
	}
	for _, n := range data.Networks {
		if data.PHops[n][sitemap.ByRDNS] < 0.4 {
			t.Errorf("%s: rDNS fraction %.2f too low", n, data.PHops[n][sitemap.ByRDNS])
		}
		if data.Traces[n][sitemap.Unresolved] > 0.30 {
			t.Errorf("%s: unresolved traces %.2f too high", n, data.Traces[n][sitemap.Unresolved])
		}
	}
}

func TestFigure4LatAmImprovement(t *testing.T) {
	rep := report(t, "F4")
	data := rep.Data.(*Figure4Data)
	// Edgio-4 serves LatAm from South American sites; Edgio-3 maps South
	// America to North America. The 80th-percentile latency must drop.
	eg3 := data.RTT["EG3-LatAm"]
	eg4 := data.RTT["EG4-LatAm"]
	if eg3 == nil || eg4 == nil || eg3.Len() == 0 || eg4.Len() == 0 {
		t.Fatal("missing LatAm series")
	}
	if eg4.Quantile(0.8) >= eg3.Quantile(0.8) {
		t.Errorf("EG4 LatAm p80 %.1f !< EG3 LatAm p80 %.1f", eg4.Quantile(0.8), eg3.Quantile(0.8))
	}
	// Distances must drop too.
	d3, d4 := data.Distance["EG3-LatAm"], data.Distance["EG4-LatAm"]
	if d4.Quantile(0.8) >= d3.Quantile(0.8) {
		t.Errorf("EG4 LatAm p80 distance %.0f !< EG3 %.0f", d4.Quantile(0.8), d3.Quantile(0.8))
	}
}

func TestFigure5CorrelatesRTTAndDistance(t *testing.T) {
	rep := report(t, "F5")
	data := rep.Data.(*Figure5Data)
	// In EMEA and NA (where regional helps), the fraction of groups with
	// distance reduction should be of the same order as those with
	// latency reduction (the paper observes good correlation).
	for _, area := range []geo.Area{geo.EMEA, geo.NA} {
		if data.DeltaRTT[area].Len() == 0 {
			t.Errorf("no pairs in %v", area)
		}
	}
}

func TestFigure6Headline(t *testing.T) {
	rep := report(t, "F6")
	data := rep.Data.(*Figure6Data)
	if data.BestK < 3 || data.BestK > 6 {
		t.Fatalf("best k = %d", data.BestK)
	}
	for _, area := range geo.Areas {
		if data.Route53[area].Len() == 0 || data.Global[area].Len() == 0 {
			t.Errorf("missing series in %v", area)
			continue
		}
		// The §6.2 headline: regional beats global in every area at p90.
		if data.P90ReductionPct[area] <= 0 {
			t.Errorf("%v: p90 reduction %.1f%%, want positive", area, data.P90ReductionPct[area])
		}
		// Route 53 country mapping is close to direct assignment (its
		// geolocation errors have negligible impact, §6.2).
		if data.Direct[area].Len() > 0 {
			d50, r50 := data.Direct[area].Quantile(0.5), data.Route53[area].Quantile(0.5)
			if r50 > d50+25 {
				t.Errorf("%v: Route53 p50 %.1f far above direct %.1f", area, r50, d50)
			}
		}
	}
}

func TestSection54Shape(t *testing.T) {
	rep := report(t, "S54")
	data := rep.Data.(*Section54Data)
	if data.Limited.ImprovedGroups == 0 {
		t.Fatal("no improved groups")
	}
	// AS-relationship overrides dominate peering-type overrides in both
	// visibility regimes (44.1% vs 1.6% in the paper).
	if data.Limited.Fraction(core.CauseASRelationship) <= data.Limited.Fraction(core.CausePeeringType) {
		t.Error("AS-relationship should dominate under limited visibility")
	}
	// Limited visibility can only reduce peering-type attributions.
	if data.Limited.Counts[core.CausePeeringType] > data.Full.Counts[core.CausePeeringType] {
		t.Error("limited visibility found more peering-type cases than full")
	}
}

func TestFigure8Validation(t *testing.T) {
	rep := report(t, "F8")
	data := rep.Data.(*Figure8Data)
	if data.Pairs == 0 {
		t.Fatal("no same-site pairs")
	}
	if data.MedianAbsMs > 3 {
		t.Errorf("median |dRTT| = %.2f ms, want small", data.MedianAbsMs)
	}
	if data.WithinFive < 0.8 {
		t.Errorf("within-5ms fraction = %.2f", data.WithinFive)
	}
}

func TestExtensionsBaselines(t *testing.T) {
	ctx := testCtx(t)
	rep := report(t, "X1")
	data := rep.Data.(*ExtensionsData)
	// The §2.2 positioning: DailyCatch can only pick the better of its two
	// configurations, and both it and the AnyOpt-style optimizer leave a
	// global system that regional anycast (ReOpt) still beats at the tail.
	if data.DailyCatch.Chosen().P90Ms > data.DailyCatch.Transit.P90Ms ||
		data.DailyCatch.Chosen().P90Ms > data.DailyCatch.Peers.P90Ms {
		t.Error("DailyCatch did not pick its better configuration")
	}
	if data.RegionalP90 >= data.DailyCatch.Chosen().P90Ms {
		t.Errorf("regional p90 %.1f should beat DailyCatch's %.1f", data.RegionalP90, data.DailyCatch.Chosen().P90Ms)
	}
	if data.RegionalP90 >= data.GlobalP90 {
		t.Errorf("regional p90 %.1f should beat global %.1f", data.RegionalP90, data.GlobalP90)
	}
	if data.SiteOpt.Announcements < 20 {
		t.Errorf("AnyOpt-style optimizer performed only %d announcements; its cost is the point", data.SiteOpt.Announcements)
	}

	// The experiment must restore the default global configuration: the
	// pooled p90 measured now must match the baseline it reported.
	after, err := pooledP90(ctx, ctx.World.Tangled.Global.Regions[0].Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if after != data.GlobalP90 {
		t.Errorf("global configuration not restored: p90 %.2f vs baseline %.2f", after, data.GlobalP90)
	}
}

func TestFigure2MapsRendered(t *testing.T) {
	rep := report(t, "F2")
	if !strings.Contains(rep.Text, "S site (announcing)") {
		t.Error("Figure 2 report missing partition maps")
	}
}

func TestTable6Generalisation(t *testing.T) {
	rep := report(t, "T6")
	data := rep.Data.(*Table6Data)
	// Representative and other-hostname percentiles agree within noise for
	// the well-populated areas.
	for _, set := range []string{"Imperva-6", "Edgio-3", "Edgio-4"} {
		for _, area := range []geo.Area{geo.EMEA, geo.NA} {
			repP := data.Rep[set][area][90]
			othP := data.Others[set][area][90]
			if othP == 0 {
				t.Errorf("%s/%v: no other-hostname data", set, area)
				continue
			}
			if diff := repP - othP; diff > 12 || diff < -12 {
				t.Errorf("%s/%v: rep p90 %.1f vs others %.1f differ too much", set, area, repP, othP)
			}
		}
	}
}
