package geo

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistanceKmKnownPairs(t *testing.T) {
	tests := []struct {
		name   string
		a, b   string // IATA codes
		wantKm float64
		tolKm  float64
	}{
		{"London-Paris", "LON", "PAR", 344, 30},
		{"NewYork-LosAngeles", "NYC", "LAX", 3940, 80},
		{"Singapore-Sydney", "SIN", "SYD", 6290, 120},
		{"Washington-Singapore", "WAS", "SIN", 15550, 300},
		{"Frankfurt-Amsterdam", "FRA", "AMS", 365, 40},
		{"SaoPaulo-Lisbon", "SAO", "LIS", 7940, 160},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := MustCity(tt.a), MustCity(tt.b)
			got := DistanceKm(a.Coord, b.Coord)
			if math.Abs(got-tt.wantKm) > tt.tolKm {
				t.Errorf("DistanceKm(%s,%s) = %.0f km, want %.0f±%.0f", tt.a, tt.b, got, tt.wantKm, tt.tolKm)
			}
		})
	}
}

func TestDistanceKmProperties(t *testing.T) {
	// Clamp arbitrary float64 pairs onto the sphere.
	clamp := func(lat, lon float64) Coord {
		if math.IsNaN(lat) || math.IsInf(lat, 0) {
			lat = 0
		}
		if math.IsNaN(lon) || math.IsInf(lon, 0) {
			lon = 0
		}
		return Coord{Lat: math.Mod(math.Abs(lat), 180) - 90, Lon: math.Mod(math.Abs(lon), 360) - 180}
	}

	symmetric := func(lat1, lon1, lat2, lon2 float64) bool {
		a, b := clamp(lat1, lon1), clamp(lat2, lon2)
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("distance not symmetric: %v", err)
	}

	bounded := func(lat1, lon1, lat2, lon2 float64) bool {
		a, b := clamp(lat1, lon1), clamp(lat2, lon2)
		d := DistanceKm(a, b)
		// Max great-circle distance is half the circumference.
		return d >= 0 && d <= math.Pi*EarthRadiusKm+1
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Errorf("distance out of bounds: %v", err)
	}

	identity := func(lat, lon float64) bool {
		a := clamp(lat, lon)
		return DistanceKm(a, a) < 1e-6
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("distance to self nonzero: %v", err)
	}

	triangle := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a, b, c := clamp(lat1, lon1), clamp(lat2, lon2), clamp(lat3, lon3)
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality violated: %v", err)
	}
}

func TestFiberRTT(t *testing.T) {
	if got := FiberRTTMs(100); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("FiberRTTMs(100) = %v, want 1", got)
	}
	if got := RTTRangeKm(1.5); math.Abs(got-150) > 1e-9 {
		t.Errorf("RTTRangeKm(1.5) = %v, want 150", got)
	}
	// FiberRTTMs and RTTRangeKm are inverses.
	for _, km := range []float64{0, 1, 42, 1234.5, 20000} {
		if got := RTTRangeKm(FiberRTTMs(km)); math.Abs(got-km) > 1e-9 {
			t.Errorf("round trip through rtt for %v km = %v", km, got)
		}
	}
}

func TestAreaOf(t *testing.T) {
	tests := []struct {
		cc   string
		want Area
	}{
		{"DE", EMEA}, {"GB", EMEA}, {"RU", EMEA}, {"ZA", EMEA},
		{"IL", EMEA}, {"AE", EMEA}, {"TR", EMEA}, {"EG", EMEA},
		{"US", NA}, {"CA", NA},
		{"MX", LatAm}, {"BR", LatAm}, {"AR", LatAm}, {"PA", LatAm},
		{"CR", LatAm}, {"CU", LatAm}, {"PR", LatAm},
		{"CN", APAC}, {"JP", APAC}, {"AU", APAC}, {"IN", APAC},
		{"SG", APAC}, {"NZ", APAC}, {"KZ", APAC},
		{"XX", AreaUnknown},
	}
	for _, tt := range tests {
		if got := AreaOf(tt.cc); got != tt.want {
			t.Errorf("AreaOf(%q) = %v, want %v", tt.cc, got, tt.want)
		}
	}
}

func TestEveryCountryHasArea(t *testing.T) {
	for _, cc := range CountryCodes() {
		if AreaOf(cc) == AreaUnknown {
			t.Errorf("country %s has no probe area", cc)
		}
	}
}

func TestParseArea(t *testing.T) {
	for _, a := range Areas {
		got, err := ParseArea(a.String())
		if err != nil || got != a {
			t.Errorf("ParseArea(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	if _, err := ParseArea("Atlantis"); err == nil {
		t.Error("ParseArea accepted an unknown area")
	}
}

func TestCityRegistry(t *testing.T) {
	all := Cities()
	if len(all) < 150 {
		t.Fatalf("city registry too small: %d", len(all))
	}
	seen := map[string]bool{}
	for _, c := range all {
		if seen[c.IATA] {
			t.Errorf("duplicate IATA %s", c.IATA)
		}
		seen[c.IATA] = true
		if !c.Coord.Valid() {
			t.Errorf("city %s has invalid coord %v", c.IATA, c.Coord)
		}
		if c.Area() == AreaUnknown {
			t.Errorf("city %s has unknown area", c.IATA)
		}
	}
	// Each of the paper's four areas must be represented.
	counts := map[Area]int{}
	for _, c := range all {
		counts[c.Area()]++
	}
	for _, a := range Areas {
		if counts[a] < 10 {
			t.Errorf("area %v has only %d cities", a, counts[a])
		}
	}
	// Ids are ranks in Cities(), which is in IATA order, so ids compare as
	// codes do; code -> id -> code round-trips.
	for i, c := range all {
		if i > 0 && all[i-1].IATA >= c.IATA {
			t.Fatalf("city %d %s does not sort after %s", i, c.IATA, all[i-1].IATA)
		}
		id, ok := CityIDOf(c.IATA)
		if !ok || id != CityID(i) || id.String() != c.IATA {
			t.Fatalf("CityIDOf(%s) = %d, %v; want %d", c.IATA, id, ok, i)
		}
	}
	if id, ok := CityIDOf("XXX"); ok || int(id) < len(all) {
		t.Fatalf("CityIDOf(XXX) = %d, %v; want an id no city has", id, ok)
	}
	// The table holds DistanceKm of every ordered pair, bit for bit, in
	// either argument order.
	for i, a := range all {
		for j, b := range all {
			got := math.Float64bits(KmBetween(CityID(i), CityID(j)))
			if got != math.Float64bits(DistanceKm(a.Coord, b.Coord)) || got != math.Float64bits(DistanceKm(b.Coord, a.Coord)) {
				t.Fatalf("KmBetween(%s, %s) = %v; DistanceKm %v / %v", a.IATA, b.IATA, KmBetween(CityID(i), CityID(j)), DistanceKm(a.Coord, b.Coord), DistanceKm(b.Coord, a.Coord))
			}
		}
	}
	// CitiesIn does not sort: its lists are cut from the sorted registry.
	for _, cc := range CountryCodes() {
		in := CitiesIn(cc)
		if !slices.IsSortedFunc(in, func(a, b City) int { return strings.Compare(a.IATA, b.IATA) }) {
			t.Fatalf("CitiesIn(%s) is not in IATA order", cc)
		}
	}
}

func TestNearestCity(t *testing.T) {
	// A point in suburban Paris must resolve to PAR.
	got, dist, ok := NearestCity(Coord{48.80, 2.50})
	if !ok || got.IATA != "PAR" {
		t.Errorf("NearestCity(near Paris) = %v, %v, %v; want PAR", got.IATA, dist, ok)
	}
	if dist > 20 {
		t.Errorf("NearestCity distance = %v km, want < 20", dist)
	}
}

func TestNearestCityIn(t *testing.T) {
	// A point in Detroit is nearer to Windsor/Toronto than to many US cities,
	// but restricted to the US must return DTW.
	got, _, ok := NearestCityIn("US", MustCity("DTW").Coord)
	if !ok || got.IATA != "DTW" {
		t.Errorf("NearestCityIn(US, Detroit) = %v, want DTW", got.IATA)
	}
	// A coordinate near Niagara Falls restricted to Canada resolves to YYZ.
	got, _, ok = NearestCityIn("CA", Coord{43.08, -79.07})
	if !ok || got.IATA != "YYZ" {
		t.Errorf("NearestCityIn(CA, Niagara) = %v, want YYZ", got.IATA)
	}
	if _, _, ok := NearestCityIn("XX", Coord{0, 0}); ok {
		t.Error("NearestCityIn returned ok for unknown country")
	}
}

func TestCitiesIn(t *testing.T) {
	us := CitiesIn("US")
	if len(us) < 20 {
		t.Errorf("expected at least 20 US cities, got %d", len(us))
	}
	for _, c := range us {
		if c.Country != "US" {
			t.Errorf("CitiesIn(US) returned city %s in %s", c.IATA, c.Country)
		}
	}
	if len(CitiesIn("XX")) != 0 {
		t.Error("CitiesIn returned cities for unknown country")
	}
}

func TestCityAreaConsistency(t *testing.T) {
	// Spot-check cities in the paper's narrative.
	checks := map[string]Area{
		"WAS": NA, "IAD": NA, "SIN": APAC, "AMS": EMEA, "FRA": EMEA,
		"LON": EMEA, "CPH": EMEA, "MOW": EMEA, "SAO": LatAm, "BUE": LatAm,
		"MEX": LatAm, "YYZ": NA, "SYD": APAC, "JNB": EMEA,
	}
	for iata, want := range checks {
		if got := MustCity(iata).Area(); got != want {
			t.Errorf("city %s area = %v, want %v", iata, got, want)
		}
	}
}
