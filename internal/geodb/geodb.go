// Package geodb models commercial IP-geolocation databases. The paper uses
// three (MaxMind, ipinfo, EdgeScape) and treats them as unreliable at the
// city level; it also observes that IPs of international transit providers
// often geolocate to the provider's home country rather than where the
// router actually is. Databases here are built from a ground-truth registry
// with independent, seeded error processes reproducing those failure modes.
package geodb

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"sync"

	"anysim/internal/geo"
	"anysim/internal/keyrand"
)

// Location is a database answer: a country and, when available, a city.
type Location struct {
	Country string // ISO alpha-2
	City    string // IATA code, possibly ""
}

// Entry is a ground-truth fact about an address block.
type Entry struct {
	Prefix netip.Prefix
	Loc    Location
	// TransitHome, when non-empty, marks the block as belonging to an
	// international transit provider homed in that country; databases
	// frequently geolocate such blocks to the home country.
	TransitHome string
}

// Truth is the ground-truth registry of the simulated address plan. Lookup
// is longest-prefix-match, implemented as a binary search per distinct
// prefix length (at most 33), so registries with tens of thousands of
// entries answer in microseconds.
type Truth struct {
	entries []Entry
	// byBits[b] is the index, sorted by masked start address, of entries
	// with prefix length b.
	byBits [33][]int
	sorted bool
}

// Add registers a ground-truth entry. More specific prefixes win on lookup.
func (t *Truth) Add(e Entry) error {
	if !e.Prefix.IsValid() || !e.Prefix.Addr().Is4() {
		return fmt.Errorf("geodb: invalid prefix %v", e.Prefix)
	}
	if _, ok := geo.CountryByCode(e.Loc.Country); !ok {
		return fmt.Errorf("geodb: unknown country %q", e.Loc.Country)
	}
	if e.Loc.City != "" {
		if _, ok := geo.CityByIATA(e.Loc.City); !ok {
			return fmt.Errorf("geodb: unknown city %q", e.Loc.City)
		}
	}
	e.Prefix = e.Prefix.Masked()
	t.entries = append(t.entries, e)
	t.sorted = false
	return nil
}

// Len returns the number of registered entries.
func (t *Truth) Len() int { return len(t.entries) }

func addrU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func (t *Truth) buildIndex() {
	if t.sorted {
		return
	}
	for b := range t.byBits {
		t.byBits[b] = t.byBits[b][:0]
	}
	for i, e := range t.entries {
		t.byBits[e.Prefix.Bits()] = append(t.byBits[e.Prefix.Bits()], i)
	}
	for b := range t.byBits {
		idx := t.byBits[b]
		sort.Slice(idx, func(i, j int) bool {
			return addrU32(t.entries[idx[i]].Prefix.Addr()) < addrU32(t.entries[idx[j]].Prefix.Addr())
		})
	}
	t.sorted = true
}

// Lookup returns the most specific ground-truth entry covering addr.
func (t *Truth) Lookup(addr netip.Addr) (Entry, bool) {
	if !addr.Is4() {
		return Entry{}, false
	}
	t.buildIndex()
	v := addrU32(addr)
	for bits := 32; bits >= 0; bits-- {
		idx := t.byBits[bits]
		if len(idx) == 0 {
			continue
		}
		// Find the last entry whose start <= v.
		i := sort.Search(len(idx), func(i int) bool {
			return addrU32(t.entries[idx[i]].Prefix.Addr()) > v
		}) - 1
		if i < 0 {
			continue
		}
		if e := t.entries[idx[i]]; e.Prefix.Contains(addr) {
			return e, true
		}
	}
	return Entry{}, false
}

// Entries returns all entries, most specific first, ordered by start
// address within a prefix length.
func (t *Truth) Entries() []Entry {
	t.buildIndex()
	out := make([]Entry, 0, len(t.entries))
	for bits := 32; bits >= 0; bits-- {
		for _, i := range t.byBits[bits] {
			out = append(out, t.entries[i])
		}
	}
	return out
}

// ErrorModel parameterises a database's error process.
type ErrorModel struct {
	// PCityWrong is the probability the city is wrong while the country is
	// right (the answer is another city in the same country when one
	// exists).
	PCityWrong float64
	// PCountryWrong is the probability the whole answer points at a
	// different country.
	PCountryWrong float64
	// PTransitHome is the probability a transit-provider block geolocates
	// to the provider's home country instead of the router's location.
	PTransitHome float64
	// PMiss is the probability the database has no answer for the block.
	PMiss float64
}

// DefaultErrorModels returns the three databases' error mixes. They differ
// slightly, mirroring the real-world disagreement between providers.
func DefaultErrorModels() map[string]ErrorModel {
	return map[string]ErrorModel{
		"maxmind-sim":   {PCityWrong: 0.10, PCountryWrong: 0.030, PTransitHome: 0.50, PMiss: 0.02},
		"ipinfo-sim":    {PCityWrong: 0.13, PCountryWrong: 0.040, PTransitHome: 0.55, PMiss: 0.03},
		"edgescape-sim": {PCityWrong: 0.08, PCountryWrong: 0.025, PTransitHome: 0.45, PMiss: 0.02},
	}
}

// DB is one simulated geolocation database.
type DB struct {
	Name  string
	model ErrorModel
	seed  int64
	truth *Truth
}

// Build constructs a database over the ground truth with the given error
// model. Errors are deterministic per (database, prefix): repeated lookups
// of the same block give the same (possibly wrong) answer, like a real
// database snapshot.
func Build(name string, truth *Truth, model ErrorModel, seed int64) *DB {
	return &DB{Name: name, model: model, seed: seed, truth: truth}
}

// BuildDefault builds the standard three databases over the ground truth.
func BuildDefault(truth *Truth, seed int64) []*DB {
	models := DefaultErrorModels()
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*DB, 0, len(names))
	for i, n := range names {
		out = append(out, Build(n, truth, models[n], seed+int64(i)*7919))
	}
	return out
}

// Lookup returns the database's answer for addr. ok is false when the
// database has no record for the block.
func (d *DB) Lookup(addr netip.Addr) (Location, bool) {
	e, ok := d.truth.Lookup(addr)
	if !ok {
		return Location{}, false
	}
	rng := d.rngFor(e.Prefix)
	if rng.Float64() < d.model.PMiss {
		return Location{}, false
	}
	// Transit-provider home-country bias.
	if e.TransitHome != "" && e.TransitHome != e.Loc.Country && rng.Float64() < d.model.PTransitHome {
		return Location{Country: e.TransitHome, City: capitalCity(e.TransitHome)}, true
	}
	r := rng.Float64()
	switch {
	case r < d.model.PCountryWrong:
		return d.wrongCountry(e.Loc, &rng), true
	case r < d.model.PCountryWrong+d.model.PCityWrong:
		return wrongCityInCountry(e.Loc, &rng), true
	default:
		return e.Loc, true
	}
}

// rngFor is the block's error draws, keyed by "<name>|<seed>|<prefix>".
func (d *DB) rngFor(p netip.Prefix) keyrand.Stream {
	var buf [96]byte
	key := append(buf[:0], d.Name...)
	key = append(key, '|')
	key = strconv.AppendInt(key, d.seed, 10)
	key = append(key, '|')
	key = keyrand.AppendPrefix(key, p)
	return keyrand.ForKey(key)
}

// wrongCountry picks a deterministic wrong country near the true one:
// real databases confuse neighbours (Belgium for the Netherlands), not
// antipodes. The answer is drawn from the dozen nearest foreign countries.
func (d *DB) wrongCountry(loc Location, rng *keyrand.Stream) Location {
	neighbors := neighborCountries(loc.Country)
	if len(neighbors) == 0 {
		return loc
	}
	cc := neighbors[rng.Intn(len(neighbors))]
	return Location{Country: cc, City: geo.CitiesIn(cc)[0].IATA}
}

var (
	neighborMu    sync.Mutex
	neighborCache = map[string][]string{}
)

// neighborCountries returns the ~12 closest foreign countries with at
// least one registered city, by representative-city distance.
func neighborCountries(cc string) []string {
	neighborMu.Lock()
	defer neighborMu.Unlock()
	if v, ok := neighborCache[cc]; ok {
		return v
	}
	homes := geo.CitiesIn(cc)
	if len(homes) == 0 {
		neighborCache[cc] = nil
		return nil
	}
	home, _ := geo.CityIDOf(homes[0].IATA)
	type cand struct {
		cc string
		km float64
	}
	var cands []cand
	for _, other := range geo.CountryCodes() {
		if other == cc {
			continue
		}
		cities := geo.CitiesIn(other)
		if len(cities) == 0 {
			continue
		}
		rep, _ := geo.CityIDOf(cities[0].IATA)
		cands = append(cands, cand{other, geo.KmBetween(home, rep)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].km != cands[j].km {
			return cands[i].km < cands[j].km
		}
		return cands[i].cc < cands[j].cc
	})
	n := 12
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]string, 0, n)
	for _, c := range cands[:n] {
		out = append(out, c.cc)
	}
	neighborCache[cc] = out
	return out
}

// wrongCityInCountry returns another city of the same country when one
// exists; otherwise the true location.
func wrongCityInCountry(loc Location, rng *keyrand.Stream) Location {
	cities := geo.CitiesIn(loc.Country)
	if len(cities) < 2 {
		return loc
	}
	for i := 0; i < 8; i++ {
		c := cities[rng.Intn(len(cities))]
		if c.IATA != loc.City {
			return Location{Country: loc.Country, City: c.IATA}
		}
	}
	return loc
}

// capitalCity returns a representative city for a country (its first
// registered city), used when a database invents a home-country location.
func capitalCity(cc string) string {
	cities := geo.CitiesIn(cc)
	if len(cities) == 0 {
		return ""
	}
	return cities[0].IATA
}

// ConsensusCountry implements the paper's country-level IPGeo technique
// (Appendix B): it returns a country only when all databases return the
// same country for the address.
func ConsensusCountry(dbs []*DB, addr netip.Addr) (string, bool) {
	if len(dbs) == 0 {
		return "", false
	}
	country := ""
	for _, d := range dbs {
		loc, ok := d.Lookup(addr)
		if !ok {
			return "", false
		}
		if country == "" {
			country = loc.Country
		} else if country != loc.Country {
			return "", false
		}
	}
	return country, country != ""
}
