// Package traffic adds the paper's missing dimension to the simulator:
// load. It models client demand per probe group (Zipf-skewed, diurnally
// modulated — the shape Cicalese et al. measure on a production anycast
// CDN), serving capacity per anycast site (derived from the Table-1 site
// tiers), and a steering engine that resolves overload with the BGP-level
// knobs the Tangled testbed demonstrates: AS-path prepending, selective
// announcement, and regional cross-announcement. The X3 experiment uses it
// to quantify the paper's control argument — regional anycast can steer
// load precisely where global anycast can only nudge it.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"anysim/internal/atlas"
	"anysim/internal/geo"
	"anysim/internal/topo"
)

// DemandConfig seeds and shapes the demand model.
type DemandConfig struct {
	Seed int64
	// Buckets is the number of time buckets per simulated day. Default 8
	// (three-hour buckets).
	Buckets int
	// ZipfS is the Zipf exponent of the group-popularity distribution.
	// Default 0.9, the heavy skew CDN traffic studies report.
	ZipfS float64
	// DiurnalAmp is the amplitude of the diurnal cycle: demand swings
	// between (1-Amp) and (1+Amp) of a group's base rate over the local
	// day. Default 0.6.
	DiurnalAmp float64
	// PeakHour is the local solar hour of peak demand. Default 20 (the
	// evening peak).
	PeakHour float64
	// TotalRate is the day-mean aggregate request rate over all groups, in
	// arbitrary requests/s. Default 1e6.
	TotalRate float64
	// AreaWeight sets each paper area's share of aggregate demand.
	// Shares are normalized over the areas that have probe groups, so
	// demand follows the areas' rough shares of global Internet users
	// (EMEA 0.35, NA 0.27, APAC 0.28, LatAm 0.10 by default) rather than
	// the platform's Europe-heavy probe density.
	AreaWeight map[geo.Area]float64
	// MaxGroupShare truncates the Zipf head: no single group models more
	// than this fraction of its area's demand, with the excess
	// redistributed over the area's other groups proportionally. A lone
	// vantage AS would otherwise stand in for half a continent's users
	// and carry more demand than any single site can serve, which no
	// routing assignment — steered or not — could ever satisfy. Default
	// 0.2; set negative to disable.
	MaxGroupShare float64
}

func (c DemandConfig) withDefaults() DemandConfig {
	if c.Buckets == 0 {
		c.Buckets = 8
	}
	if c.ZipfS == 0 {
		c.ZipfS = 0.9
	}
	if c.DiurnalAmp == 0 {
		c.DiurnalAmp = 0.6
	}
	if c.PeakHour == 0 {
		c.PeakHour = 20
	}
	if c.TotalRate == 0 {
		c.TotalRate = 1e6
	}
	if c.AreaWeight == nil {
		c.AreaWeight = map[geo.Area]float64{
			geo.EMEA:  0.35,
			geo.NA:    0.27,
			geo.APAC:  0.28,
			geo.LatAm: 0.10,
		}
	}
	if c.MaxGroupShare == 0 {
		c.MaxGroupShare = 0.2
	}
	return c
}

// GroupDemand is one probe group's demand parameters.
type GroupDemand struct {
	Key     string // the platform's "CITY|ASN" group key
	City    string
	ASN     topo.ASN
	Country string
	Area    geo.Area
	Lon     float64 // the group's longitude, which keys its local clock
	// Base is the group's day-mean request rate.
	Base float64
}

// Model is the seeded demand model over a probe platform's groups.
type Model struct {
	cfg    DemandConfig
	Groups []GroupDemand // sorted by Key
	total  float64
	mats   []Matrix // one per time bucket, built once by NewModel
}

// NewModel builds the demand model for a platform's retained probe groups.
// Base rates draw ranks from a seeded Zipf permutation, weighted by the
// paper area's share of users and by group size (more probes in a <city,
// AS> group proxies a larger client population behind it).
func NewModel(pl *atlas.Platform, cfg DemandConfig) *Model {
	cfg = cfg.withDefaults()
	groups := pl.Groups().Groups

	// A seeded permutation assigns each group its popularity rank: rank r
	// contributes 1/(r+1)^s. Shuffling the groups' key order keeps the
	// model fully determined by (platform, seed).
	rng := rand.New(rand.NewSource(cfg.Seed))
	ranked := make([]int, len(groups)) // ranked[r] is the group of popularity rank r
	for i := range ranked {
		ranked[i] = i
	}
	rng.Shuffle(len(ranked), func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	weights := make([]float64, len(groups))
	for r, i := range ranked {
		weights[i] = math.Pow(float64(r+1), -cfg.ZipfS) * float64(len(groups[i].Probes))
	}

	m := &Model{cfg: cfg, Groups: make([]GroupDemand, 0, len(groups))}
	areaSum := map[geo.Area]float64{}
	for i, grp := range groups {
		g := GroupDemand{
			Key:     grp.Key,
			City:    grp.City,
			ASN:     grp.ASN,
			Country: grp.Country,
			Area:    grp.Area(),
			Lon:     geo.MustCity(grp.City).Coord.Lon,
		}
		areaSum[g.Area] += weights[i]
		m.Groups = append(m.Groups, g)
	}
	// Truncate the Zipf head per area: clamp any group above MaxGroupShare
	// of its area's weight and rescale the rest to absorb the excess,
	// repeating until no group exceeds the cap (each pass only ever grows
	// the unclamped groups, so the loop settles in a few rounds). Areas
	// with too few groups to honour the cap degrade to a uniform split.
	if cfg.MaxGroupShare > 0 {
		byArea := map[geo.Area][]int{}
		for i, g := range m.Groups {
			byArea[g.Area] = append(byArea[g.Area], i)
		}
		for a, idxs := range byArea {
			if float64(len(idxs))*cfg.MaxGroupShare < 1 {
				for _, i := range idxs {
					weights[i] = areaSum[a] / float64(len(idxs))
				}
				continue
			}
			for {
				capW := cfg.MaxGroupShare * areaSum[a]
				excess, open := 0.0, 0.0
				for _, i := range idxs {
					if weights[i] >= capW {
						excess += weights[i] - capW
					} else {
						open += weights[i]
					}
				}
				if excess <= 1e-12*areaSum[a] {
					break
				}
				scale := (open + excess) / open
				for _, i := range idxs {
					if weights[i] >= capW {
						weights[i] = capW
					} else {
						weights[i] *= scale
					}
				}
			}
		}
	}
	// AreaWeight fixes each area's share of the aggregate: the Zipf x
	// group-size weights only shape the distribution within an area. Without
	// this normalization the platform's probe density (Europe-heavy, like
	// RIPE Atlas) would drive area shares instead of user population.
	shareSum := 0.0
	for a, s := range areaSum {
		if s > 0 {
			shareSum += cfg.AreaWeight[a]
		}
	}
	for i := range m.Groups {
		g := &m.Groups[i]
		share := cfg.AreaWeight[g.Area] / shareSum
		g.Base = cfg.TotalRate * share * weights[i] / areaSum[g.Area]
		m.total += g.Base
	}
	m.mats = make([]Matrix, cfg.Buckets)
	for b := range m.mats {
		// The bucket's midpoint UTC hour drives each group's diurnal phase.
		utcHour := (float64(b) + 0.5) * 24 / float64(cfg.Buckets)
		m.mats[b] = m.newMatrix(b, func(i int) float64 {
			g := &m.Groups[i]
			return g.Base * m.diurnal(g.Lon, utcHour)
		})
	}
	return m
}

// Buckets returns the number of time buckets per day.
func (m *Model) Buckets() int { return m.cfg.Buckets }

// TotalBase returns the day-mean aggregate rate.
func (m *Model) TotalBase() float64 { return m.total }

// diurnal returns the demand multiplier for a group at a UTC hour: a cosine
// day-cycle peaking at cfg.PeakHour local solar time, with the local clock
// derived from the group's longitude (15 degrees per hour).
func (m *Model) diurnal(lon, utcHour float64) float64 {
	localHour := math.Mod(utcHour+lon/15+24, 24)
	return 1 + m.cfg.DiurnalAmp*math.Cos(2*math.Pi*(localHour-m.cfg.PeakHour)/24)
}

// Matrix is one time bucket's demand: request rate per probe group. A
// matrix comes from its model (Matrix, Demand, FlashCrowd) and is
// read-only: a model hands the same bucket matrix, maps included, to every
// caller, so writing into Rates would change the demand of every later
// evaluation of that bucket.
type Matrix struct {
	Bucket int
	Rates  map[string]float64 // by group key; read-only, kept only for bench/steer.go
	Total  float64
	// rates holds the same rates by group rank in Model.Groups, the form
	// every reader in this package uses.
	rates []float64
}

// newMatrix returns a fresh matrix of a bucket whose group of rank i has
// rate rate(i). Total sums in group order.
func (m *Model) newMatrix(bucket int, rate func(i int) float64) Matrix {
	out := Matrix{Bucket: bucket, Rates: make(map[string]float64, len(m.Groups)), rates: make([]float64, len(m.Groups))}
	for i, g := range m.Groups {
		r := rate(i)
		out.Rates[g.Key] = r
		out.rates[i] = r
		out.Total += r
	}
	return out
}

// Matrix returns the demand matrix of one time bucket (0 <= bucket <
// Buckets()), built once by NewModel and shared read-only.
func (m *Model) Matrix(bucket int) Matrix {
	if bucket < 0 || bucket >= m.cfg.Buckets {
		panic(fmt.Sprintf("traffic: bucket %d outside [0,%d)", bucket, m.cfg.Buckets))
	}
	return m.mats[bucket]
}

// Matrices returns the full day of demand matrices.
func (m *Model) Matrices() []Matrix { return slices.Clone(m.mats) }

// FlashCrowd returns a new matrix: mat with every group in the given area
// scaled by factor, modelling a regional flash crowd (factor > 1) or
// brown-out (factor < 1). mat is left as it is. Total sums in group order,
// as Matrix does.
func (m *Model) FlashCrowd(mat Matrix, area geo.Area, factor float64) Matrix {
	return m.newMatrix(mat.Bucket, func(i int) float64 {
		g := &m.Groups[i]
		r := mat.rates[i]
		if g.Area == area {
			r *= factor
		}
		return r
	})
}

// Demand is the demand of a simulated tick: the matrix of the tick's time
// bucket (tick mod Buckets()) with the given flash-crowd factors folded in.
// Without a flash crowd it is the bucket's shared matrix; with one it is a
// new matrix, and the bucket's stays as it is. Every group lies in one
// area, so each rate is scaled at most once and the result does not depend
// on the map's order; it equals folding FlashCrowd over the areas one by
// one.
func (m *Model) Demand(tick int64, flash map[geo.Area]float64) Matrix {
	mat := m.Matrix(int(tick % int64(m.cfg.Buckets)))
	if len(flash) == 0 {
		return mat
	}
	return m.newMatrix(mat.Bucket, func(i int) float64 {
		r := mat.rates[i]
		if f, ok := flash[m.Groups[i].Area]; ok {
			r *= f
		}
		return r
	})
}

// PeakBucket returns the time bucket where an area's aggregate demand is
// highest, summing each bucket in group order.
func (m *Model) PeakBucket(area geo.Area) int {
	best, bestRate := 0, -1.0
	for b := 0; b < m.cfg.Buckets; b++ {
		rates := m.mats[b].rates
		rate := 0.0
		for i, g := range m.Groups {
			if g.Area == area {
				rate += rates[i]
			}
		}
		if rate > bestRate {
			best, bestRate = b, rate
		}
	}
	return best
}
