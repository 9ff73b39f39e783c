package atlas

import (
	"slices"
	"strconv"
	"strings"

	"anysim/internal/geo"
	"anysim/internal/stats"
	"anysim/internal/topo"
)

// GroupKey returns the paper's <city, AS> probe-group key, "CITY|ASN".
func (p *Probe) GroupKey() string { return string(appendGroupKey(nil, p.City, p.ASN)) }

func appendGroupKey(b []byte, city string, asn topo.ASN) []byte {
	return strconv.AppendUint(append(append(b, city...), '|'), uint64(asn), 10)
}

// ParseGroupKey splits a group key into its city and ASN. Only keys GroupKey
// renders parse: a non-empty city, one '|', and the ASN in decimal with no
// sign, no leading zero and no overflow of 32 bits.
func ParseGroupKey(key string) (city string, asn topo.ASN, ok bool) {
	city, num, found := strings.Cut(key, "|")
	n, err := strconv.ParseUint(num, 10, 32)
	if !found || city == "" || err != nil || strconv.FormatUint(n, 10) != num {
		return "", 0, false
	}
	return city, topo.ASN(n), true
}

// Representative returns the group's representative among probes: its
// lowest-ID probe, whose state stands for the group. It is nil when the key
// does not parse or no probe is in the group. The scan allocates nothing.
func Representative(probes []*Probe, key string) *Probe {
	city, asn, ok := ParseGroupKey(key)
	if !ok {
		return nil
	}
	var rep *Probe
	for _, p := range probes {
		if p.City == city && p.ASN == asn && (rep == nil || p.ID < rep.ID) {
			rep = p
		}
	}
	return rep
}

// Group is one <city, AS> probe group (§3.1), the unit every percentage and
// percentile of the paper is computed over.
type Group struct {
	Key     string // the GroupKey of its probes
	City    string
	ASN     topo.ASN
	Country string
	Probes  []*Probe // in input order
	Rep     *Probe   // the lowest-ID probe (see Representative)
}

// Area returns the paper area the group is in.
func (g *Group) Area() geo.Area { return geo.AreaOf(g.Country) }

// GroupTable is a probe list's <city, AS> groups in key order. A group's
// index in Groups is its rank. The table is immutable once built.
type GroupTable struct {
	Groups []Group
	rank   []int32 // group rank of each input probe
}

// GroupProbes groups probes by <city, AS>.
func GroupProbes(probes []*Probe) *GroupTable {
	// Number the groups by first appearance. A probe's key is rendered into
	// a reused buffer, and only a group's first probe keeps its key.
	type seen struct {
		key    string
		first  *Probe
		n, num int32 // probes in the group, first-appearance number
	}
	idx := map[string]int32{}
	rank := make([]int32, len(probes)) // each probe's first-appearance number, then its rank
	groups := make([]seen, 0, len(probes))
	var buf []byte
	for i, p := range probes {
		buf = appendGroupKey(buf[:0], p.City, p.ASN)
		g, ok := idx[string(buf)]
		if !ok {
			g = int32(len(groups))
			groups = append(groups, seen{key: string(buf), first: p, num: g})
			idx[groups[g].key] = g
		}
		groups[g].n++
		rank[i] = g
	}
	slices.SortFunc(groups, func(a, b seen) int { return strings.Compare(a.key, b.key) })

	// Lay the groups out in key order, each group's probes carved from one
	// backing array and filled in input order.
	t := &GroupTable{Groups: make([]Group, len(groups)), rank: rank}
	rankOf := make([]int32, len(groups))
	backing := make([]*Probe, len(probes))
	for r, s := range groups {
		rankOf[s.num] = int32(r)
		p := s.first
		t.Groups[r] = Group{Key: s.key, City: p.City, ASN: p.ASN, Country: p.Country, Probes: backing[:0:s.n]}
		backing = backing[s.n:]
	}
	for i, p := range probes {
		rank[i] = rankOf[rank[i]]
		g := &t.Groups[rank[i]]
		g.Probes = append(g.Probes, p)
		if g.Rep == nil || p.ID < g.Rep.ID {
			g.Rep = p
		}
	}
	return t
}

// Rank returns the group rank of input probe i.
func (t *GroupTable) Rank(i int) int { return int(t.rank[i]) }

// NumProbes returns the number of probes grouped.
func (t *GroupTable) NumProbes() int { return len(t.rank) }

// Lookup returns the rank of the group with the key; ok is false when no
// group has it.
func (t *GroupTable) Lookup(key string) (rank int, ok bool) {
	return slices.BinarySearchFunc(t.Groups, key, func(g Group, k string) int { return strings.Compare(g.Key, k) })
}

// Medians returns the median of each group's values in key order, with the
// group's rank, skipping groups none of whose probes has a value. val is
// called once per probe, group by group and in input order within a group.
func (t *GroupTable) Medians(val func(*Probe) (float64, bool)) (ranks []int, medians []float64) {
	var vals []float64
	for r := range t.Groups {
		vals = vals[:0]
		for _, p := range t.Groups[r].Probes {
			if v, ok := val(p); ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			ranks = append(ranks, r)
			medians = append(medians, stats.Median(vals))
		}
	}
	return ranks, medians
}
