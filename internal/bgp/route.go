// Package bgp implements policy routing over a topo.Topology: Gao-Rexford
// route propagation, best-path selection with the relationship preferences
// the paper's case studies hinge on (customer > public peer > route-server
// peer > provider, §5.4), per-origin-site route identity so anycast
// catchments can be computed, and hot-potato egress selection among
// equally-preferred routes.
package bgp

import (
	"cmp"
	"fmt"
	"math"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"

	"anysim/internal/geo"
	"anysim/internal/policy"
	"anysim/internal/topo"
)

// RelClass classifies how an AS learned a route; it determines local
// preference. The order of the constants is the preference order: lower
// value = more preferred.
type RelClass uint8

// Route learning classes, most preferred first. FromOrigin marks the
// origin's own routes. Routers prefer public peers over route-server peers
// (paper §5.4, citing Schlinker et al.).
const (
	FromOrigin RelClass = iota
	FromCustomer
	FromPublicPeer
	FromRSPeer
	FromProvider
)

var relClassNames = map[RelClass]string{
	FromOrigin:     "origin",
	FromCustomer:   "customer",
	FromPublicPeer: "public-peer",
	FromRSPeer:     "rs-peer",
	FromProvider:   "provider",
}

// String returns a short class name.
func (r RelClass) String() string {
	if s, ok := relClassNames[r]; ok {
		return s
	}
	return "unknown"
}

// Exportable reports whether a route of this class may be exported to peers
// and providers under Gao-Rexford export rules (only customer and own
// routes are).
func (r RelClass) Exportable() bool { return r == FromOrigin || r == FromCustomer }

// classify maps a topology link to the RelClass the receiving AS assigns to
// routes learned over it. recv must be an endpoint of the link.
func classify(l topo.Link, recv topo.ASN) RelClass {
	switch l.Type {
	case topo.CustomerToProvider:
		if l.B == recv {
			// recv is the provider: routes from its customer.
			return FromCustomer
		}
		return FromProvider
	case topo.PublicPeer:
		return FromPublicPeer
	case topo.RouteServerPeer:
		return FromRSPeer
	}
	panic(fmt.Sprintf("bgp: unknown link type %v", l.Type))
}

// Route is a path to an anycast prefix as held by one AS's RIB.
//
// The AS path runs from the owning AS's next hop down to the origin
// (Path()[0] is the neighbour the route was learned from; the last element
// is the origin AS). Cities() is the parallel list of interconnection
// cities: Cities()[0] is where the owning AS hands traffic to Path()[0],
// and Cities()[i] is where Path()[i-1] hands traffic to Path()[i]. Because
// a site announces its prefixes from the site's own city, the last city is
// the catchment site's city.
//
// A Route is a small value of dense ids plus one shared path chain. The
// chain is an immutable linked list of (AS, city) nodes, so an export
// prepends one node to the exporter's chain instead of copying two slices,
// and every route derived from the same selection shares its tail. Cities
// are geo.CityIDs, sites and IXPs ids into a process-wide intern
// table; the string forms are materialised only by the accessor methods
// (and by Lookup's Forward), the boundary where names leave the engine.
// The struct is 40 bytes; two of its five words hold pointers the GC
// scans (the chain and Comms).
type Route struct {
	path *pathNode

	// Comms is the route's interned community set (nil = none). Communities
	// are attached at the origin's edge and travel transitively: export
	// copies the pointer, never the set. Always nil when the engine has no
	// policy layer.
	Comms *policy.Set

	// DownKm is the total intra-AS carriage distance, in kilometres, from
	// the handoff at Cities()[0] down to the site. It excludes the owning
	// AS's own carriage from wherever traffic enters it to Cities()[0].
	DownKm float64

	// FinalUpstream is the AS handing traffic to the origin (the owner of
	// the penultimate traceroute hop when the CDN's site router does not
	// answer).
	FinalUpstream topo.ASN

	site Symbol // identity of the announcing anycast site
	// ixp is the IXP over which the final handoff to the origin happens,
	// or noSymbol if the final link is a private interconnection. The
	// paper finds 49% of p-hop IPs belong to IXPs and are invisible in BGP.
	ixp  Symbol
	plen uint16 // AS-path length: the number of nodes in the chain

	Rel RelClass
}

// pathNode is one hop of a route's AS path: the AS and the city where the
// previous hop (or the route's owner, for the head) hands traffic to it.
// Nodes are immutable once the converge that built them finishes, so ribs,
// forks and snapshots share tails freely.
type pathNode struct {
	next *pathNode
	asn  topo.ASN
	city geo.CityID
}

// Origin returns the origin AS of the route.
func (r Route) Origin() topo.ASN { return r.last().asn }

// Len returns the AS-path length.
func (r Route) Len() int { return int(r.plen) }

// Handoff returns the city where the owning AS hands traffic to the next
// hop.
func (r Route) Handoff() string { return r.path.city.String() }

// handoff is Handoff's dense id.
func (r Route) handoff() geo.CityID { return r.path.city }

// SiteCity returns the city of the catchment site.
func (r Route) SiteCity() string { return r.last().city.String() }

// SiteCityID is SiteCity's geo id.
func (r Route) SiteCityID() geo.CityID { return r.last().city }

// Site returns the identity of the announcing anycast site.
func (r Route) Site() string { return r.site.String() }

// SiteSymbol is Site's interned id (see Intern).
func (r Route) SiteSymbol() Symbol { return r.site }

// FinalIXP returns the IXP over which the final handoff to the origin
// happens, or "" if the final link is a private interconnection.
func (r Route) FinalIXP() string { return r.ixp.String() }

// Path returns the AS path as a fresh slice.
func (r Route) Path() []topo.ASN {
	out := make([]topo.ASN, 0, r.plen)
	for n := r.path; n != nil; n = n.next {
		out = append(out, n.asn)
	}
	return out
}

// SamePath reports whether r and o hold the same AS path, hop cities
// included: the Path and Cities their forwards render are equal. It walks
// the two chains only up to their first shared node and allocates nothing.
func (r Route) SamePath(o Route) bool { return pathEqual(r.path, o.path) }

// Cities returns the handoff cities, parallel to Path, as a fresh slice.
func (r Route) Cities() []string {
	out := make([]string, 0, r.plen)
	for n := r.path; n != nil; n = n.next {
		out = append(out, n.city.String())
	}
	return out
}

// last returns the chain's final node: the origin at the site's city.
func (r Route) last() *pathNode {
	n := r.path
	for n.next != nil {
		n = n.next
	}
	return n
}

// String renders the route for debugging.
func (r Route) String() string {
	return fmt.Sprintf("%s via %v@%s to site %s (%.0f km downstream)", r.Rel, r.path.asn, r.Handoff(), r.Site(), r.DownKm)
}

// prepend returns the route as exported by AS from at city c: one node
// pushed onto the shared chain, everything else carried over.
func (r Route) prepend(s *nodeSlab, from topo.ASN, c geo.CityID) Route {
	if r.plen == math.MaxUint16 {
		panic("bgp: AS path longer than 65535 hops")
	}
	r.path = s.push(from, c, r.path)
	r.plen++
	return r
}

// pathCmp orders two chains as slices.Compare orders their AS paths, then
// their city lists. Reaching a node both chains share (pointer equality at
// the same depth) ends the walk early: from there on they are identical.
func pathCmp(a, b *pathNode) int {
	x, y := a, b
	for x != y {
		if x == nil {
			return -1
		}
		if y == nil {
			return 1
		}
		if x.asn != y.asn {
			return cmp.Compare(x.asn, y.asn)
		}
		x, y = x.next, y.next
	}
	// Equal AS paths, hence equal lengths: compare the cities up to the
	// shared tail.
	for x, y = a, b; x != y; x, y = x.next, y.next {
		if x.city != y.city {
			return cmp.Compare(x.city, y.city)
		}
	}
	return 0
}

// pathEqual reports whether two chains hold the same hops.
func pathEqual(a, b *pathNode) bool {
	for ; a != b; a, b = a.next, b.next {
		if a == nil || b == nil || a.asn != b.asn || a.city != b.city {
			return false
		}
	}
	return true
}

// nodeSlab hands out path nodes from chunks, so a converge pays one
// allocation per chunk instead of one per exported route. A slab belongs to
// one converge; once that converge returns, its nodes are never written
// again.
type nodeSlab struct{ buf []pathNode }

// push allocates a node from the slab. Chunks double from 32 up to 1024
// nodes, so a small incremental pass does not reserve a large block.
func (s *nodeSlab) push(asn topo.ASN, c geo.CityID, next *pathNode) *pathNode {
	if len(s.buf) == cap(s.buf) {
		s.buf = make([]pathNode, 0, min(max(2*cap(s.buf), 32), 1024))
	}
	s.buf = append(s.buf, pathNode{next: next, asn: asn, city: c})
	return &s.buf[len(s.buf)-1]
}

// cityOf returns a city's id, panicking on a city the geo registry does not
// know: topologies validate every city at build time and announcements
// only use their origin's cities, so an unknown city is a caller's bug.
func cityOf(name string) geo.CityID {
	c, ok := geo.CityIDOf(name)
	if !ok {
		panic(fmt.Sprintf("bgp: unknown city %q", name))
	}
	return c
}

// Symbol is an interned site or IXP name; noSymbol stands for "". Ids are
// assigned in first-use order (see symtab), so a Symbol is identity only:
// never order by it.
type Symbol uint32

const noSymbol Symbol = 0

// symtab is an append-only string intern table. Ids are assigned in first
// use order, which varies with the order concurrent trials intern new
// names, so an id is identity only: ordering compares names.
type symtab struct {
	mu  sync.RWMutex
	ids map[string]Symbol
	// names is replaced, never mutated, on every insert, so readers index
	// it without the lock.
	names atomic.Pointer[[]string]
}

// symbols is the one table every engine and fork interns sites and IXPs
// into. Sharing it lets a bare Route render its names; the handful of
// distinct names a process announces bounds its size.
var symbols = func() *symtab {
	t := &symtab{ids: map[string]Symbol{"": noSymbol}}
	names := []string{""}
	t.names.Store(&names)
	return t
}()

// intern returns the name's symbol, adding it on first use.
func (t *symtab) intern(name string) Symbol {
	if s, ok := t.lookup(name); ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.ids[name]; ok {
		return s
	}
	old := *t.names.Load()
	names := append(old[:len(old):len(old)], name)
	s := Symbol(len(old))
	t.ids[name] = s
	t.names.Store(&names)
	return s
}

// Intern returns a site's Symbol, the id Route.SiteSymbol answers for the
// routes of its announcements, adding the name on first use.
func Intern(site string) Symbol { return symbols.intern(site) }

// lookup returns the name's symbol if it was ever interned.
func (t *symtab) lookup(name string) (Symbol, bool) {
	t.mu.RLock()
	s, ok := t.ids[name]
	t.mu.RUnlock()
	return s, ok
}

// String returns the interned name.
func (s Symbol) String() string { return (*symbols.names.Load())[s] }

// symbolCmp orders two symbols by their names.
func symbolCmp(a, b Symbol) int {
	if a == b {
		return 0
	}
	names := *symbols.names.Load()
	return strings.Compare(names[a], names[b])
}

// MaxPrepend caps per-announcement AS-path prepending. Operators rarely
// prepend more than a handful of hops: path-length comparison only breaks
// ties within a preference class, so additional copies past the point where
// every alternative wins buy nothing (see DESIGN.md's prepend calibration).
const MaxPrepend = 8

// SiteAnnouncement declares that an anycast site announces a prefix. Origin
// is the content network's AS; City is the site's location; Site is a
// stable site identifier (unique within the deployment).
//
// OnlyNeighbors, when non-nil, restricts the announcement to the listed
// neighbour ASes: the site only announces the prefix over sessions to them.
// This models operators that announce different prefixes to different peers
// at the same site, which is why the paper's §5.3 comparison must compute
// the *common* set of peering ASes between two networks.
//
// Prepend adds that many extra copies of Origin to the AS path the site
// exports (classic AS-path prepending, the Tangled testbed's traffic-
// engineering knob). Prepending deters neighbours that compare path length —
// shortest-path filtering within a preference class — but never overrides
// relationship preference: a provider still prefers a prepended customer
// route over any peer or provider route.
type SiteAnnouncement struct {
	Origin        topo.ASN   `json:"origin"`
	Site          string     `json:"site"`
	City          string     `json:"city"`
	OnlyNeighbors []topo.ASN `json:"only_neighbors,omitempty"`
	Prepend       int        `json:"prepend,omitempty"`
	// Communities are attached to every route this announcement seeds,
	// before the policy layer's export rules run. Announcing with
	// communities requires an engine with a policy configured (the
	// well-known scope communities are meaningless without the layer that
	// enforces them).
	Communities []policy.Community `json:"communities,omitempty"`
}

// seedChain returns the path the announcement exports to its neighbours:
// the origin at the site's city repeated 1+Prepend times, every prepended
// "hop" being the same router at the site. head is the chain's last node,
// the origin's own one-hop self route. With Prepend 0 both are one node.
func (a SiteAnnouncement) seedChain(s *nodeSlab) (chain, head *pathNode) {
	c := cityOf(a.City)
	head = s.push(a.Origin, c, nil)
	chain = head
	for i := 0; i < a.Prepend; i++ {
		chain = s.push(a.Origin, c, chain)
	}
	return chain, head
}

// announcesTo reports whether the announcement is made to the given
// neighbour.
func (a SiteAnnouncement) announcesTo(nbr topo.ASN) bool {
	if a.OnlyNeighbors == nil {
		return true
	}
	for _, n := range a.OnlyNeighbors {
		if n == nbr {
			return true
		}
	}
	return false
}

// Forward describes where traffic from a (client AS, client city) pair goes
// for an announced prefix: the anycast catchment.
type Forward struct {
	Prefix netip.Prefix
	Site   string     // catchment site
	Path   []topo.ASN // full AS path including the client AS
	Cities []string   // handoff cities; Cities[len-1] is the site city
	// DistKm is the one-way forwarding path length in kilometres: client
	// city to first handoff plus all downstream carriage.
	DistKm float64
	// Rel is how the client AS learned the route it uses.
	Rel RelClass
	// FinalIXP / FinalUpstream describe the last handoff (see Route's
	// FinalIXP and FinalUpstream).
	FinalIXP      string
	FinalUpstream topo.ASN
}

// SiteCity returns the catchment site's city.
func (f Forward) SiteCity() string { return f.Cities[len(f.Cities)-1] }
