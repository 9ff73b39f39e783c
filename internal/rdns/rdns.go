// Package rdns generates and parses reverse-DNS names for router
// interfaces. Operators commonly embed geographic hints in interface names
// (e.g. "ae-65.core1.amb.edgecastcdn.net" places a router in Amsterdam);
// Appendix B of the paper extracts such hints with IATA codes, operator
// codes, and ccTLD fallbacks. This package implements both sides: a seeded
// generator the simulated world uses to name its routers, and the extractor
// the site-enumeration pipeline uses.
package rdns

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"anysim/internal/geo"
	"anysim/internal/keyrand"
)

// Style describes how (and whether) a router's rDNS name encodes location.
type Style uint8

// Naming styles. StyleNone models routers with no PTR record. StyleOpaque
// models PTR records with no geographic hint.
const (
	StyleIATA         Style = iota // 3-letter IATA metro code as a label
	StyleOperatorCode              // operator-specific city code (derived, non-IATA)
	StyleOpaque                    // PTR exists, no location hint
	StyleNone                      // no PTR record
)

// operatorCode derives a deterministic operator-specific city code that is
// deliberately *not* the IATA code: the first three consonants of the city
// name (e.g. Amsterdam -> "mst" is avoided by keeping the leading letter:
// "ams" would collide with IATA, so the code is prefixed with the country's
// lowercase code, "nl-amst").
func operatorCode(city geo.City) string {
	name := strings.ToLower(city.Name)
	var letters []rune
	for _, r := range name {
		if r >= 'a' && r <= 'z' {
			letters = append(letters, r)
		}
	}
	n := 4
	if len(letters) < n {
		n = len(letters)
	}
	return strings.ToLower(city.Country) + "-" + string(letters[:n])
}

// Namer produces deterministic rDNS names for router interfaces of one
// operator (AS). The probability mix of styles is configurable; the default
// mix yields the paper's Figure-3 shape, where rDNS resolves the majority
// of p-hops.
type Namer struct {
	Domain string // operator domain, e.g. "edgecastcdn.net"
	// Probabilities of each style; must sum to <= 1, remainder is
	// StyleNone.
	PIATA, POperator, POpaque float64
	seed                      int64
}

// NewNamer returns a Namer with the default style mix.
func NewNamer(domain string, seed int64) *Namer {
	return &Namer{Domain: domain, PIATA: 0.58, POperator: 0.14, POpaque: 0.13, seed: seed}
}

// styleFor deterministically picks the style for an interface key, drawn
// from the key "<domain>|<seed>|<key>".
func (n *Namer) styleFor(key string) Style {
	var buf [128]byte
	k := append(buf[:0], n.Domain...)
	k = append(k, '|')
	k = strconv.AppendInt(k, n.seed, 10)
	k = append(k, '|')
	k = append(k, key...)
	rng := keyrand.ForKey(k)
	r := rng.Float64()
	switch {
	case r < n.PIATA:
		return StyleIATA
	case r < n.PIATA+n.POperator:
		return StyleOperatorCode
	case r < n.PIATA+n.POperator+n.POpaque:
		return StyleOpaque
	default:
		return StyleNone
	}
}

// Name returns the PTR record for a router interface identified by key
// (any stable identifier, e.g. "core1/FRA") located in the given city. The
// second return is false when the interface has no PTR record.
func (n *Namer) Name(key string, city geo.City) (string, bool) {
	style := n.styleFor(key)
	h := fnv.New64a()
	fmt.Fprintf(h, "iface|%s|%s", n.Domain, key)
	ifID := h.Sum64() % 100
	switch style {
	case StyleIATA:
		return fmt.Sprintf("ae-%d.core%d.%s.%s", ifID, ifID%4+1, strings.ToLower(city.IATA), n.Domain), true
	case StyleOperatorCode:
		return fmt.Sprintf("be%d.agg%d.%s.%s", ifID, ifID%4+1, operatorCode(city), n.Domain), true
	case StyleOpaque:
		return fmt.Sprintf("ip-%d.%s", h.Sum64()%1000000, n.Domain), true
	default:
		return "", false
	}
}

// Hint is a location inferred from an rDNS name.
type Hint struct {
	City    string // IATA code, "" if only a country could be inferred
	Country string // ISO country code
}

// Extract parses an rDNS name and attempts to locate the router, using the
// Appendix-B techniques in order: (1) a 3-letter label (or dotted segment)
// matching an IATA metro code, (2) an operator-style "cc-name" code
// matching a known city, and (3) the name's ccTLD if it names a country.
// The ccTLD fallback yields a country-only hint.
func Extract(name string) (Hint, bool) {
	name = strings.TrimSuffix(strings.ToLower(name), ".")
	if name == "" {
		return Hint{}, false
	}
	labels := strings.Split(name, ".")
	// Skip the final two labels (domain + TLD): operator domains like
	// "edgecastcdn.net" never encode the router's own location there.
	hintLabels := labels
	if len(labels) > 2 {
		hintLabels = labels[:len(labels)-2]
	}
	for _, label := range hintLabels {
		for _, tok := range strings.FieldsFunc(label, func(r rune) bool { return r == '-' || r == '_' }) {
			if len(tok) == 3 {
				if city, ok := geo.CityByIATA(strings.ToUpper(tok)); ok {
					return Hint{City: city.IATA, Country: city.Country}, true
				}
			}
		}
		// Operator codes have the form "cc-name"; match against all cities
		// of country cc.
		if i := strings.IndexByte(label, '-'); i == 2 {
			cc := strings.ToUpper(label[:2])
			frag := label[i+1:]
			if _, ok := geo.CountryByCode(cc); ok && len(frag) >= 3 {
				for _, city := range geo.CitiesIn(cc) {
					cname := strings.ToLower(strings.ReplaceAll(city.Name, " ", ""))
					if strings.HasPrefix(cname, frag) {
						return Hint{City: city.IATA, Country: city.Country}, true
					}
				}
			}
		}
	}
	// ccTLD fallback: country-level hint only.
	tld := strings.ToUpper(labels[len(labels)-1])
	if len(tld) == 2 {
		if _, ok := geo.CountryByCode(tld); ok {
			return Hint{Country: tld}, true
		}
	}
	return Hint{}, false
}
