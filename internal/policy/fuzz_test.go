package policy

import (
	"strings"
	"testing"
)

// FuzzParseCommunity: every community ParseCommunity accepts renders to a
// text form that parses back to the same community. The seed corpus under
// testdata/fuzz/FuzzParseCommunity covers both the numeric and the
// symbolic metro forms; plain `go test` replays it.
func FuzzParseCommunity(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCommunity(s)
		if err != nil {
			return
		}
		back, err := ParseCommunity(c.String())
		if err != nil {
			t.Fatalf("ParseCommunity(%q) = %v, whose text %q does not parse: %v", s, c, c.String(), err)
		}
		if back != c {
			t.Fatalf("ParseCommunity(%q) = %v, but its text %q parses to %v", s, c, c.String(), back)
		}
	})
}

// FuzzPolicyParse: the canonical form of every policy Parse accepts is a
// fixed point — it parses, and renders back to itself. Hash and the
// checkpoint files rest on that.
func FuzzPolicyParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(strings.NewReader(src), "fuzz")
		if err != nil {
			return
		}
		canon := p.Canonical()
		p2, err := Parse(strings.NewReader(canon), "canonical")
		if err != nil {
			t.Fatalf("canonical form of %q does not parse: %v\n%s", src, err, canon)
		}
		if got := p2.Canonical(); got != canon {
			t.Fatalf("canonical form of %q is not a fixed point:\n%s\nvs\n%s", src, canon, got)
		}
	})
}
