package ts

import "testing"

// FuzzParseRule: every rule ParseRule accepts renders, through Rule.String,
// to a line that parses back to the same rule. The seed corpus under
// testdata/fuzz/FuzzParseRule covers named and anonymous rules and every
// threshold suffix; plain `go test` replays it.
func FuzzParseRule(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		r, err := ParseRule(line)
		if err != nil {
			return
		}
		back, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("rule %q renders to %q, which does not parse: %v", line, r.String(), err)
		}
		if back != r {
			t.Fatalf("rule %q is %+v, but its text %q parses to %+v", line, r, r.String(), back)
		}
	})
}
