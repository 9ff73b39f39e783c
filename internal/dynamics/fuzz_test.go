package dynamics

import (
	"reflect"
	"testing"
)

// FuzzParseScenario: every scenario ParseString accepts renders, through
// Scenario.String, to DSL text that parses back to the same schedule — the
// same name and its events in application order — and that text is a fixed
// point. The seed corpus under testdata/fuzz/FuzzParseScenario covers every
// event kind in DSL and JSON form; plain `go test` replays it.
func FuzzParseScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := ParseString(src)
		if err != nil {
			return
		}
		text := sc.String()
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("scenario %q renders to text that does not parse: %v\n%s", src, err, text)
		}
		if back.Name != sc.Name || !reflect.DeepEqual(back.Events, sc.sorted()) {
			t.Fatalf("scenario %q renders to text that parses to another schedule:\n%s\n%+v\nvs\n%+v",
				src, text, back, sc.sorted())
		}
		if again := back.String(); again != text {
			t.Fatalf("scenario %q: rendering is not a fixed point:\n%s\nvs\n%s", src, text, again)
		}
	})
}
