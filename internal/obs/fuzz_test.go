package obs

import (
	"encoding/json"
	"testing"
)

// FuzzParseTraceHeader: every header ParseTraceHeader accepts survives a
// round trip through json.Marshal — the encoding parses back to the same
// header. The seed corpus under testdata/fuzz/FuzzParseTraceHeader covers
// accepted headers with and without a policy and refused lines; plain
// `go test` replays it.
func FuzzParseTraceHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		h, err := ParseTraceHeader(line)
		if err != nil {
			return
		}
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatalf("header %+v does not encode: %v", h, err)
		}
		back, err := ParseTraceHeader(b)
		if err != nil {
			t.Fatalf("header %+v encodes to %s, which does not parse: %v", h, b, err)
		}
		if back != h {
			t.Fatalf("header %+v encodes to %s, which parses to %+v", h, b, back)
		}
	})
}
