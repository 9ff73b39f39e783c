package bgp

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRestoreState: RestoreState takes any decodable checkpoint without
// panicking, and a state it accepts exports, restores onto a fresh engine
// and exports again to the same bytes, with the same ribs. Every accepted
// prefix runs a full converge, so the corpus under
// testdata/fuzz/FuzzRestoreState also drives converge through arbitrary
// prepends and neighbour restrictions; plain `go test` replays it.
func FuzzRestoreState(f *testing.F) {
	tp, _ := figure1World(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var states []PrefixState
		if json.Unmarshal(data, &states) != nil {
			return
		}
		e := NewEngine(tp)
		if e.RestoreState(states) != nil {
			return
		}
		exported := e.ExportState()
		want, err := json.Marshal(exported)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewEngine(tp)
		if err := fresh.RestoreState(exported); err != nil {
			t.Fatalf("restoring an export fails: %v\n%s", err, want)
		}
		got, err := json.Marshal(fresh.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("export does not round-trip:\n got %s\nwant %s", got, want)
		}
		for _, ps := range exported {
			if asn, ok := ribsEqual(e, snapshotRibs(e, ps.Prefix), snapshotRibs(fresh, ps.Prefix)); !ok {
				t.Fatalf("%s: restored rib for %s differs", ps.Prefix, asn)
			}
		}
	})
}
