package dnswire

import (
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode, the parser of every live
// and chaos-corrupted response. Two properties: decoding never panics,
// and a message Decode accepts survives an Encode → Decode round trip
// unchanged whenever it can be encoded at all. The seed corpus under
// testdata/fuzz/FuzzDecode replays as a plain test.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		wire, err := m.Encode()
		if err != nil {
			return
		}
		back, err := Decode(wire)
		if err != nil {
			t.Fatalf("re-decode of an accepted message failed: %v\nmessage: %v", err, m)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed the message:\n got %v\nwant %v", back, m)
		}
	})
}
