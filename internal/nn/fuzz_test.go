package nn

import (
	"bytes"
	"testing"
)

// FuzzDecodeNetwork drives nn.Decode, which any -model file reaches,
// with arbitrary bytes. It must never panic, and must check geometry
// and payload lengths before building a layer, so a small file cannot
// drive a large allocation. Whatever it accepts must survive a
// re-encode round trip with the same parameters. CI runs this natively
// (go test -fuzz) for a smoke interval on every pull request.
func FuzzDecodeNetwork(f *testing.F) {
	var valid bytes.Buffer
	if err := buildTestNet(41).Encode(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(encodeSpec(f, layerSpec{Kind: "conv", Name: "c", Ints: []int{1, 4, 4, 1, 2, 0, 0}}))
	f.Add(encodeSpec(f, layerSpec{Kind: "dense", Name: "fc", Ints: []int{8192, 8192}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := net.Encode(&buf); err != nil {
			t.Fatalf("accepted network does not re-encode: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded network does not decode: %v", err)
		}
		if again.NumParams() != net.NumParams() {
			t.Fatalf("round trip changed the parameter count %d → %d", net.NumParams(), again.NumParams())
		}
	})
}
