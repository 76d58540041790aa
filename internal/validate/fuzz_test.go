package validate

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// FuzzDecodeFrame drives every wire decoder that parses peer-supplied
// bytes with arbitrary input: the v4 replay-frame resolver (reference
// block + raw-bits inputs), the v4 client-side output decoder, and the
// v2/v3 float tensor validators. None may panic or let a hostile
// length drive an allocation; whatever they accept must satisfy the
// decoded invariants. CI runs this natively (go test -fuzz) for a
// smoke interval on every PR alongside internal/quant's codec fuzzer;
// the seed corpus under testdata/fuzz pins one interesting input per
// lane.
func FuzzDecodeFrame(f *testing.F) {
	scale, _ := quant.Scale(6)
	refs := quant.AppendFrame(nil, quant.QuantizeFrame([]float64{1.5, -2.25}, scale), nil)
	x := tensor.FromSlice([]float64{0.25, 0.75}, 2)
	bits := toWireBits(x).Bits
	// One seed per lane, plus a hostile-length probe.
	f.Add(refs, 2, 1, 2, uint8(6), uint8(0))
	f.Add(bits, 2, 1, 0, uint8(6), uint8(0))
	f.Add(refs, 2, 1, 2, uint8(6), uint8(1))
	f.Add(bits, 2, 1, 2, uint8(6), uint8(2))
	f.Add([]byte{0}, math.MaxInt/2, 3, math.MaxInt, uint8(200), uint8(0))

	f.Fuzz(func(t *testing.T, payload []byte, d0, d1, refn int, decimals, lane uint8) {
		shape := []int{d0, d1}
		switch lane % 3 {
		case 0:
			// Server side of v4: a freshly received replay frame, its
			// reference block and raw-bits inputs both hostile.
			fr := &frameV4{
				Inputs:   []wireBits{{Shape: shape, Bits: payload}},
				Refs:     payload,
				RefN:     []int{refn},
				Decimals: decimals,
			}
			sf, err := resolveFrameV4(fr)
			if err != nil {
				return
			}
			if len(sf.inputs) != 1 || sf.inputs[0].Size()*8 != len(payload) {
				t.Fatalf("accepted frame decoded %d inputs (size %d) from %d payload bytes",
					len(sf.inputs), sf.inputs[0].Size(), len(payload))
			}
			if _, err := quant.Scale(int(decimals)); err != nil {
				t.Fatalf("frame accepted with out-of-range decimals %d", decimals)
			}
		case 1:
			// Client side of v4: a response's quantised output frames,
			// chained (nil refs) and against a reference base.
			outs := []wireQuant{{Shape: shape, Data: payload}, {Shape: []int{refn}, Data: payload}}
			base := []quant.Frame{quant.QuantizeFrame([]float64{1.5, -2.25}, scale), nil}
			for _, rf := range [][]quant.Frame{nil, base} {
				frames, shapes, err := decodeQuantOutputs(outs, rf)
				if err != nil {
					continue
				}
				if len(frames) != len(outs) || len(shapes) != len(outs) {
					t.Fatalf("accepted response decoded %d frames for %d outputs", len(frames), len(outs))
				}
				for i, fr := range frames {
					n, err := shapeSize(shapes[i])
					if err != nil || len(fr) != n {
						t.Fatalf("output %d: %d values for shape %v (%v)", i, len(fr), shapes[i], err)
					}
				}
			}
		case 2:
			// The v2/v3 dialects: float64 and float32 wire tensors with
			// hostile shapes. Payload bytes become the float data so the
			// length checks are exercised against real sizes.
			vals := make([]float64, len(payload)/8)
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
			}
			if got, err := fromWire(wireTensor{Shape: shape, Data: vals}); err == nil {
				if got.Size() != len(vals) {
					t.Fatalf("v2 tensor accepted with %d values for size %d", len(vals), got.Size())
				}
			}
			vals32 := make([]float32, len(payload)/4)
			for i := range vals32 {
				vals32[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
			}
			if got, err := fromWire32(wireTensor32{Shape: shape, Data: vals32}); err == nil {
				if got.Size() != len(vals32) {
					t.Fatalf("v3 tensor accepted with %d values for size %d", len(vals32), got.Size())
				}
			}
		}
	})
}

// FuzzOpenSuite drives OpenSuite, which every sealed-suite file reaches,
// with arbitrary files under a fixed key. Each input is opened as given
// — the framing and the MAC check — and again re-MACed under the key,
// so mutations inside the payload get past the MAC and reach the gob
// decoder and the tensor checks. Neither may panic or let a declared
// length drive an allocation; a suite either opens whole, sealing back
// to the same bytes, or fails with an error. The seeds are a valid
// sealed file and one sealed under another key.
func FuzzOpenSuite(f *testing.F) {
	key := []byte("fuzz-key")
	// A small hand-built suite: seeds stay short for the mutator, and
	// no network has to be trained before the first execution.
	suite := &Suite{Name: "fuzz", Mode: QuantizedOutputs, Decimals: 6,
		Inputs:  []*tensor.Tensor{tensor.FromSlice([]float64{0.25, 0.75, -1}, 3, 1), tensor.FromSlice([]float64{2}, 1)},
		Outputs: []*tensor.Tensor{tensor.FromSlice([]float64{1.5, -2.25}, 2), tensor.FromSlice([]float64{math.Inf(1)}, 1)}}
	for _, k := range [][]byte{key, []byte("other-key")} {
		var sealed bytes.Buffer
		if err := suite.Seal(&sealed, k); err != nil {
			f.Fatal(err)
		}
		f.Add(sealed.Bytes())
	}

	f.Fuzz(func(t *testing.T, file []byte) {
		opened := [][]byte{file}
		if len(file) >= 8+sha256.Size {
			payload := file[8 : len(file)-sha256.Size]
			remac := binary.BigEndian.AppendUint64(nil, uint64(len(payload)))
			remac = append(remac, payload...)
			mac := hmac.New(sha256.New, key)
			mac.Write(payload)
			opened = append(opened, mac.Sum(remac))
		}
		for _, b := range opened {
			s, err := OpenSuite(bytes.NewReader(b), key)
			if err != nil {
				continue
			}
			if len(s.Inputs) != len(s.Outputs) {
				t.Fatalf("opened suite has %d inputs and %d outputs", len(s.Inputs), len(s.Outputs))
			}
			var again bytes.Buffer
			if err := s.Seal(&again, key); err != nil {
				t.Fatalf("opened suite does not seal: %v", err)
			}
			back, err := OpenSuite(&again, key)
			if err != nil {
				t.Fatalf("resealed suite does not open: %v", err)
			}
			if back.Name != s.Name || back.Mode != s.Mode || back.Decimals != s.Decimals || back.Len() != s.Len() {
				t.Fatalf("seal round trip changed the suite header")
			}
		}
	})
}
