package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// f32Digests pins the float32 inference path bit for bit: the SHA-256
// of the float32 logits bits of nn.Freeze[float32] on both Table I
// substitutes, over eight inputs in order. The batched pass and each
// input on its own must both give it.
var f32Digests = map[string]string{
	"mnist-tanh": "cd5e95e38695dad661a5b0050660f572c4f9538322679507dea1bb05d87c91d8",
	"cifar-relu": "06bd3f84a00a07fabbee543d1c1180fe7bc5bbf5a5b030721d634dbff9c2b11f",
}

// f32Hash hashes the float32 bits of each logits row in order.
func f32Hash(rows []*tensor.T32) string {
	h := sha256.New()
	var buf []byte
	for _, r := range rows {
		for _, v := range r.Data() {
			buf = binary.LittleEndian.AppendUint32(buf[:0], math.Float32bits(v))
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestF32LogitsMatchStoredDigests runs the float32 snapshot of each
// Table I substitute on eight of its dataset's inputs, as one batch and
// one input at a time, and holds both to the stored digest.
func TestF32LogitsMatchStoredDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; on %s fused multiply-adds may change the bits (arm64 fuses them)", runtime.GOARCH)
	}
	for _, c := range []struct {
		arch Arch
		ds   *data.Dataset
	}{
		{MNIST(20, 20, 0.25), data.Digits(8, 20, 20, 31)},
		{CIFAR(20, 20, 0.12), data.Objects(8, 20, 20, 32)},
	} {
		net, err := c.arch.Build(33)
		if err != nil {
			t.Fatal(err)
		}
		f32 := nn.Freeze[float32](net)
		xs := make([]*tensor.T32, c.ds.Len())
		for i, s := range c.ds.Samples {
			xs[i] = s.X.F32()
		}
		logits := f32.ForwardBatch(tensor.Stack(xs))
		batched := make([]*tensor.T32, len(xs))
		single := make([]*tensor.T32, len(xs))
		for i, x := range xs {
			batched[i] = logits.Sample(i)
			single[i] = f32.Forward(x)
		}
		want := f32Digests[c.arch.Name]
		if got := f32Hash(batched); got != want {
			t.Errorf("%s batched: digest %s, stored %s", c.arch.Name, got, want)
		}
		if got := f32Hash(single); got != want {
			t.Errorf("%s one at a time: digest %s, stored %s", c.arch.Name, got, want)
		}
	}
}
