package tensor

import "fmt"

// Precision conversion between the float64 reference tensors and the
// float32 inference path. Conversions are elementwise Go numeric
// conversions: float64→float32 rounds to nearest (the quantisation the
// reduced-precision serving path accepts under an explicit tolerance),
// float32→float64 is exact.

// F32 returns a float32 copy of t.
func (t *Dense[E]) F32() *T32 {
	c := NewOf[float32](t.shape...)
	for i, v := range t.data {
		c.data[i] = float32(v)
	}
	return c
}

// F64 returns a float64 copy of t.
func (t *Dense[E]) F64() *T64 {
	c := NewOf[float64](t.shape...)
	for i, v := range t.data {
		c.data[i] = float64(v)
	}
	return c
}

// ConvertInto copies src into dst elementwise, converting between
// precisions without allocating; nn.Freeze converts a network's
// parameters with it. It panics on a shape mismatch.
func ConvertInto[D, S Num](dst *Dense[D], src *Dense[S]) {
	if len(dst.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: ConvertInto size mismatch %v vs %v", dst.shape, src.shape))
	}
	for i, v := range src.data {
		dst.data[i] = D(v)
	}
}
