package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// Direct convolution: the three kernels below read a [C,H,W] input
// through the convolution's window map instead of lowering it with
// Im2Col, so no [C·KH·KW, OutH·OutW] column matrix, column-gradient
// product or Col2Im tensor is ever built (the indirect-convolution idea
// of Dukhan, "The Indirect Convolution Algorithm", arXiv:1907.02129).
// Both layer precisions call the same generic kernels.
//
// Window map. Row kk = (c·KH+ki)·KW+kj of the column matrix holds, at
// column t = oi·OutW+oj, the input value at (c, oi·S+ki−P, oj·S+kj−P),
// or 0 outside the input. On a zero-bordered copy xp of the input, of
// width Wp = W+2P and height Hp = H+2P, that value sits at
//
//	base(kk) + S·(oi·Wp + oj),  base(kk) = c·Hp·Wp + ki·Wp + kj,
//
// so one kernel offset reads a strided run of xp. With P = 0 the input
// is its own padded copy; otherwise the copy comes from the pooled
// scratch the packed GEMM uses.
//
// Exactness. Every element receives the terms the im2col sequence gave
// it, in the same order, with the same zero-skips, so the kernels are
// bit-identical to it (conv_test.go pins each one against its im2col
// reference, with NaN, ±Inf, −0 and subnormal values among the finite
// ones):
//
//   - Forward: out[o,t] starts at +0, adds w[o,kk]·col[kk,t] for
//     ascending kk, skipping w[o,kk] == 0 (the gemmPanelDirect
//     sequence), then adds bias[o]. The padded copy supplies the +0
//     the column matrix holds, so the w·0 terms stay.
//   - Weight gradient: dw[o,kk] gets one scalar dot over ascending t,
//     started at +0 with no skip (the MatMulTBInto sequence), added to
//     dw once. Padded positions contribute d·0, so a non-finite
//     gradient propagates as it did through the column matrix.
//   - Input gradient: each column-gradient element is the ascending-o
//     sum with MatMulTA's zero-skip, and a column-gradient row is
//     complete before it is scattered into dx in Col2Im's
//     (c, ki, kj, oi, oj) order.
//
// Four-channel blocking shares each loaded value between four output
// channels. It only reorders which element advances next, never the
// terms within one element; the forward and input-gradient kernels
// block only when all four weights are non-zero and otherwise run each
// channel alone with its own skip.
//
// Parallelism follows the GEMM family's kernelWorkers sizing: a batch
// splits by sample (forward) or by (sample, input channel) (input
// gradient, since one channel's scatter touches only its own plane),
// and a single sample splits by four-channel block. Each unit runs the
// serial sequence, so results never depend on the worker count.

// convWindow is a geometry's padded-input layout.
type convWindow struct {
	ConvGeom
	wp    int // padded width W+2P
	plane int // padded plane size (H+2P)·wp
	hw    int // OutH·OutW
	ckk   int // C·KH·KW, the column-matrix height
	wide  int // (OutH−1)·wp + OutW: one output channel's wide run
}

func windowOf(g ConvGeom) convWindow {
	wp := g.W + 2*g.Pad
	return convWindow{
		ConvGeom: g,
		wp:       wp,
		plane:    (g.H + 2*g.Pad) * wp,
		hw:       g.OutH * g.OutW,
		ckk:      g.C * g.KH * g.KW,
		wide:     (g.OutH-1)*wp + g.OutW,
	}
}

// base returns the padded-input offset of column-matrix row (c, ki, kj).
func (cw convWindow) base(c, ki, kj int) int { return c*cw.plane + ki*cw.wp + kj }

// padded returns sample xs ([C,H,W]) as its zero-bordered copy: xs
// itself without padding, otherwise the copy written into buf.
func padded[E Num](cw convWindow, xs, buf []E) []E {
	if cw.Pad == 0 {
		return xs
	}
	xp := buf[:cw.C*cw.plane]
	clear(xp)
	for c := 0; c < cw.C; c++ {
		for i := 0; i < cw.H; i++ {
			src := xs[(c*cw.H+i)*cw.W : (c*cw.H+i+1)*cw.W]
			copy(xp[cw.base(c, i+cw.Pad, cw.Pad):], src)
		}
	}
	return xp
}

// paddedSample is padded with its scratch taken from the pool: it
// returns the copy and the pooled buffer holding it (nil without
// padding), which the caller hands back to packPut.
func paddedSample[E Num](cw convWindow, xs []E) ([]E, *[]E) {
	if cw.Pad == 0 {
		return xs, nil
	}
	bufp := packGet[E](cw.padLen())
	return padded(cw, xs, *bufp), bufp
}

// padLen is the scratch a padded copy needs: none without padding.
func (cw convWindow) padLen() int {
	if cw.Pad == 0 {
		return 0
	}
	return cw.C * cw.plane
}

// convSamples returns the sample count of t, a [C,H,W] tensor (one
// sample) or a [B,C,H,W] batch whose trailing dimensions are (c, h, w).
func convSamples[E Num](t *Dense[E], c, h, w int, name, operand string) int {
	switch {
	case t.Rank() == 3 && t.Dim(0) == c && t.Dim(1) == h && t.Dim(2) == w:
		return 1
	case t.Rank() == 4 && t.Dim(1) == c && t.Dim(2) == h && t.Dim(3) == w:
		return t.Dim(0)
	}
	panic(fmt.Sprintf("tensor: %s %s %v, want [%d %d %d] or [B %d %d %d]", name, operand, t.Shape(), c, h, w, c, h, w))
}

// checkConvWeight panics unless w is an [OutC, C·KH·KW] weight matrix
// for cw and returns OutC.
func checkConvWeight[E Num](w *Dense[E], cw convWindow, name string) int {
	if w.Rank() != 2 || w.Dim(1) != cw.ckk {
		panic(fmt.Sprintf("tensor: %s weight %v, want [OutC %d]", name, w.Shape(), cw.ckk))
	}
	return w.Dim(0)
}

// checkConvSize panics unless t holds exactly n elements.
func checkConvSize[E Num](t *Dense[E], n int, name, operand string) {
	if t.Size() != n {
		panic(fmt.Sprintf("tensor: %s %s %v holds %d elements, want %d", name, operand, t.Shape(), t.Size(), n))
	}
}

// ConvForward writes the convolution of x by the [OutC, C·KH·KW] weight
// matrix w, plus bias ([OutC]), into out: x is one [C,H,W] sample or a
// [B,C,H,W] batch, and out holds OutC·OutH·OutW elements per sample
// ([OutC,OutH,OutW] or [B,OutC,OutH,OutW]). It is bit-identical to
// MatMul(w, Im2Col(x)) followed by a bias pass, sample by sample.
func ConvForward[E Num](out, x, w, bias *Dense[E], g ConvGeom) {
	cw := windowOf(g)
	b := convSamples(x, g.C, g.H, g.W, "ConvForward", "input")
	outC := checkConvWeight(w, cw, "ConvForward")
	checkConvSize(bias, outC, "ConvForward", "bias")
	checkConvSize(out, b*outC*cw.hw, "ConvForward", "output")
	flops := satMul(b, gemmFlops(outC, cw.ckk, cw.hw))
	if b == 1 {
		// One sample splits by four-channel block around one padded copy.
		xp, bufp := paddedSample(cw, x.data)
		blocks := (outC + 3) / 4
		if workers := kernelWorkers(blocks, flops); workers <= 1 {
			convForwardBlocks(cw, out.data, xp, w.data, bias.data, 0, blocks, outC)
		} else {
			parallel.ForUncounted(blocks, workers, func(_, lo, hi int) {
				convForwardBlocks(cw, out.data, xp, w.data, bias.data, lo, hi, outC)
			})
		}
		packPut(bufp)
		return
	}
	// A batch splits by sample; each worker pads its own samples.
	if workers := kernelWorkers(b, flops); workers <= 1 {
		convForwardSamples(cw, out.data, x.data, w.data, bias.data, 0, b, outC)
	} else {
		parallel.ForUncounted(b, workers, func(_, lo, hi int) {
			convForwardSamples(cw, out.data, x.data, w.data, bias.data, lo, hi, outC)
		})
	}
}

// convForwardBlocks computes four-channel blocks [lo,hi) of one sample
// from its padded input xp.
func convForwardBlocks[E Num](cw convWindow, out, xp, w, bias []E, lo, hi, outC int) {
	lo, hi = 4*lo, min(4*hi, outC)
	widep := packGet[E]((hi - lo) * cw.wide)
	convForwardChannels(cw, out, xp, w, bias, *widep, lo, hi)
	packPut(widep)
}

// convForwardSamples computes samples [lo,hi) of a batch.
func convForwardSamples[E Num](cw convWindow, out, x, w, bias []E, lo, hi, outC int) {
	inSz, outSz, padLen := cw.C*cw.H*cw.W, outC*cw.hw, cw.padLen()
	bufp := packGet[E](padLen + outC*cw.wide)
	pad, wide := (*bufp)[:padLen], (*bufp)[padLen:]
	for s := lo; s < hi; s++ {
		xp := padded(cw, x[s*inSz:(s+1)*inSz], pad)
		convForwardChannels(cw, out[s*outSz:(s+1)*outSz], xp, w, bias, wide, 0, outC)
	}
	packPut(bufp)
}

// convForwardChannels computes output channels [lo,hi) of one sample
// into out ([OutC, hw]) from its padded input xp, using wide as the
// channels' accumulators. Channel o accumulates the wide run
// wide[t] for t < cw.wide, where t = oi·wp+oj: each kernel offset is
// one contiguous axpy per channel, and the wp−OutW columns past each
// output row are dropped when the bias epilogue copies the run out.
func convForwardChannels[E Num](cw convWindow, out, xp, w, bias, wide []E, lo, hi int) {
	n, s := cw.wide, cw.Stride
	wide = wide[:(hi-lo)*n]
	clear(wide)
	acc := func(o int) []E { return wide[(o-lo)*n : (o-lo+1)*n] }
	for c := 0; c < cw.C; c++ {
		for ki := 0; ki < cw.KH; ki++ {
			for kj := 0; kj < cw.KW; kj++ {
				kk := (c*cw.KH+ki)*cw.KW + kj
				xs := xp[cw.base(c, ki, kj):]
				o := lo
				for ; o+4 <= hi; o += 4 {
					w0, w1, w2, w3 := w[o*cw.ckk+kk], w[(o+1)*cw.ckk+kk], w[(o+2)*cw.ckk+kk], w[(o+3)*cw.ckk+kk]
					if w0 != 0 && w1 != 0 && w2 != 0 && w3 != 0 {
						axpy4(acc(o), acc(o+1), acc(o+2), acc(o+3), xs, w0, w1, w2, w3, s)
						continue
					}
					for i, wv := range [4]E{w0, w1, w2, w3} {
						if wv != 0 {
							axpy(acc(o+i), xs, wv, s)
						}
					}
				}
				for ; o < hi; o++ {
					if wv := w[o*cw.ckk+kk]; wv != 0 {
						axpy(acc(o), xs, wv, s)
					}
				}
			}
		}
	}
	for o := lo; o < hi; o++ {
		bv, r := bias[o], acc(o)
		dst := out[o*cw.hw : (o+1)*cw.hw]
		for oi := 0; oi < cw.OutH; oi++ {
			row := r[oi*cw.wp : oi*cw.wp+cw.OutW]
			drow := dst[oi*cw.OutW : (oi+1)*cw.OutW]
			for oj, v := range row {
				drow[oj] = v + bv
			}
		}
	}
}

// axpy adds a·x[s·t] to r[t] for every t < len(r).
func axpy[E Num](r, x []E, a E, s int) {
	if s == 1 {
		x = x[:len(r)]
		for t, xv := range x {
			r[t] += a * xv
		}
		return
	}
	for t := range r {
		r[t] += a * x[s*t]
	}
}

// axpy4 is axpy for four accumulators of equal length sharing each
// loaded x value.
func axpy4[E Num](r0, r1, r2, r3, x []E, a0, a1, a2, a3 E, s int) {
	n := len(r0)
	r1, r2, r3 = r1[:n], r2[:n], r3[:n]
	if s == 1 {
		x = x[:n]
		for t, xv := range x {
			r0[t] += a0 * xv
			r1[t] += a1 * xv
			r2[t] += a2 * xv
			r3[t] += a3 * xv
		}
		return
	}
	for t := range r0 {
		xv := x[s*t]
		r0[t] += a0 * xv
		r1[t] += a1 * xv
		r2[t] += a2 * xv
		r3[t] += a3 * xv
	}
}

// ConvWeightGrad accumulates one sample's weight gradient into dw
// ([OutC, C·KH·KW]): dw[o,kk] += Σ_t d[o,t]·col[kk,t], where d holds
// the sample's OutC·OutH·OutW output gradient and x is its [C,H,W]
// input. It is bit-identical to MatMulTBInto(dw, d, Im2Col(x), true).
func ConvWeightGrad[E Num](dw, d, x *Dense[E], g ConvGeom) {
	cw := windowOf(g)
	if x.Rank() != 3 || x.Dim(0) != g.C || x.Dim(1) != g.H || x.Dim(2) != g.W {
		panic(fmt.Sprintf("tensor: ConvWeightGrad input %v, want one [%d %d %d] sample", x.Shape(), g.C, g.H, g.W))
	}
	outC := checkConvWeight(dw, cw, "ConvWeightGrad")
	checkConvSize(d, outC*cw.hw, "ConvWeightGrad", "output gradient")
	xp, bufp := paddedSample(cw, x.data)
	blocks := (outC + 3) / 4
	if workers := kernelWorkers(blocks, gemmFlops(outC, cw.ckk, cw.hw)); workers <= 1 {
		convWeightGradChannels(cw, dw.data, d.data, xp, 0, outC)
	} else {
		parallel.ForUncounted(blocks, workers, func(_, lo, hi int) {
			convWeightGradChannels(cw, dw.data, d.data, xp, 4*lo, min(4*hi, outC))
		})
	}
	packPut(bufp)
}

// convWeightGradChannels accumulates rows [lo,hi) of dw, four channels
// at a time so that each loaded input value serves four dots. A last
// block of fewer than four channels repeats its last row to fill the
// four and stores only its own dots: the dots are unskipped, so the
// extra one changes nothing, and four independent sums run faster than
// one, whose every add waits for the previous.
func convWeightGradChannels[E Num](cw convWindow, dw, d, xp []E, lo, hi int) {
	row := func(o int) []E {
		o = min(o, hi-1)
		return d[o*cw.hw : (o+1)*cw.hw]
	}
	for o := lo; o < hi; o += 4 {
		n := min(4, hi-o)
		d0, d1, d2, d3 := row(o), row(o+1), row(o+2), row(o+3)
		for c := 0; c < cw.C; c++ {
			for ki := 0; ki < cw.KH; ki++ {
				for kj := 0; kj < cw.KW; kj++ {
					kk := (c*cw.KH+ki)*cw.KW + kj
					s := dot4(&cw, d0, d1, d2, d3, xp[cw.base(c, ki, kj):])
					for i := 0; i < n; i++ {
						dw[(o+i)*cw.ckk+kk] += s[i]
					}
				}
			}
		}
	}
}

// dot4 returns the four dots Σ_t dr[t]·x̂[t] over ascending output
// positions t, one per gradient row dr, where x̂ is the window run xs
// reads: each is the MatMulTB dot of a gradient row with a
// column-matrix row, started at +0 with no skip. The four share each
// loaded input value.
func dot4[E Num](cw *convWindow, d0, d1, d2, d3, xs []E) [4]E {
	var s0, s1, s2, s3 E
	for oi := 0; oi < cw.OutH; oi++ {
		lo, hi := oi*cw.OutW, (oi+1)*cw.OutW
		r0, r1, r2, r3 := d0[lo:hi], d1[lo:hi], d2[lo:hi], d3[lo:hi]
		xr := xs[cw.Stride*oi*cw.wp:]
		if cw.Stride == 1 {
			xr = xr[:len(r0)]
			for oj, xv := range xr {
				s0 += r0[oj] * xv
				s1 += r1[oj] * xv
				s2 += r2[oj] * xv
				s3 += r3[oj] * xv
			}
			continue
		}
		for oj := range r0 {
			xv := xr[cw.Stride*oj]
			s0 += r0[oj] * xv
			s1 += r1[oj] * xv
			s2 += r2[oj] * xv
			s3 += r3[oj] * xv
		}
	}
	return [4]E{s0, s1, s2, s3}
}

// ConvInputGrad writes the input gradient of the convolution by w
// ([OutC, C·KH·KW]) into dx: dx is one [C,H,W] sample or a [B,C,H,W]
// batch, and d holds OutC·OutH·OutW output-gradient elements per sample.
// It is bit-identical to Col2Im(MatMulTA(w, d)), sample by sample.
func ConvInputGrad[E Num](dx, d, w *Dense[E], g ConvGeom) {
	cw := windowOf(g)
	b := convSamples(dx, g.C, g.H, g.W, "ConvInputGrad", "input gradient")
	outC := checkConvWeight(w, cw, "ConvInputGrad")
	checkConvSize(d, b*outC*cw.hw, "ConvInputGrad", "output gradient")
	units := b * g.C
	if workers := kernelWorkers(units, satMul(b, gemmFlops(outC, cw.ckk, cw.hw))); workers <= 1 {
		convInputGradUnits(cw, dx.data, d.data, w.data, 0, units, outC)
	} else {
		parallel.ForUncounted(units, workers, func(_, lo, hi int) {
			convInputGradUnits(cw, dx.data, d.data, w.data, lo, hi, outC)
		})
	}
}

// convInputGradUnits writes units [lo,hi) of the input gradient, unit
// s·C+c being plane c of sample s.
func convInputGradUnits[E Num](cw convWindow, dx, d, w []E, lo, hi, outC int) {
	inSz, outSz := cw.C*cw.H*cw.W, outC*cw.hw
	rowp := packGet[E](cw.hw)
	for u := lo; u < hi; u++ {
		s, c := u/cw.C, u%cw.C
		convInputGradChannel(cw, dx[s*inSz:(s+1)*inSz], d[s*outSz:(s+1)*outSz], w, (*rowp)[:cw.hw], c, outC)
	}
	packPut(rowp)
}

// convInputGradChannel writes plane c of one sample's input gradient
// dx: for each column-matrix row of channel c, in ascending order, it
// sums the output channels into the row r and scatters r into the
// plane in Col2Im's order.
func convInputGradChannel[E Num](cw convWindow, dx, d, w, r []E, c, outC int) {
	hw := len(r)
	plane := dx[c*cw.H*cw.W : (c+1)*cw.H*cw.W]
	clear(plane)
	for ki := 0; ki < cw.KH; ki++ {
		for kj := 0; kj < cw.KW; kj++ {
			kk := (c*cw.KH+ki)*cw.KW + kj
			clear(r)
			o := 0
			for ; o+4 <= outC; o += 4 {
				w0, w1, w2, w3 := w[o*cw.ckk+kk], w[(o+1)*cw.ckk+kk], w[(o+2)*cw.ckk+kk], w[(o+3)*cw.ckk+kk]
				if w0 != 0 && w1 != 0 && w2 != 0 && w3 != 0 {
					d0, d1, d2, d3 := d[o*hw:][:hw], d[(o+1)*hw:][:hw], d[(o+2)*hw:][:hw], d[(o+3)*hw:][:hw]
					for t, v := range r {
						v += w0 * d0[t]
						v += w1 * d1[t]
						v += w2 * d2[t]
						v += w3 * d3[t]
						r[t] = v
					}
					continue
				}
				for i, wv := range [4]E{w0, w1, w2, w3} {
					if wv != 0 {
						axpy(r, d[(o+i)*hw:], wv, 1)
					}
				}
			}
			for ; o < outC; o++ {
				if wv := w[o*cw.ckk+kk]; wv != 0 {
					axpy(r, d[o*hw:], wv, 1)
				}
			}
			// Col2Im's scatter of row kk: output column oj lands at input
			// column oj·S+kj−P, inside the plane for oj in [jLo, jHi).
			jLo, jHi := 0, cw.OutW
			for jLo < jHi && jLo*cw.Stride+kj < cw.Pad {
				jLo++
			}
			for jHi > jLo && (jHi-1)*cw.Stride+kj-cw.Pad >= cw.W {
				jHi--
			}
			if jLo == jHi {
				continue // the whole row falls in the padding
			}
			for oi := 0; oi < cw.OutH; oi++ {
				ii := oi*cw.Stride + ki - cw.Pad
				if ii < 0 || ii >= cw.H {
					continue
				}
				xrow := plane[ii*cw.W : (ii+1)*cw.W]
				rr := r[oi*cw.OutW : (oi+1)*cw.OutW]
				if cw.Stride == 1 {
					rr = rr[jLo:jHi]
					xr := xrow[jLo+kj-cw.Pad:][:len(rr)]
					for oj, v := range rr {
						xr[oj] += v
					}
					continue
				}
				for oj := jLo; oj < jHi; oj++ {
					xrow[oj*cw.Stride+kj-cw.Pad] += rr[oj]
				}
			}
		}
	}
}
