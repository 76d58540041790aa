// Package data provides the datasets of the reproduction. The paper
// evaluates on MNIST and CIFAR-10, which are not available offline, so
// this package generates procedural substitutes with the properties the
// algorithms actually depend on: a trainable in-distribution training
// set with per-class feature diversity (Digits, Objects), a Gaussian
// noise probe set, and an out-of-distribution "natural image" probe set
// (Natural) standing in for the paper's ImageNet probe (Fig. 2).
//
// All generators are deterministic given their seed.
package data

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Sample is one labelled image with pixel values in [0,1].
type Sample struct {
	X     *tensor.Tensor // [C,H,W]
	Label int
}

// Dataset is an ordered collection of samples sharing one geometry.
type Dataset struct {
	Name    string
	Classes int
	C, H, W int
	Samples []Sample
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Split partitions the dataset into a training set with n samples and a
// test set with the remainder. It panics if n is out of range.
func (d *Dataset) Split(n int) (train, test *Dataset) {
	if n < 0 || n > len(d.Samples) {
		panic(fmt.Sprintf("data: split point %d out of range [0,%d]", n, len(d.Samples)))
	}
	train = &Dataset{Name: d.Name + "/train", Classes: d.Classes, C: d.C, H: d.H, W: d.W, Samples: d.Samples[:n]}
	test = &Dataset{Name: d.Name + "/test", Classes: d.Classes, C: d.C, H: d.H, W: d.W, Samples: d.Samples[n:]}
	return train, test
}

// Shuffle permutes the samples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
}

// Subset returns a view of the first n samples.
func (d *Dataset) Subset(n int) *Dataset {
	if n > len(d.Samples) {
		n = len(d.Samples)
	}
	return &Dataset{Name: d.Name, Classes: d.Classes, C: d.C, H: d.H, W: d.W, Samples: d.Samples[:n]}
}

// Noise returns n Gaussian-noise images (mean 0.5, σ 0.25, clamped to
// [0,1]) with uniformly random labels; the paper's "noisy images" probe
// set in Fig. 2.
func Noise(n, c, h, w int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Name: "noise", Classes: 10, C: c, H: h, W: w}
	for i := 0; i < n; i++ {
		x := tensor.New(c, h, w)
		x.FillNormal(rng, 0.5, 0.25)
		x.Clamp(0, 1)
		d.Samples = append(d.Samples, Sample{X: x, Label: rng.Intn(10)})
	}
	return d
}
