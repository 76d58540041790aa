package coverage

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// NeuronConfig controls the neuron-coverage criterion of the
// hardware-testing baseline (Ma et al. [11], DeepXplore [10]): a neuron
// is covered by an input when its activation output exceeds a threshold.
type NeuronConfig struct {
	// Threshold on the activation output. For ReLU-family networks a
	// neuron fires when out > Threshold (0 is the standard choice); for
	// saturating activations when |out| > Threshold.
	Threshold float64
}

// NumNeurons returns the total number of neurons (elements of activation
// layer outputs) the network has for the given input shape.
func NumNeurons(net *nn.Network, inShape []int) int {
	x := tensor.New(append([]int{1}, inShape...)...)
	total := 0
	for _, l := range net.LayerStack {
		x = l.ForwardBatch(x)
		if _, ok := l.(*nn.Activate); ok {
			total += x.Size()
		}
	}
	return total
}

// NeuronActivation returns the set of neurons x fires, indexed across
// all activation layers in network order; x runs as a batch of one.
func NeuronActivation(net *nn.Network, x *tensor.Tensor, cfg NeuronConfig) *bitset.Set {
	// Sizing the set first would take a second forward pass; collect
	// the activation outputs, then fill.
	type actOut struct {
		vals       []float64
		saturating bool
	}
	var outs []actOut
	total := 0
	cur := tensor.Stack([]*tensor.Tensor{x})
	for _, l := range net.LayerStack {
		cur = l.ForwardBatch(cur)
		if a, ok := l.(*nn.Activate); ok {
			outs = append(outs, actOut{vals: cur.Data(), saturating: a.Fn.Saturating()})
			total += cur.Size()
		}
	}
	set := bitset.New(total)
	idx := 0
	for _, o := range outs {
		for _, v := range o.vals {
			fired := v > cfg.Threshold
			if o.saturating {
				fired = math.Abs(v) > cfg.Threshold
			}
			if fired {
				set.Set(idx)
			}
			idx++
		}
	}
	return set
}
