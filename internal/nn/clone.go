package nn

import "fmt"

// CloneArchitecture returns a structurally identical network with fresh
// zero parameters. All layer kinds the serializer understands are
// supported; unknown kinds panic, mirroring Encode's error.
func (n *Network) CloneArchitecture() *Network {
	layers := make([]Layer, 0, len(n.LayerStack))
	for _, l := range n.LayerStack {
		switch t := l.(type) {
		case *Conv2D:
			layers = append(layers, NewConv2D(t.LayerName, t.InC, t.InH, t.InW, t.OutC, t.K, t.Stride, t.Pad))
		case *Dense:
			layers = append(layers, NewDense(t.LayerName, t.In, t.Out))
		case *MaxPool2D:
			layers = append(layers, NewMaxPool2D(t.LayerName, t.C, t.H, t.W, t.K, t.Stride))
		case *Activate:
			layers = append(layers, NewActivate(t.LayerName, t.Fn))
		case *Flatten:
			layers = append(layers, NewFlatten(t.LayerName))
		case *ScaleShift:
			layers = append(layers, NewScaleShift(t.LayerName, t.A, t.B))
		default:
			panic(fmt.Sprintf("nn: cannot clone layer type %T", l))
		}
	}
	return NewNetwork(layers...)
}

// Clone returns a deep copy of the network: same architecture, same
// parameter values, zero gradients, and no shared state. Each worker of
// a parallel evaluation runs forward/backward passes on its own clone,
// because layers cache per-input state between Forward and Backward.
func (n *Network) Clone() *Network {
	c := n.CloneArchitecture()
	c.SyncParamsFrom(n)
	return c
}

// sameRegistry panics unless src's parameter registry matches n's
// (same tensor count and sizes), the precondition of the bulk copies.
func (n *Network) sameRegistry(src *Network, op string) {
	checkRegistry(len(n.flat), func(i int) int { return n.flat[i].W.Size() }, src, op)
}

// checkRegistry panics unless src's parameter registry has count
// tensors and tensor i has size(i) elements.
func checkRegistry(count int, size func(i int) int, src *Network, op string) {
	if count != len(src.flat) {
		panic(fmt.Sprintf("nn: %s across different architectures (%d vs %d param tensors)", op, count, len(src.flat)))
	}
	for i, p := range src.flat {
		if size(i) != p.W.Size() {
			panic(fmt.Sprintf("nn: %s param %d size mismatch (%d vs %d)", op, i, size(i), p.W.Size()))
		}
	}
}

// SyncParamsFrom copies every parameter value from src into n without
// allocating; how training workers are refreshed from the main network
// after each optimizer step.
func (n *Network) SyncParamsFrom(src *Network) {
	n.sameRegistry(src, "SyncParamsFrom")
	for i, p := range n.flat {
		copy(p.W.Data(), src.flat[i].W.Data())
	}
}

// AddGradsFrom accumulates src's parameter gradients into n's. Merging
// worker gradients in a fixed worker order keeps parallel training
// deterministic for a given seed and worker count.
func (n *Network) AddGradsFrom(src *Network) {
	n.sameRegistry(src, "AddGradsFrom")
	for i, p := range n.flat {
		g, sg := p.Grad.Data(), src.flat[i].Grad.Data()
		for j := range g {
			g[j] += sg[j]
		}
	}
}
