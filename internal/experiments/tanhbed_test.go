package experiments

import (
	"sync"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/validate"
)

// campaignTestbed is a trained network, a suite built on it, and a
// victim pool.
type campaignTestbed struct {
	net     *nn.Network
	suite   *validate.Suite
	victims *data.Dataset
}

// tanhBed is a small trained Tanh MNIST substitute: the Table I
// left-column stack (centre, four convolutions, two dense layers) at
// width scale 0.12 on 16×16 digits. Its five parameter-owning layers
// give a replay many layers to skip, where campaignBed's one-conv ReLU
// net gives it almost none.
var tanhBed = sync.OnceValue(func() campaignTestbed {
	net, err := models.MNIST(16, 16, 0.12).Build(501)
	if err != nil {
		panic(err)
	}
	if _, err := train.Fit(net, data.Digits(120, 16, 16, 502), train.Config{
		Epochs: 2, BatchSize: 16, Optimizer: train.NewAdam(0.003), Seed: 1,
	}); err != nil {
		panic(err)
	}
	tests := make([]*tensor.Tensor, 0, 6)
	for _, s := range data.Digits(6, 16, 16, 503).Samples {
		tests = append(tests, s.X)
	}
	return campaignTestbed{
		net:     net,
		suite:   validate.BuildSuite("campaign-tanh", net, tests, validate.ExactOutputs),
		victims: data.Digits(30, 16, 16, 504),
	}
})
