package experiments

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/validate"
)

// Precision reports the float32 inference path against the float64
// reference on each testbed: how far the reduced-precision logits
// deviate, whether predictions survive the quantisation, and whether a
// reference suite replays clean under the tolerance the float32
// serving path would be validated with. It is the paperbench-level
// evidence that the -f32 serving mode is sound for replay validation
// (and that the bit-exact float64 mode is the one that is not
// negotiable).
type Precision struct {
	Rows []PrecisionRow
}

// PrecisionRow is one testbed's float32-vs-float64 summary.
type PrecisionRow struct {
	Model string
	// Probes is the number of training samples compared.
	Probes int
	// MaxAbsDev is the largest |f32 − f64| logit deviation observed.
	MaxAbsDev float64
	// ArgmaxAgree is the fraction of probes whose predicted class is
	// unchanged under float32.
	ArgmaxAgree float64
	// Tol is the replay tolerance used for the pass check.
	Tol float64
	// ReplayPass reports whether an ExactOutputs suite of the probes
	// replays clean against the float32 path under Tol.
	ReplayPass bool
}

// RunPrecision compares the float32 snapshot of each setup's network
// against the float64 reference over probes training samples,
// and replays an ExactOutputs suite of those samples against the
// float32 path under tol.
func RunPrecision(setups []*Setup, probes int, tol float64) (*Precision, error) {
	p := &Precision{}
	for _, s := range setups {
		n := min(probes, s.Train.Len())
		xs := make([]*tensor.Tensor, n)
		for i := 0; i < n; i++ {
			xs[i] = s.Train.Samples[i].X
		}
		f32 := nn.Freeze[float32](s.Net)
		maxDev, agree := 0.0, 0
		for _, x := range xs {
			want := s.Net.Forward(x)
			got := f32.Forward(x.F32())
			for j := range want.Data() {
				if d := math.Abs(want.Data()[j] - float64(got.Data()[j])); d > maxDev {
					maxDev = d
				}
			}
			if want.Argmax() == got.Argmax() {
				agree++
			}
		}

		suite := validate.BuildSuite(s.Name+"-precision", s.Net, xs, validate.ExactOutputs)
		ip := validate.NewSnapshotIP(s.Net, true)
		rep, err := suite.ValidateWith(ip, validate.ValidateOptions{Tolerance: tol})
		if err != nil {
			return nil, fmt.Errorf("experiments: precision replay for %s: %w", s.Name, err)
		}
		p.Rows = append(p.Rows, PrecisionRow{
			Model:       s.Name,
			Probes:      n,
			MaxAbsDev:   maxDev,
			ArgmaxAgree: float64(agree) / float64(n),
			Tol:         tol,
			ReplayPass:  rep.Passed,
		})
	}
	return p, nil
}

// Render returns the table text.
func (p *Precision) Render() string {
	tab := &Table{
		Title:   "Precision — float32 inference path vs float64 reference",
		Headers: []string{"model", "probes", "max |Δlogit|", "argmax agree", "tol", "f32 replay"},
	}
	for _, r := range p.Rows {
		pass := "PASS"
		if !r.ReplayPass {
			pass = "FAIL"
		}
		tab.AddRow(r.Model, r.Probes, fmt.Sprintf("%.2e", r.MaxAbsDev),
			r.ArgmaxAgree, fmt.Sprintf("%.0e", r.Tol), pass)
	}
	return tab.String()
}
