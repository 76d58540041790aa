package experiments

import (
	"fmt"
	"net"

	"repro/internal/tensor"
	"repro/internal/validate"
)

// Wire reports the replay bandwidth of each wire-protocol dialect on
// each testbed: the same QuantizedOutputs suite replayed over real
// loopback TCP as v2 (gob float64 frames), v3 (float32 frames), and v4
// (quantised delta-encoded frames), with the traffic measured on the
// client connection. It is the paperbench-level evidence behind the
// dialects' bandwidth claims — the compression ratios are measured on
// the same suite the verdicts come from, not quoted.
type Wire struct {
	Rows []WireRow
}

// WireRow is one (testbed, dialect) measurement.
type WireRow struct {
	Model   string
	Dialect string
	// Queries is the suite length the bytes are averaged over.
	Queries int
	// BytesPerQuery is the steady-state total traffic (both directions,
	// one warm replay excluded) divided by the suite length.
	BytesPerQuery float64
	// Ratio is the v2 dialect's bytes/query divided by this row's —
	// how many times less traffic the dialect needs (1.0 for v2).
	Ratio float64
	// ReplayPass reports whether the replay verdict passed (against the
	// intact network it must).
	ReplayPass bool
}

// RunWire replays a QuantizedOutputs suite of probes training samples
// against each setup's network served over loopback TCP, once per
// dialect, and measures the steady-state bytes per query. One warm-up
// replay is excluded from the measurement: validation traffic is the
// same sealed suite replayed over and over, and the v4 replay-frame
// cache makes the second and later replays the representative cost.
// The v3 row replays under tol (float32 evaluation cannot match the
// float64 references' rounding exactly); v2 and v4 replay at the
// suite's own quantised comparison.
func RunWire(setups []*Setup, probes int, tol float64) (*Wire, error) {
	w := &Wire{}
	for _, s := range setups {
		n := min(probes, s.Train.Len())
		xs := make([]*tensor.Tensor, n)
		for i := 0; i < n; i++ {
			xs[i] = s.Train.Samples[i].X
		}
		suite := validate.BuildSuite(s.Name+"-wire", s.Net, xs, validate.QuantizedOutputs)

		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("experiments: wire listener: %w", err)
		}
		srv := validate.ServeWith(l, s.Net, validate.ServerOptions{Workers: 2, Wire: validate.WireF32})

		dialects := []struct {
			name string
			opts validate.DialOptions
			tol  float64
		}{
			{"v2 gob float64", validate.DialOptions{Wire: validate.WireGob}, 0},
			{"v3 float32", validate.DialOptions{Wire: validate.WireF32}, tol},
			{"v4 quant delta", validate.DialOptions{Wire: validate.WireQuant}, 0},
		}
		var v2Bytes float64
		for _, d := range dialects {
			bpq, pass, err := measureDialect(suite, srv.Addr(), d.opts, d.tol)
			if err != nil {
				srv.Close()
				return nil, fmt.Errorf("experiments: wire %s %s: %w", s.Name, d.name, err)
			}
			if v2Bytes == 0 {
				v2Bytes = bpq
			}
			w.Rows = append(w.Rows, WireRow{
				Model:         s.Name,
				Dialect:       d.name,
				Queries:       n,
				BytesPerQuery: bpq,
				Ratio:         v2Bytes / bpq,
				ReplayPass:    pass,
			})
		}
		srv.Close()
	}
	return w, nil
}

// measureDialect replays suite once to warm the session (and the v4
// replay-frame cache), then measures the traffic of a second replay.
func measureDialect(suite *validate.Suite, addr string, opts validate.DialOptions, tol float64) (float64, bool, error) {
	ip, err := validate.DialWith(addr, opts)
	if err != nil {
		return 0, false, err
	}
	defer ip.Close()
	vopts := validate.ValidateOptions{Batch: 16, Tolerance: tol}
	if _, err := suite.ValidateWith(ip, vopts); err != nil {
		return 0, false, err
	}
	before := ip.WireStats()
	rep, err := suite.ValidateWith(ip, vopts)
	if err != nil {
		return 0, false, err
	}
	used := ip.WireStats().Sub(before)
	return float64(used.Total()) / float64(suite.Len()), rep.Passed, nil
}

// Render returns the table text.
func (w *Wire) Render() string {
	tab := &Table{
		Title:   "Wire bandwidth — bytes/query per replay dialect (loopback, steady state)",
		Headers: []string{"model", "wire", "queries", "bytes/query", "vs v2", "replay"},
	}
	for _, r := range w.Rows {
		pass := "PASS"
		if !r.ReplayPass {
			pass = "FAIL"
		}
		tab.AddRow(r.Model, r.Dialect, r.Queries,
			fmt.Sprintf("%.1f", r.BytesPerQuery),
			fmt.Sprintf("%.1fx", r.Ratio), pass)
	}
	return tab.String()
}
