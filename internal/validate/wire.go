package validate

import "fmt"

// Wire names a wire dialect of the served-IP protocol family — the one
// enum behind the CLI's -wire gob|f32|quant flag, DialOptions.Wire,
// ServerOptions.Wire and ReplayConfig.Wire: one value states which
// frames a session carries.
type Wire int

const (
	// WireAuto is the zero value: "no preference stated". Dialling
	// resolves it to WireGob; replay resolves it to the comparison
	// native to the session (the quantised wire verdict when the suite
	// and session support it, the generic float comparison otherwise).
	WireAuto Wire = iota
	// WireGob is protocol v2: gob-framed float64 tensors in both
	// directions — the bit-exact default dialect.
	WireGob
	// WireF32 is protocol v3: float32 tensor frames (half the replay
	// bandwidth), and float32 evaluation on servers hosting a float32
	// fleet. Replay against it needs ReplayConfig.Tolerance.
	WireF32
	// WireQuant is protocol v4: quantised delta-encoded replay frames
	// for QuantizedOutputs suites, with verdicts computed on the wire
	// representation.
	WireQuant
)

// String implements fmt.Stringer, returning the -wire flag spelling.
func (w Wire) String() string {
	switch w {
	case WireAuto:
		return "auto"
	case WireGob:
		return "gob"
	case WireF32:
		return "f32"
	case WireQuant:
		return "quant"
	default:
		return fmt.Sprintf("wire(%d)", int(w))
	}
}

// ParseWire maps a -wire flag value onto the enum. The empty string
// (flag not given) and "auto" both mean WireAuto.
func ParseWire(s string) (Wire, error) {
	switch s {
	case "", "auto":
		return WireAuto, nil
	case "gob":
		return WireGob, nil
	case "f32":
		return WireF32, nil
	case "quant":
		return WireQuant, nil
	default:
		return 0, fmt.Errorf("validate: unknown wire dialect %q (want gob, f32 or quant)", s)
	}
}
