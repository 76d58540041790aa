package validate

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/tensor"
)

// The paper requires that "the shared functional tests X and the
// corresponding outputs Y are encrypted, thus their integrity can be
// ensured". This file implements the integrity half with HMAC-SHA256
// over the gob-encoded suite: the vendor seals with a key shared with
// the user out of band; tampering with the distributed artefact is
// detected at open time.

// wireSuite is the gob form of a Suite (tensors flattened to
// shape+data pairs).
type wireSuite struct {
	Version  int
	Name     string
	Mode     int
	Decimals int
	Inputs   []wireTensor
	Outputs  []wireTensor
}

type wireTensor struct {
	Shape []int
	Data  []float64
}

const sealVersion = 1

func toWire(t *tensor.Tensor) wireTensor {
	d := make([]float64, t.Size())
	copy(d, t.Data())
	return wireTensor{Shape: append([]int(nil), t.Shape()...), Data: d}
}

func fromWire(w wireTensor) (*tensor.Tensor, error) {
	n, err := shapeSize(w.Shape)
	if err != nil {
		return nil, err
	}
	if n != len(w.Data) {
		return nil, fmt.Errorf("validate: sealed tensor shape %v does not match %d values", w.Shape, len(w.Data))
	}
	return tensor.FromSlice(w.Data, w.Shape...), nil
}

// Seal writes the suite to w as: [8-byte payload length][gob payload]
// [32-byte HMAC-SHA256 of payload under key].
func (s *Suite) Seal(w io.Writer, key []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("validate: sealing key must not be empty")
	}
	ws := wireSuite{
		Version:  sealVersion,
		Name:     s.Name,
		Mode:     int(s.Mode),
		Decimals: s.Decimals,
	}
	for _, t := range s.Inputs {
		ws.Inputs = append(ws.Inputs, toWire(t))
	}
	for _, t := range s.Outputs {
		ws.Outputs = append(ws.Outputs, toWire(t))
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ws); err != nil {
		return fmt.Errorf("validate: encode suite: %w", err)
	}
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(payload.Len()))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(payload.Bytes())
	_, err := w.Write(mac.Sum(nil))
	return err
}

// OpenSuite reads a sealed suite, verifying its HMAC before decoding
// any content. A wrong key or a tampered payload fails.
func OpenSuite(r io.Reader, key []byte) (*Suite, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("validate: opening key must not be empty")
	}
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("validate: read length: %w", err)
	}
	n := binary.BigEndian.Uint64(lenBuf[:])
	const maxPayload = 1 << 30
	if n > maxPayload {
		return nil, fmt.Errorf("validate: sealed payload of %d bytes exceeds limit", n)
	}
	// Read what arrives rather than allocating the declared length up
	// front: an 8-byte file must not cost a gigabyte.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("validate: read payload: %w", err)
	}
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("validate: read payload: %w", io.ErrUnexpectedEOF)
	}
	sig := make([]byte, sha256.Size)
	if _, err := io.ReadFull(r, sig); err != nil {
		return nil, fmt.Errorf("validate: read signature: %w", err)
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(payload)
	if !hmac.Equal(sig, mac.Sum(nil)) {
		return nil, fmt.Errorf("validate: HMAC verification failed: suite tampered or wrong key")
	}
	var ws wireSuite
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ws); err != nil {
		return nil, fmt.Errorf("validate: decode suite: %w", err)
	}
	if ws.Version != sealVersion {
		return nil, fmt.Errorf("validate: unsupported sealed-suite version %d", ws.Version)
	}
	if len(ws.Inputs) != len(ws.Outputs) {
		return nil, fmt.Errorf("validate: sealed suite has %d inputs but %d outputs", len(ws.Inputs), len(ws.Outputs))
	}
	s := &Suite{Name: ws.Name, Mode: CompareMode(ws.Mode), Decimals: ws.Decimals}
	for _, wt := range ws.Inputs {
		t, err := fromWire(wt)
		if err != nil {
			return nil, err
		}
		s.Inputs = append(s.Inputs, t)
	}
	for _, wt := range ws.Outputs {
		t, err := fromWire(wt)
		if err != nil {
			return nil, err
		}
		s.Outputs = append(s.Outputs, t)
	}
	// A quantised-mode suite is replayed in wire representation; encode
	// the reference frames once here at load time so every subsequent
	// replay ships them without re-quantising (Replay falls back to a
	// local encode if Decimals is changed after opening).
	s.buildQuantRefs()
	return s, nil
}
