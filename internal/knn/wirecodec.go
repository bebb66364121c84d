package knn

import (
	"fmt"
	"math"

	"ripple/internal/core"
	"ripple/internal/geom"
	"ripple/internal/wire"
)

// WireCodec serialises kNN queries and states for networked peers; it
// implements the wire.Codec interface. Params are K, the center and the
// metric's canonical name ("L1"/"L2"); a state is the (m, ρ) pair.
type WireCodec struct{}

// Name implements wire.Codec.
func (WireCodec) Name() string { return "knn" }

// EncodeParams builds the wire descriptor for a query. A nil metric encodes
// as Euclidean.
func (WireCodec) EncodeParams(center geom.Point, k int, m geom.Metric) ([]byte, error) {
	if m == nil {
		m = geom.L2
	}
	b, err := wire.AppendMetric(wire.AppendFloats(wire.AppendInt(nil, k), center), m)
	if err != nil {
		return nil, fmt.Errorf("knn: %w", err)
	}
	return b, nil
}

// NewProcessor implements wire.Codec.
func (WireCodec) NewProcessor(params []byte) (core.Processor, error) {
	d := wire.NewDecoder(params)
	k := d.Int()
	center := d.Floats()
	p := &Processor{Center: center, K: k, Metric: d.Metric()}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("knn: decode params: %w", err)
	}
	return p, nil
}

// maxStateSize bounds an encoded state: a zigzag varint plus a float.
const maxStateSize = 10 + 8

// appendState appends the (m, ρ) pair.
func appendState(b []byte, st state) []byte {
	return wire.AppendFloat(wire.AppendInt(b, st.m), st.rho)
}

// decodeState parses a non-empty state payload.
func decodeState(b []byte) (state, error) {
	d := wire.NewDecoder(b)
	st := state{m: d.Int(), rho: d.Float()}
	return st, d.Finish()
}

// EncodeState implements wire.Codec: the (m, ρ) pair.
func (WireCodec) EncodeState(s core.State) ([]byte, error) {
	return appendState(make([]byte, 0, maxStateSize), s.(state)), nil
}

// DecodeState implements wire.Codec. Empty input yields the neutral state.
func (WireCodec) DecodeState(b []byte) (core.State, error) {
	if len(b) == 0 {
		return state{m: 0, rho: math.Inf(-1)}, nil
	}
	st, err := decodeState(b)
	if err != nil {
		return nil, fmt.Errorf("knn: decode state: %w", err)
	}
	return st, nil
}
