package topk

import (
	"fmt"
	"math"

	"ripple/internal/core"
	"ripple/internal/wire"
)

// WireCodec serialises top-k queries and states for networked peers; it
// implements the wire.Codec interface. Supported scorers: Linear, Peak and
// Nearest (L1 or L2).
//
// Params are K, the scorer kind, then the kind's own fields: the weights
// (linear), the center and sharpness (peak), or the center and metric
// (nearest). A state is the (m, τ) pair.
type WireCodec struct{}

// Name implements wire.Codec.
func (WireCodec) Name() string { return "topk" }

// EncodeParams builds the wire descriptor for a query.
func (WireCodec) EncodeParams(f Scorer, k int) ([]byte, error) {
	b := wire.AppendInt(nil, k)
	switch s := f.(type) {
	case Linear:
		b = wire.AppendFloats(wire.AppendString(b, "linear"), s.Weights)
	case Peak:
		b = wire.AppendFloats(wire.AppendString(b, "peak"), s.Center)
		b = wire.AppendFloat(b, s.Sharpness)
	case Nearest:
		var err error
		b, err = wire.AppendMetric(wire.AppendFloats(wire.AppendString(b, "nearest"), s.Center), s.Metric)
		if err != nil {
			return nil, fmt.Errorf("topk: %w", err)
		}
	default:
		return nil, fmt.Errorf("topk: scorer %T not wire-encodable", f)
	}
	return b, nil
}

// NewProcessor implements wire.Codec.
func (WireCodec) NewProcessor(params []byte) (core.Processor, error) {
	d := wire.NewDecoder(params)
	k := d.Int()
	var f Scorer
	switch kind := d.Str(); kind {
	case "linear":
		f = Linear{Weights: d.Floats()}
	case "peak":
		center := d.Floats()
		f = Peak{Center: center, Sharpness: d.Float()}
	case "nearest":
		center := d.Floats()
		f = Nearest{Center: center, Metric: d.Metric()}
	default:
		d.Fail(fmt.Errorf("unknown scorer kind %q", kind))
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("topk: decode params: %w", err)
	}
	return &Processor{F: f, K: k}, nil
}

// maxStateSize bounds an encoded state: a zigzag varint plus a float.
const maxStateSize = 10 + 8

// appendState appends the (m, τ) pair.
func appendState(b []byte, st state) []byte {
	return wire.AppendFloat(wire.AppendInt(b, st.m), st.tau)
}

// decodeState parses a non-empty state payload.
func decodeState(b []byte) (state, error) {
	d := wire.NewDecoder(b)
	st := state{m: d.Int(), tau: d.Float()}
	return st, d.Finish()
}

// EncodeState implements wire.Codec: the (m, τ) pair.
func (WireCodec) EncodeState(s core.State) ([]byte, error) {
	return appendState(make([]byte, 0, maxStateSize), s.(state)), nil
}

// DecodeState implements wire.Codec. Empty input yields the neutral state.
func (WireCodec) DecodeState(b []byte) (core.State, error) {
	if len(b) == 0 {
		return state{m: 0, tau: math.Inf(1)}, nil
	}
	st, err := decodeState(b)
	if err != nil {
		return nil, fmt.Errorf("topk: decode state: %w", err)
	}
	return st, nil
}
