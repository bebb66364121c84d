package diversify

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/wire"
)

// WireCodec serialises single-tuple diversification queries and states for
// networked peers; it implements the wire.Codec interface. The query carries
// the query point, λ, the metric names, the base set O, the exclusion list
// (ascending IDs) and the initial threshold; states are the φ threshold.
type WireCodec struct{}

// Name implements wire.Codec.
func (WireCodec) Name() string { return "diversify" }

// EncodeParams builds the wire descriptor for one single-tuple query.
func (WireCodec) EncodeParams(q Query, base []dataset.Tuple, exclude map[uint64]bool, tau0 float64) ([]byte, error) {
	ids := make([]uint64, 0, len(exclude))
	for id := range exclude {
		ids = append(ids, id)
	}
	// Sort so the wire bytes are a pure function of the query: map iteration
	// order would otherwise make byte-identical replays impossible.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b := wire.AppendFloat(wire.AppendFloats(nil, q.Q), q.Lambda)
	b, err := wire.AppendMetric(b, q.Dr)
	if err == nil {
		b, err = wire.AppendMetric(b, q.Dv)
	}
	if err != nil {
		return nil, fmt.Errorf("diversify: %w", err)
	}
	b = wire.AppendTuples(b, base)
	b = wire.AppendUints(b, ids)
	return wire.AppendFloat(b, tau0), nil
}

var errExcludeOrder = errors.New("exclusion IDs not strictly ascending")

// NewProcessor implements wire.Codec.
func (WireCodec) NewProcessor(params []byte) (core.Processor, error) {
	d := wire.NewDecoder(params)
	var q Query
	q.Q = d.Floats()
	q.Lambda = d.Float()
	q.Dr = d.Metric()
	q.Dv = d.Metric()
	base := d.Tuples()
	ids := d.Uints()
	tau0 := d.Float()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			d.Fail(errExcludeOrder)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("diversify: decode params: %w", err)
	}
	exclude := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		exclude[id] = true
	}
	return &Processor{Query: q, Base: base, Exclude: exclude, Tau0: tau0}, nil
}

// EncodeState implements wire.Codec: the φ threshold.
func (WireCodec) EncodeState(s core.State) ([]byte, error) {
	return wire.AppendFloat(make([]byte, 0, 8), float64(s.(state))), nil
}

// DecodeState implements wire.Codec. Empty input yields +Inf (note that the
// networked caller should pass the real Tau0 through the params, since the
// engine-side initial state comes from the processor).
func (WireCodec) DecodeState(b []byte) (core.State, error) {
	if len(b) == 0 {
		return state(math.Inf(1)), nil
	}
	d := wire.NewDecoder(b)
	phi := d.Float()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("diversify: decode state: %w", err)
	}
	return state(phi), nil
}
