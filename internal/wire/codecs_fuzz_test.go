package wire_test

import (
	"bytes"
	"math"
	"testing"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/skyline"
	"ripple/internal/topk"
	"ripple/internal/wire"
)

// fuzzCodec drives one query family's untrusted decoders: params through
// NewProcessor and a state payload through DecodeState. Neither may panic
// or allocate beyond the input's bound; an accepted input must be the
// unique encoding of what it decoded to, which reencode rebuilds from the
// processor.
func fuzzCodec(t *testing.T, c wire.Codec, params, state []byte, reencode func(core.Processor) ([]byte, error)) {
	var proc core.Processor
	var err error
	if n := wire.AllocBytes(func() { proc, err = c.NewProcessor(params) }); n > wire.AllocBound(len(params)) {
		t.Fatalf("%s params: %d bytes allocated %d", c.Name(), len(params), n)
	}
	if err == nil {
		re, err := reencode(proc)
		if err != nil {
			t.Fatalf("%s: decoded params do not re-encode: %v", c.Name(), err)
		}
		if !bytes.Equal(re, params) {
			t.Fatalf("%s params not canonical:\n in %x\nout %x", c.Name(), params, re)
		}
	}
	var st core.State
	if n := wire.AllocBytes(func() { st, err = c.DecodeState(state) }); n > wire.AllocBound(len(state)) {
		t.Fatalf("%s state: %d bytes allocated %d", c.Name(), len(state), n)
	}
	if err != nil || len(state) == 0 {
		return // empty input is the neutral state, not an encoding
	}
	re, err := c.EncodeState(st)
	if err != nil {
		t.Fatalf("%s: decoded state does not re-encode: %v", c.Name(), err)
	}
	if !bytes.Equal(re, state) {
		t.Fatalf("%s state not canonical:\n in %x\nout %x", c.Name(), state, re)
	}
}

// must returns a seed encoding, panicking on an encoder error.
func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func FuzzTopKCodec(f *testing.F) {
	c := topk.WireCodec{}
	states := [][]byte{
		wire.AppendFloat(wire.AppendInt(nil, 0), math.Inf(1)),
		wire.AppendFloat(wire.AppendInt(nil, 3), 0.5),
	}
	for i, s := range []topk.Scorer{
		topk.UniformLinear(3),
		topk.Peak{Center: geom.Point{0.2, 0.3}, Sharpness: 5},
		topk.Nearest{Center: geom.Point{0.5, 0.5, 0.5}, Metric: geom.L1},
	} {
		f.Add(must(c.EncodeParams(s, 4+i)), states[i%len(states)])
	}
	f.Fuzz(func(t *testing.T, params, state []byte) {
		fuzzCodec(t, c, params, state, func(p core.Processor) ([]byte, error) {
			tp := p.(*topk.Processor)
			return c.EncodeParams(tp.F, tp.K)
		})
	})
}

func FuzzKNNCodec(f *testing.F) {
	c := knn.WireCodec{}
	f.Add(must(c.EncodeParams(geom.Point{0.1, 0.9}, 5, geom.L1)), wire.AppendFloat(wire.AppendInt(nil, 2), math.Inf(-1)))
	f.Add(must(c.EncodeParams(nil, 0, nil)), []byte{})
	f.Fuzz(func(t *testing.T, params, state []byte) {
		fuzzCodec(t, c, params, state, func(p core.Processor) ([]byte, error) {
			kp := p.(*knn.Processor)
			return c.EncodeParams(kp.Center, kp.K, kp.Metric)
		})
	})
}

func FuzzSkylineCodec(f *testing.F) {
	c := skyline.WireCodec{}
	box := geom.Rect{Lo: geom.Point{0, 0.1}, Hi: geom.Point{0.5, 1}}
	f.Add(must(c.EncodeParams(&box)), wire.AppendTuples(nil, []dataset.Tuple{{ID: 1, Vec: geom.Point{0.1, 0.2}}, {ID: 2}}))
	f.Add([]byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, params, state []byte) {
		fuzzCodec(t, c, params, state, func(p core.Processor) ([]byte, error) {
			return c.EncodeParams(p.(*skyline.Processor).Constraint)
		})
	})
}

func FuzzDiversifyCodec(f *testing.F) {
	c := diversify.WireCodec{}
	q := diversify.NewQuery(geom.Point{0.2, 0.8}, 0.4)
	base := []dataset.Tuple{{ID: 5, Vec: geom.Point{0.1, 0.1}}}
	f.Add(must(c.EncodeParams(q, base, map[uint64]bool{5: true, 9: true, 1 << 40: true}, 0.25)), wire.AppendFloat(nil, 0.5))
	q.Dv = geom.L2
	f.Add(must(c.EncodeParams(q, nil, nil, math.Inf(1))), []byte{})
	f.Fuzz(func(t *testing.T, params, state []byte) {
		fuzzCodec(t, c, params, state, func(p core.Processor) ([]byte, error) {
			dp := p.(*diversify.Processor)
			return c.EncodeParams(dp.Query, dp.Base, dp.Exclude, dp.Tau0)
		})
	})
}
