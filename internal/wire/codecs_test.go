// External test package: the query codec packages import wire for its
// encoding primitives, so these cross-package round-trip tests must sit
// outside package wire to avoid an import cycle in the test binary.
package wire_test

import (
	"bytes"
	"math"
	"testing"

	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/skyline"
	"ripple/internal/topk"
	"ripple/internal/wire"
)

// Compile-time checks: the query packages implement the wire codec contract.
var (
	_ wire.Codec = topk.WireCodec{}
	_ wire.Codec = skyline.WireCodec{}
	_ wire.Codec = diversify.WireCodec{}
	_ wire.Codec = knn.WireCodec{}
)

func TestTopKCodecRoundTrip(t *testing.T) {
	c := topk.WireCodec{}
	for _, f := range []topk.Scorer{
		topk.UniformLinear(3),
		topk.Peak{Center: geom.Point{0.2, 0.3, 0.4}, Sharpness: 5},
		topk.Nearest{Center: geom.Point{0.5, 0.5, 0.5}, Metric: geom.L1},
	} {
		params, err := c.EncodeParams(f, 4)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := c.NewProcessor(params)
		if err != nil {
			t.Fatal(err)
		}
		tp := proc.(*topk.Processor)
		if tp.K != 4 {
			t.Fatalf("K lost: %d", tp.K)
		}
		p := geom.Point{0.25, 0.5, 0.75}
		if math.Abs(tp.F.Score(p)-f.Score(p)) > 1e-12 {
			t.Fatalf("scorer %T changed on the wire", f)
		}
	}
	// Neutral state on empty bytes.
	st, err := c.DecodeState(nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.DecodeState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if enc2, _ := c.EncodeState(st2); !bytes.Equal(enc, enc2) {
		t.Fatal("state round trip unstable")
	}
}

func TestDiversifyCodecRoundTrip(t *testing.T) {
	c := diversify.WireCodec{}
	q := diversify.NewQuery(geom.Point{0.2, 0.8}, 0.4)
	base := []dataset.Tuple{{ID: 5, Vec: geom.Point{0.1, 0.1}}}
	params, err := c.EncodeParams(q, base, map[uint64]bool{5: true, 9: true}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := c.NewProcessor(params)
	if err != nil {
		t.Fatal(err)
	}
	dp := proc.(*diversify.Processor)
	if dp.Query.Lambda != 0.4 || len(dp.Base) != 1 || !dp.Exclude[9] || dp.Tau0 != 0.25 {
		t.Fatalf("params lost on the wire: %+v", dp)
	}
	st, err := c.DecodeState(nil)
	if err != nil || !math.IsInf(float64(0)+mustFloat(c, st), 1) {
		t.Fatalf("neutral diversify state: %v %v", st, err)
	}
}

func mustFloat(c diversify.WireCodec, s interface{}) float64 {
	b, err := c.EncodeState(s)
	if err != nil {
		panic(err)
	}
	st, err := c.DecodeState(b)
	if err != nil {
		panic(err)
	}
	b2, _ := c.EncodeState(st)
	if string(b) != string(b2) {
		panic("unstable state round trip")
	}
	// decode the float directly for the assertion
	d := wire.NewDecoder(b)
	v := d.Float()
	if err := d.Finish(); err != nil {
		panic(err)
	}
	return v
}

func TestSkylineCodecRoundTrip(t *testing.T) {
	c := skyline.WireCodec{}
	proc, err := c.NewProcessor(nil)
	if err != nil || proc == nil {
		t.Fatalf("NewProcessor: %v", err)
	}
	st, err := c.DecodeState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := proc.StateTuples(st); n != 0 {
		t.Fatalf("neutral skyline state has %d tuples", n)
	}
}
