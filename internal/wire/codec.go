// The binary codec shared by the envelope (Call, Reply) and the query
// families' params and state payloads (DESIGN.md §11.1).
//
// Values are written back to back in a fixed order with no field tags:
//   - unsigned integers and IDs are minimal uvarints; signed integers are
//     zigzag uvarints; floats are 8 little-endian bytes of their IEEE-754
//     bits; bools are one byte, 0 or 1;
//   - strings and byte slices are a uvarint length plus the bytes; float
//     vectors (points, weights) a uvarint count plus the floats; rects are
//     Lo then Hi; regions a uvarint box count plus the boxes; tuples an ID
//     plus a vector; lists a uvarint count plus the elements.
//
// Decoding is strict, so each accepted input has exactly one encoding:
// truncated input, trailing bytes, non-minimal or overflowing varints and
// bool bytes other than 0/1 are errors, and every count is bounded by the
// bytes that remain before anything is allocated. Empty and nil slices
// encode alike and decode to nil. Decoded slices never alias the input.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ripple/internal/dataset"
	"ripple/internal/geom"
	"ripple/internal/overlay"
)

var (
	errTruncated = errors.New("wire: truncated input")
	errOverlong  = errors.New("wire: non-minimal or overflowing varint")
	errBool      = errors.New("wire: bool byte not 0 or 1")
	errCount     = errors.New("wire: count exceeds remaining input")
	errTrailing  = errors.New("wire: trailing bytes after value")
)

// AppendUint appends v as a minimal uvarint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends v as a zigzag uvarint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendFloat appends the IEEE-754 bits of v, little-endian.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	return append(AppendUint(b, uint64(len(s))), s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b, p []byte) []byte {
	return append(AppendUint(b, uint64(len(p))), p...)
}

// appendList appends a uvarint count plus each element of xs by enc.
func appendList[T any](b []byte, xs []T, enc func([]byte, T) []byte) []byte {
	b = AppendUint(b, uint64(len(xs)))
	for _, x := range xs {
		b = enc(b, x)
	}
	return b
}

// AppendFloats appends a counted float vector (a geom.Point, a weight
// vector).
func AppendFloats(b []byte, v []float64) []byte { return appendList(b, v, AppendFloat) }

// AppendUints appends a counted list of uvarints.
func AppendUints(b []byte, v []uint64) []byte { return appendList(b, v, AppendUint) }

// AppendRect appends a box as its Lo and Hi corners.
func AppendRect(b []byte, r geom.Rect) []byte {
	return AppendFloats(AppendFloats(b, r.Lo), r.Hi)
}

// AppendRegion appends a counted box list.
func AppendRegion(b []byte, r overlay.Region) []byte { return appendList(b, r.Boxes, AppendRect) }

// AppendTuple appends a tuple as its ID and vector.
func AppendTuple(b []byte, t dataset.Tuple) []byte {
	return AppendFloats(AppendUint(b, t.ID), t.Vec)
}

// AppendTuples appends a counted tuple list.
func AppendTuples(b []byte, ts []dataset.Tuple) []byte { return appendList(b, ts, AppendTuple) }

// AppendMetric appends a metric by its canonical name; only L1 and L2
// travel.
func AppendMetric(b []byte, m geom.Metric) ([]byte, error) {
	if m == nil || (m.Name() != "L1" && m.Name() != "L2") {
		return b, fmt.Errorf("wire: metric %v not wire-encodable", m)
	}
	return AppendString(b, m.Name()), nil
}

// Decoder reads values in the order they were appended. Errors are sticky:
// after the first one every read returns a zero value, and Finish reports
// it.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over b. The decoder never retains b past the
// reads: every returned slice is a copy.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Fail records err as the decoding error unless one is already set.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
		d.b = nil
	}
}

// Finish returns the first decoding error, or an error if input remains.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.Fail(errTrailing)
	}
	return d.err
}

// take consumes n bytes, or fails.
func (d *Decoder) take(n int) []byte {
	if n > len(d.b) {
		d.Fail(errTruncated)
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

// Uint reads a minimal uvarint.
func (d *Decoder) Uint() uint64 {
	if len(d.b) > 0 && d.b[0] < 0x80 {
		v := d.b[0]
		d.b = d.b[1:]
		return uint64(v)
	}
	return d.uintSlow()
}

// uintSlow reads a multi-byte uvarint, rejecting non-minimal and
// overflowing forms.
func (d *Decoder) uintSlow() uint64 {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if i == len(d.b) {
			d.Fail(errTruncated)
			return 0
		}
		c := d.b[i]
		if c < 0x80 {
			if (i > 0 && c == 0) || (i == binary.MaxVarintLen64-1 && c > 1) {
				break
			}
			d.b = d.b[i+1:]
			return v | uint64(c)<<(7*i)
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	d.Fail(errOverlong)
	return 0
}

// Int reads a zigzag uvarint.
func (d *Decoder) Int() int {
	u := d.Uint()
	return int(int64(u>>1) ^ -int64(u&1))
}

// Float reads 8 little-endian bytes of IEEE-754 bits.
func (d *Decoder) Float() float64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	p := d.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		d.Fail(errBool)
		return false
	}
	return p[0] == 1
}

// count reads a list or byte count whose elements occupy at least minSize
// bytes each, failing if the remaining input cannot hold that many — so no
// count prefix can make a caller allocate beyond the bytes present.
func (d *Decoder) count(minSize int) int {
	n := d.Uint()
	if n > uint64(len(d.b)) || int(n)*minSize > len(d.b) {
		d.Fail(errCount)
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	return string(d.take(d.count(1)))
}

// Bytes reads a length-prefixed byte slice into a fresh slice; empty input
// yields nil.
func (d *Decoder) Bytes() []byte {
	p := d.take(d.count(1))
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// list reads a counted list whose elements each encode to at least
// minSize bytes, each element by read; empty yields nil.
func list[T any](d *Decoder, minSize int, read func(*Decoder) T) []T {
	n := d.count(minSize)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = read(d)
	}
	return out
}

// Uints reads a counted list of uvarints.
func (d *Decoder) Uints() []uint64 { return list(d, 1, (*Decoder).Uint) }

// Floats reads a counted float vector; empty yields nil.
func (d *Decoder) Floats() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	return d.fill(n, make([]float64, n))
}

// fill reads n floats, already counted and bounds-checked, into back[:n]
// and returns that prefix capped at n.
func (d *Decoder) fill(n int, back []float64) []float64 {
	p := d.take(8 * n)
	for i := range back[:n] {
		back[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return back[:n:n]
}

// Rect reads a box.
func (d *Decoder) Rect() geom.Rect {
	lo := d.Floats()
	return geom.Rect{Lo: lo, Hi: d.Floats()}
}

// Region reads a counted box list.
func (d *Decoder) Region() overlay.Region {
	return overlay.Region{Boxes: list(d, 2, (*Decoder).Rect)}
}

// Tuple reads one tuple.
func (d *Decoder) Tuple() dataset.Tuple {
	id := d.Uint()
	return dataset.Tuple{ID: id, Vec: d.Floats()}
}

// Tuples reads a counted tuple list. All vectors share one float backing,
// sized by a probe pass over the same bytes, each capped at its length.
func (d *Decoder) Tuples() []dataset.Tuple {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	probe := *d
	total := 0
	for i := 0; i < n; i++ {
		probe.Uint()
		k := probe.count(8)
		probe.take(8 * k)
		total += k
	}
	if probe.err != nil {
		d.Fail(probe.err)
		return nil
	}
	back := make([]float64, total)
	out := make([]dataset.Tuple, n)
	for i := range out {
		out[i].ID = d.Uint()
		if k := d.count(8); k > 0 {
			out[i].Vec = d.fill(k, back)
			back = back[k:]
		}
	}
	return out
}

// Metric reads a metric name written by AppendMetric.
func (d *Decoder) Metric() geom.Metric {
	switch name := d.Str(); name {
	case "L1":
		return geom.L1
	case "L2":
		return geom.L2
	default:
		d.Fail(fmt.Errorf("wire: unknown metric %q", name))
		return nil
	}
}
