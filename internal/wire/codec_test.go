package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"ripple/internal/dataset"
	"ripple/internal/geom"
	"ripple/internal/overlay"
	"ripple/internal/trace"
)

// sampleCalls covers the downstream message shapes: bare, with state,
// scoped mutation, recovery, traced.
func sampleCalls() []*Call {
	return []*Call{
		{QueryType: "topk", Restrict: overlay.Whole(2), R: 3},
		{
			QueryType: "skyline",
			Params:    []byte{1, 2, 3},
			Global:    []byte{9, 8},
			Restrict:  overlay.FromRect(geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{0.5, 1}}),
			R:         -1,
			Hops:      4,
		},
		{
			QueryType: "knn", Restrict: overlay.Whole(3),
			Scope: overlay.Region{Boxes: []geom.Rect{
				{Lo: geom.Point{0.1, 0.1, 0.1}, Hi: geom.Point{0.2, 0.3, 0.4}},
				{Lo: geom.Point{0.5, 0.5, 0.5}, Hi: geom.Point{1, 1, 1}},
			}},
			Op: OpInsert, Tuple: dataset.Tuple{ID: math.MaxUint64, Vec: geom.Point{0.25, math.Inf(1), -0.5}},
			ActAs: "p7",
		},
		{
			QueryType: "diversify", Restrict: overlay.Whole(3),
			Traced: true, SpanID: math.MaxUint64, SpanParent: 7, SpanDepth: 2,
		},
	}
}

// sampleReplies covers the upstream shapes: empty, loaded, partial, traced,
// planned mutation.
func sampleReplies() []*Reply {
	return []*Reply{
		{},
		{
			States:     [][]byte{{1}, nil, {2, 3}},
			Answers:    []dataset.Tuple{{ID: 1, Vec: geom.Point{0.1, 0.2}}, {ID: 2}, {ID: 3, Vec: geom.Point{0.3, 0.4, 0.5}}},
			Completion: 5, QueryMsgs: 3, StateMsgs: 2, TuplesSent: 4,
			Peers: []string{"a", "", "peer-12"},
		},
		{
			Error: "peer x: panic", Partial: true,
			FailedRegions: []overlay.Region{overlay.Whole(2), {}, overlay.Whole(1)},
			Failures:      1, Retries: 2, TimedOut: 1, Recovered: 3, Failovers: 4,
		},
		{
			Spans: []trace.Span{{
				ID: 9, Parent: 1, Peer: "p3", Via: "p4", Region: overlay.Whole(2),
				Phase: trace.PhaseFast, R: 2, Depth: 1, Arrive: 2, Attempt: 1, Outcome: trace.OutcomeOK,
				StateTuples: 3, AnswerTuples: 4, Plan: "ripple(2)",
			}, {ID: 10}},
		},
		{CacheHit: true, Plan: "fast", PlanR: 0, Acks: 2, Forwarded: true},
	}
}

func sampleMessages() []Message {
	var msgs []Message
	for _, c := range sampleCalls() {
		msgs = append(msgs, c)
	}
	for _, r := range sampleReplies() {
		msgs = append(msgs, r)
	}
	return msgs
}

// newMessage returns a zero value of msg's type.
func newMessage(msg Message) Message {
	if _, ok := msg.(*Call); ok {
		return &Call{}
	}
	return &Reply{}
}

// TestPooledMessageByteIdentity pins that the pooled frame writer emits,
// message for message, the length header plus exactly the body a fresh
// buffer would get — reused pool memory never leaks into a frame.
func TestPooledMessageByteIdentity(t *testing.T) {
	for pass := 0; pass < 2; pass++ {
		for i, m := range sampleMessages() {
			var pooled bytes.Buffer
			if err := WriteMessage(&pooled, m); err != nil {
				t.Fatalf("pass %d msg %d: %v", pass, i, err)
			}
			fresh := m.appendTo(nil)
			want := binary.BigEndian.AppendUint32(nil, uint32(len(fresh)))
			if !bytes.Equal(pooled.Bytes(), append(want, fresh...)) {
				t.Fatalf("pass %d msg %d: pooled frame %x, fresh body %x", pass, i, pooled.Bytes(), fresh)
			}
		}
	}
}

// TestPooledMessageRoundTrip reads every sample back through the pooled
// reader: the decoded value equals the original field for field, and the
// next frame read through the same pool cannot disturb it.
func TestPooledMessageRoundTrip(t *testing.T) {
	msgs := sampleMessages()
	var frames bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&frames, m); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]Message, len(msgs))
	for i, m := range msgs {
		got[i] = newMessage(m)
		if err := ReadMessage(&frames, got[i]); err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
	}
	for i, m := range msgs {
		if !reflect.DeepEqual(got[i], m) {
			t.Fatalf("msg %d: round trip\n got %+v\nwant %+v", i, got[i], m)
		}
	}
}

// TestEmptySlicesDecodeNil pins the nil/empty rule: both encode as a zero
// count and decode to nil.
func TestEmptySlicesDecodeNil(t *testing.T) {
	in := &Reply{States: [][]byte{}, Answers: []dataset.Tuple{}, Peers: []string{}, FailedRegions: []overlay.Region{}, Spans: []trace.Span{}}
	if !bytes.Equal(in.appendTo(nil), (&Reply{}).appendTo(nil)) {
		t.Fatal("empty and nil slices encode differently")
	}
	var out Reply
	if err := decodeMessage(in.appendTo(nil), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, Reply{}) {
		t.Fatalf("empty slices decoded to %+v, want all nil", out)
	}
}

// TestDecodedValuesDoNotAliasInput overwrites the decoded frame body and
// checks nothing decoded changes, and that Answers vectors share one
// backing array without overlapping.
func TestDecodedValuesDoNotAliasInput(t *testing.T) {
	in := sampleReplies()[1]
	body := in.appendTo(nil)
	var out Reply
	if err := decodeMessage(body, &out); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xff
	}
	if !reflect.DeepEqual(&out, in) {
		t.Fatalf("decoded reply changed with its input: %+v", out)
	}
	a, b := out.Answers[0].Vec, out.Answers[2].Vec
	if cap(a) != len(a) {
		t.Fatalf("answer vector not capped: cap %d len %d", cap(a), len(a))
	}
	_ = append(a, 9) // must reallocate, not clobber b
	if b[0] != 0.3 {
		t.Fatal("append to one answer vector clobbered the next")
	}
}

// TestCodecVariedValues sweeps edge values through every primitive: each
// decodes to itself (bit for bit for floats) and re-encodes identically.
func TestCodecVariedValues(t *testing.T) {
	ints := []int{0, 1, -1, 63, -64, 64, math.MaxInt64, math.MinInt64}
	uints := []uint64{0, 1, 127, 128, 1<<63 - 1, math.MaxUint64}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	var b []byte
	for _, v := range ints {
		b = AppendInt(b, v)
	}
	for _, v := range uints {
		b = AppendUint(b, v)
	}
	for _, v := range floats {
		b = AppendFloat(b, v)
	}
	b = AppendBool(AppendBool(b, true), false)
	b = AppendString(AppendString(b, ""), "héllo")
	b = AppendUints(b, uints)
	b = AppendFloats(b, floats)

	d := NewDecoder(b)
	for _, v := range ints {
		if got := d.Int(); got != v {
			t.Fatalf("int %d decoded as %d", v, got)
		}
	}
	for _, v := range uints {
		if got := d.Uint(); got != v {
			t.Fatalf("uint %d decoded as %d", v, got)
		}
	}
	for _, v := range floats {
		if got := d.Float(); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("float %v decoded as %v", v, got)
		}
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools changed")
	}
	if d.Str() != "" || d.Str() != "héllo" {
		t.Fatal("strings changed")
	}
	if got := d.Uints(); !reflect.DeepEqual(got, uints) {
		t.Fatalf("uint list %v", got)
	}
	got := d.Floats()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	re := AppendFloats(nil, got)
	if !bytes.Equal(re, AppendFloats(nil, floats)) {
		t.Fatal("float vector re-encodes differently")
	}
}

// TestDecoderRejectsMalformedInput covers every rejection rule.
func TestDecoderRejectsMalformedInput(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(d *Decoder)
		want error
	}{
		{"empty uint", nil, func(d *Decoder) { d.Uint() }, errTruncated},
		{"truncated uint", []byte{0x80}, func(d *Decoder) { d.Uint() }, errTruncated},
		{"overlong zero", []byte{0x80, 0x00}, func(d *Decoder) { d.Uint() }, errOverlong},
		{"overlong one", []byte{0x81, 0x80, 0x00}, func(d *Decoder) { d.Uint() }, errOverlong},
		{"uint overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(d *Decoder) { d.Uint() }, errOverlong},
		{"eleven bytes", bytes.Repeat([]byte{0x80}, 11), func(d *Decoder) { d.Uint() }, errOverlong},
		{"bool 2", []byte{2}, func(d *Decoder) { d.Bool() }, errBool},
		{"short float", []byte{1, 2, 3}, func(d *Decoder) { d.Float() }, errTruncated},
		{"string count", []byte{5, 'a'}, func(d *Decoder) { d.Str() }, errCount},
		{"float count", []byte{2, 0, 0, 0, 0, 0, 0, 0, 0}, func(d *Decoder) { d.Floats() }, errCount},
		{"tuple count", []byte{3, 1, 0, 2, 0}, func(d *Decoder) { d.Tuples() }, errCount},
		{"trailing", []byte{1, 0}, func(d *Decoder) { d.Uint() }, errTrailing},
	}
	for _, c := range cases {
		d := NewDecoder(c.in)
		c.read(d)
		if err := d.Finish(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestMessagePrefixesAndExtensionsRejected: every proper prefix of a valid
// body is truncated input, and one extra byte is trailing input, so a frame
// decodes only at exactly its encoded length.
func TestMessagePrefixesAndExtensionsRejected(t *testing.T) {
	for i, m := range sampleMessages() {
		body := m.appendTo(nil)
		for n := 0; n < len(body); n++ {
			if err := decodeMessage(body[:n], newMessage(m)); err == nil {
				t.Fatalf("msg %d: %d-byte prefix of %d decoded", i, n, len(body))
			}
		}
		if err := decodeMessage(append(body, 0), newMessage(m)); !errors.Is(err, errTrailing) {
			t.Fatalf("msg %d: extended body: err = %v", i, err)
		}
	}
}

// TestCountPrefixCannotAllocate: a count claiming 2^62 elements fails
// before any allocation.
func TestCountPrefixCannotAllocate(t *testing.T) {
	huge := AppendUint(nil, 1<<62)
	reads := []func(d *Decoder){
		func(d *Decoder) { d.Tuples() },
		func(d *Decoder) { d.Region() },
		func(d *Decoder) { list(d, 1, (*Decoder).Str) },
		func(d *Decoder) { list(d, 1, (*Decoder).Bytes) },
		func(d *Decoder) { d.Uints() },
		func(d *Decoder) { d.Floats() },
		func(d *Decoder) { d.Bytes() },
		func(d *Decoder) { (&Reply{}).decode(d) },
	}
	d := new(Decoder)
	for i, read := range reads {
		allocs := testing.AllocsPerRun(20, func() {
			*d = Decoder{b: huge}
			read(d)
			if d.Finish() == nil {
				t.Fatalf("read %d accepted a 2^62 count", i)
			}
		})
		if allocs != 0 {
			t.Fatalf("read %d: %v allocations for a hostile count", i, allocs)
		}
	}
}

func benchCall() *Call {
	return &Call{
		QueryType: "topk",
		Params:    bytes.Repeat([]byte{7}, 64),
		Global:    bytes.Repeat([]byte{3}, 24),
		Restrict:  overlay.Whole(5),
		R:         2,
		Hops:      3,
	}
}

func benchReply() *Reply {
	ts := make([]dataset.Tuple, 8)
	for i := range ts {
		ts[i] = dataset.Tuple{ID: uint64(i), Vec: geom.Point{0.1, 0.2, 0.3, 0.4, 0.5}}
	}
	return &Reply{
		States: [][]byte{bytes.Repeat([]byte{1}, 24)}, Answers: ts,
		Completion: 4, QueryMsgs: 9, StateMsgs: 3, TuplesSent: 11,
		Peers: []string{"p1", "p2", "p3"},
	}
}

// The Pooled benchmarks go through the pooled frame buffer; the Fresh ones
// encode into, or read into, a newly allocated buffer per message.

func BenchmarkWriteCallPooled(b *testing.B) {
	msg := benchCall()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(io.Discard, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func writeFresh(w io.Writer, msg Message) error {
	buf := msg.appendTo(make([]byte, 4))
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	_, err := w.Write(buf)
	return err
}

func BenchmarkWriteCallFresh(b *testing.B) {
	msg := benchCall()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeFresh(io.Discard, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteReplyPooled(b *testing.B) {
	msg := benchReply()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(io.Discard, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteReplyFresh(b *testing.B) {
	msg := benchReply()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeFresh(io.Discard, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFrame(b *testing.B, msg Message) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msg); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkReadReplyPooled(b *testing.B) {
	frame := benchFrame(b, benchReply())
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		var reply Reply
		if err := ReadMessage(r, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadReplyFresh(b *testing.B) {
	frame := benchFrame(b, benchReply())
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			b.Fatal(err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(r, body); err != nil {
			b.Fatal(err)
		}
		var reply Reply
		if err := decodeMessage(body, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

// The state benchmarks encode the top-k state layout, (m int, τ float).

func BenchmarkStateEncodePooled(b *testing.B) {
	dst := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendFloat(AppendInt(dst[:0], 10), 0.75)
	}
}

var stateSink []byte

func BenchmarkStateEncodeFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stateSink = AppendFloat(AppendInt(make([]byte, 0, 18), 10), 0.75)
	}
}
