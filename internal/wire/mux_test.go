package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ripple/internal/overlay"
)

// The magic must decode as an over-limit length prefix, so no frame of the
// pre-mux sequential protocol can pass for a hello: a server reading one
// where the hello belongs fails with a plain error and drops the connection.
func TestMuxMagicCannotBeALegacyPrefix(t *testing.T) {
	if muxMagic <= MaxFrame {
		t.Fatalf("muxMagic %#x must exceed MaxFrame %#x", muxMagic, MaxFrame)
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Call{QueryType: "topk", Restrict: overlay.Whole(2)}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadMuxHello(bytes.NewReader(buf.Bytes()))
	var verr *VersionError
	if err == nil || errors.As(err, &verr) {
		t.Fatalf("hello read of a sequential frame: err = %v, want a not-a-hello error", err)
	}
}

func TestMuxHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMuxHello(&buf, 7); err != nil {
		t.Fatal(err)
	}
	ver, err := ReadMuxHello(bytes.NewReader(buf.Bytes()))
	if err != nil || ver != 7 {
		t.Fatalf("hello round trip: ver=%d err=%v", ver, err)
	}
}

func TestMuxFrameRoundTripOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	calls := map[uint32]*Call{
		42: {QueryType: "topk", R: 3, Restrict: overlay.Whole(2)},
		7:  {QueryType: "skyline", R: 0, Restrict: overlay.Whole(2)},
		1:  {QueryType: "diversify", Hops: 9, Restrict: overlay.Whole(2)},
	}
	for _, id := range []uint32{42, 7, 1} {
		if err := WriteMuxFrame(&buf, id, calls[id]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		var got Call
		id, err := ReadMuxFrame(&buf, &got)
		if err != nil {
			t.Fatal(err)
		}
		want := calls[id]
		if want == nil {
			t.Fatalf("frame %d carried unknown stream %d", i, id)
		}
		if got.QueryType != want.QueryType || got.R != want.R || got.Hops != want.Hops {
			t.Fatalf("stream %d: got %+v, want %+v", id, got, want)
		}
	}
}

// Payload bytes must be identical under either framing: a mux frame differs
// from a plain length-prefixed message (WriteMessage, used to measure reply
// sizes offline) in its header only.
func TestMuxFramePayloadMatchesLegacy(t *testing.T) {
	call := &Call{QueryType: "topk", Params: []byte{1, 2, 3}, Restrict: overlay.Whole(3), R: 5}
	var legacy, mux bytes.Buffer
	if err := WriteMessage(&legacy, call); err != nil {
		t.Fatal(err)
	}
	if err := WriteMuxFrame(&mux, 99, call); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes()[4:], mux.Bytes()[8:]) {
		t.Fatal("mux frame payload differs from legacy frame payload")
	}
	if n := binary.BigEndian.Uint32(mux.Bytes()[4:8]); int(n) != mux.Len()-8 {
		t.Fatalf("mux length word %d, want %d", n, mux.Len()-8)
	}
}

func TestReadMuxFrameOversizeKeepsStream(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], 1234)
	binary.BigEndian.PutUint32(hdr[4:], MaxFrame+1)
	var got Reply
	stream, err := ReadMuxFrame(bytes.NewReader(hdr[:]), &got)
	var fse *FrameSizeError
	if !errors.As(err, &fse) || fse.Size != MaxFrame+1 {
		t.Fatalf("err = %v, want FrameSizeError{%d}", err, MaxFrame+1)
	}
	if stream != 1234 {
		t.Fatalf("stream = %d, want 1234 (needed to report the rejection)", stream)
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("error text %q should explain the limit", err)
	}
}

// A corrupt length prefix claiming a huge body must not cost a huge
// allocation when the stream dies early: growth tracks the bytes that
// actually arrive, one chunk at a time.
func TestReadMessageCorruptPrefixBoundedAllocation(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 32<<20) // claims 32 MiB, sends 10 bytes
	buf.Write(hdr[:])
	buf.WriteString("0123456789")
	var got Call
	err := ReadMessage(&buf, &got)
	if err == nil {
		t.Fatal("truncated 32 MiB claim must error")
	}
	allocated := testing.AllocsPerRun(20, func() {
		var inner bytes.Buffer
		inner.Write(hdr[:])
		inner.WriteString("0123456789")
		var c Call
		_ = ReadMessage(&inner, &c)
	})
	// The exact count is irrelevant; what matters is that the 32 MiB claim
	// didn't turn into 32 MiB of allocation. AllocsPerRun counts allocations,
	// so cap generously: a handful of chunk-sized buffers at most.
	if allocated > 16 {
		t.Fatalf("corrupt prefix cost %v allocations per read", allocated)
	}
}

func TestReadFrameBodyChunkedMatchesDirect(t *testing.T) {
	// Cross the chunk boundary so the incremental path runs.
	payload := make([]byte, frameChunk*2+frameChunk/2)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	got, err := readFrameBody(bytes.NewReader(payload), len(payload), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("chunked body read corrupted the payload")
	}
}

func TestOverloadedClassification(t *testing.T) {
	msg := Overloaded("peer p3: 32 calls executing and 128 queued")
	if !IsOverloaded(msg) {
		t.Fatal("Overloaded output not recognised")
	}
	if IsOverloaded("peer p3: panic: boom") {
		t.Fatal("processing error misclassified as overload")
	}
}

// A hello or ack naming a version below MuxVersion fails with a named error
// up front: version 1 announces gob frame bodies this build cannot decode,
// and version 0 — once the ack for "continue sequentially" — names a
// protocol that no longer exists. Versions at or above MuxVersion pass.
func TestMuxHelloRejectsOldVersion(t *testing.T) {
	for ver := uint32(0); ver <= MuxVersion+1; ver++ {
		var buf bytes.Buffer
		if err := WriteMuxHello(&buf, ver); err != nil {
			t.Fatal(err)
		}
		_, err := ReadMuxHello(bytes.NewReader(buf.Bytes()))
		var verr *VersionError
		old := ver < MuxVersion
		if errors.As(err, &verr) != old || (old && verr.Version != ver) {
			t.Fatalf("version %d: err = %v", ver, err)
		}
		if !old && err != nil {
			t.Fatalf("version %d rejected: %v", ver, err)
		}
	}
}
