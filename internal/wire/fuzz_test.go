package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// AllocBytes reports the heap bytes one call of f allocates, averaged over
// a few calls so that allocations by the fuzzing engine's own goroutines
// (the counter is process-wide) wash out. Exported for the codec fuzz
// targets of the external test package.
func AllocBytes(f func()) uint64 {
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// AllocBound is what decoding n input bytes may allocate: a constant for
// the frame buffer and small headers, plus a fixed factor per input byte —
// the largest decoded element per encoded byte is a one-byte empty region
// or byte slice becoming a 24-byte slice header, rounded up to its size
// class.
func AllocBound(n int) uint64 { return 64<<10 + 64*uint64(n) }

// FuzzReadMessage frames an arbitrary body and reads it back as a Call or a
// Reply: no panic, allocation bounded by the body, and any accepted body is
// the unique encoding of the value decoded from it.
func FuzzReadMessage(f *testing.F) {
	for _, m := range sampleMessages() {
		_, reply := m.(*Reply)
		f.Add(reply, m.appendTo(nil))
	}
	f.Add(false, []byte{0x80, 0x00})
	f.Add(true, AppendUint(nil, 1<<40))
	f.Fuzz(func(t *testing.T, reply bool, body []byte) {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		frame = append(frame, body...)
		var msg Message = &Call{}
		if reply {
			msg = &Reply{}
		}
		var err error
		if n := AllocBytes(func() { err = ReadMessage(bytes.NewReader(frame), msg) }); n > AllocBound(len(body)) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), n)
		}
		if err != nil {
			return
		}
		if re := msg.appendTo(nil); !bytes.Equal(re, body) {
			t.Fatalf("accepted body is not canonical:\n in %x\nout %x", body, re)
		}
	})
}

// FuzzReadMuxFrame feeds an arbitrary byte stream — header included — to
// the mux frame reader. A lying length prefix may cost at most one read
// chunk; an accepted frame re-encodes to exactly the bytes it consumed.
func FuzzReadMuxFrame(f *testing.F) {
	for i, m := range sampleMessages() {
		var buf bytes.Buffer
		if err := WriteMuxFrame(&buf, uint32(i), m); err != nil {
			f.Fatal(err)
		}
		_, reply := m.(*Reply)
		f.Add(reply, buf.Bytes())
	}
	f.Add(false, []byte{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add(true, []byte{0, 0, 0, 1, 0, 0x10, 0, 0, 1})
	f.Fuzz(func(t *testing.T, reply bool, data []byte) {
		var msg Message = &Call{}
		if reply {
			msg = &Reply{}
		}
		var stream uint32
		var err error
		n := AllocBytes(func() { stream, err = ReadMuxFrame(bytes.NewReader(data), msg) })
		if n > frameChunk+AllocBound(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMuxFrame(&buf, stream, msg); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("accepted frame is not canonical:\n in %x\nout %x", data, buf.Bytes())
		}
	})
}
