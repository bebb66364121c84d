package cache

import (
	"bytes"
	"runtime"
	"testing"

	"ripple/internal/dataset"
	"ripple/internal/geom"
)

// A count prefix of 2^32-1 with no tuples behind it once made DecodeAnswers
// reserve room for four billion tuples, which killed the process with an
// unrecoverable out-of-memory error.
func TestDecodeAnswersHugeCountPrefix(t *testing.T) {
	if _, err := DecodeAnswers([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("a count with no tuples behind it decoded")
	}
}

// FuzzDecodeAnswers: no panic, allocation bounded by the payload, and any
// accepted payload is exactly the canonical encoding of its tuples.
func FuzzDecodeAnswers(f *testing.F) {
	f.Add(EncodeAnswers([]dataset.Tuple{{ID: 3, Vec: geom.Point{0.3, 0.7}}, {ID: 9, Vec: geom.Point{0.9, 0.1}}}))
	f.Add(EncodeAnswers([]dataset.Tuple{{ID: 1}}))
	f.Add(EncodeAnswers(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Averaged over a few calls: the counter is process-wide, and the
		// fuzzing engine allocates too.
		const runs = 8
		var before, after runtime.MemStats
		var ts []dataset.Tuple
		var err error
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			ts, err = DecodeAnswers(b)
		}
		runtime.ReadMemStats(&after)
		// A tuple header (10 bytes) becomes a 32-byte tuple plus an empty
		// vector allocation; 16x the payload covers it with room to spare.
		if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > 64<<10+16*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		if re := EncodeAnswers(ts); !bytes.Equal(re, b) {
			t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", b, re)
		}
	})
}
