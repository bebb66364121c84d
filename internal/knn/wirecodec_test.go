package knn

import "testing"

// TestWireStateZeroAllocs pins the per-hop state codec's allocation budget:
// encoding the (m, ρ) pair into a reused buffer and decoding it back
// allocate nothing.
func TestWireStateZeroAllocs(t *testing.T) {
	in := state{m: 7, rho: 0.25}
	dst := make([]byte, 0, maxStateSize)
	var out state
	allocs := testing.AllocsPerRun(200, func() {
		dst = appendState(dst[:0], in)
		var err error
		if out, err = decodeState(dst); err != nil {
			t.Fatal(err)
		}
	})
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if allocs != 0 {
		t.Fatalf("state encode+decode allocates %.1f times per op, want 0", allocs)
	}
}
