// Package fixture shows the accepted pool-hygiene shapes: no diagnostics.
package fixture

import "sync"

var bufPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// Balanced puts the buffer back on both paths.
func Balanced(fail bool) int {
	b := bufPool.Get().(*[]byte)
	if fail {
		bufPool.Put(b)
		return 0
	}
	n := len(*b)
	bufPool.Put(b)
	return n
}

// Deferred releases via defer, which also covers panic unwinds.
func Deferred() int {
	b := bufPool.Get().(*[]byte)
	defer bufPool.Put(b)
	return len(*b)
}

// Scoped is the if-init guard shape: outside the body the value is nil and
// out of scope, so nothing needs releasing there.
func Scoped() int {
	if b := bufPool.Get().(*[]byte); b != nil {
		n := len(*b)
		bufPool.Put(b)
		return n
	}
	return 0
}

// HandOff transfers ownership to the caller instead of the pool.
func HandOff() *[]byte {
	b := bufPool.Get().(*[]byte)
	return b
}

// putFrameBuf is a size-capped releaser: oversized buffers go to the
// garbage collector instead of pinning memory in the pool.
func putFrameBuf(b *[]byte) {
	if cap(*b) <= 1<<20 {
		bufPool.Put(b)
	}
}

// WriteFrame is the wire codec's frame-assembly shape: the deferred
// releaser covers every path.
func WriteFrame(write func([]byte) error, body []byte) error {
	bp := bufPool.Get().(*[]byte)
	defer putFrameBuf(bp)
	buf := append((*bp)[:0], body...)
	err := write(buf)
	*bp = buf[:0]
	return err
}
