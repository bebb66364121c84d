// Package fixture seeds both halves of the pool-hygiene contract: a value
// dropped on one path, and a value touched after its Put.
package fixture

import (
	"errors"
	"sync"
)

var bufPool = sync.Pool{New: func() interface{} { return new([]byte) }}

var errFail = errors.New("fail")

// Leak drops the pooled buffer on the error path.
func Leak(fail bool) error {
	b := bufPool.Get().(*[]byte) // want `pooled value "b" is not returned to the pool on every path`
	if fail {
		return errFail
	}
	bufPool.Put(b)
	return nil
}

// LeakOnPanic loses the buffer when the callback panics: only a deferred Put
// survives the unwind.
func LeakOnPanic(n int) {
	b := bufPool.Get().(*[]byte) // want `pooled value "b" is not returned to the pool on every path`
	if n < 0 {
		panic("negative")
	}
	bufPool.Put(b)
}

// UseAfterPut touches the buffer after handing it back to the pool.
func UseAfterPut() int {
	b := bufPool.Get().(*[]byte)
	bufPool.Put(b)
	return len(*b) // want `pooled value "b" used after being returned to the pool`
}

// WriteFrame is the wire codec's frame-assembly shape with the release
// forgotten on the write-error path.
func WriteFrame(write func([]byte) error, body []byte) error {
	bp := bufPool.Get().(*[]byte) // want `pooled value "bp" is not returned to the pool on every path`
	buf := append((*bp)[:0], body...)
	if err := write(buf); err != nil {
		return err
	}
	*bp = buf[:0]
	bufPool.Put(bp)
	return nil
}
