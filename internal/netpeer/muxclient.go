package netpeer

// Client half of the multiplexed transport (wire/mux.go): all concurrent
// calls to the same remote share one connection. Each call registers a
// stream in a pending table, writes one tagged frame, and waits on its own
// channel; a single read loop per connection routes reply frames back by
// stream ID, in whatever order the remote finishes them. A connection that
// dies fails every in-flight stream at once — each caller feeds its error
// into the ordinary per-call retry/backoff policy, so the failure semantics
// per logical call are exactly the legacy ones.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ripple/internal/wire"
)

// streamTimeoutError marks a stream abandoned at its call deadline while the
// connection itself stayed healthy. It implements net.Error so isTimeout
// classifies it like a legacy read-deadline expiry: hung peer, not dead peer.
type streamTimeoutError struct{}

func (streamTimeoutError) Error() string   { return "netpeer: mux stream timed out awaiting reply" }
func (streamTimeoutError) Timeout() bool   { return true }
func (streamTimeoutError) Temporary() bool { return true }

var errStreamTimeout net.Error = streamTimeoutError{}

type muxResult struct {
	reply *wire.Reply
	err   error
}

// muxConn is one multiplexed connection and its pending-stream table.
type muxConn struct {
	conn         net.Conn
	writeTimeout time.Duration

	wmu sync.Mutex // serialises frame writes and their deadlines

	mu      sync.Mutex
	pending map[uint32]chan muxResult
	nextID  uint32
	dead    error // non-nil once the connection has failed
}

func newMuxConn(conn net.Conn, writeTimeout time.Duration) *muxConn {
	return &muxConn{
		conn:         conn,
		writeTimeout: writeTimeout,
		pending:      make(map[uint32]chan muxResult),
	}
}

// register allocates a stream ID and its reply channel.
func (m *muxConn) register() (uint32, chan muxResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead != nil {
		return 0, nil, m.dead
	}
	for {
		m.nextID++
		if m.nextID == 0 { // 32-bit wrap: skip 0 so IDs stay non-zero
			m.nextID = 1
		}
		if _, taken := m.pending[m.nextID]; !taken {
			break
		}
	}
	ch := make(chan muxResult, 1)
	m.pending[m.nextID] = ch
	return m.nextID, ch, nil
}

func (m *muxConn) deregister(id uint32) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// writeFrame sends one tagged frame under the write deadline. Writes from
// concurrent streams interleave at frame granularity, never within a frame.
func (m *muxConn) writeFrame(id uint32, msg wire.Message) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if err := m.conn.SetWriteDeadline(time.Now().Add(m.writeTimeout)); err != nil {
		return err
	}
	if err := wire.WriteMuxFrame(m.conn, id, msg); err != nil {
		return err
	}
	return m.conn.SetWriteDeadline(time.Time{})
}

// call performs one RPC as a stream on the shared connection. The timeout is
// enforced here, per stream, rather than as a read deadline on the shared
// socket: expiry abandons this stream only (hung peer — the legacy repeated-
// timeout behaviour), while a transport failure kills the connection and
// fails every stream at once.
func (m *muxConn) call(call *wire.Call, timeout time.Duration) (*wire.Reply, error) {
	id, ch, err := m.register()
	if err != nil {
		return nil, err
	}
	if err := m.writeFrame(id, call); err != nil {
		m.deregister(id)
		m.fail(err)
		return nil, err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case res := <-ch:
		return res.reply, res.err
	case <-t.C:
		m.deregister(id)
		return nil, errStreamTimeout
	}
}

// readLoop routes reply frames to their pending streams until the
// connection fails. It reads without a deadline: the socket may sit idle for
// as long as the remote needs, and per-call liveness is the stream timers'
// job. Runs as one goroutine per connection, owned by whoever dialled it.
func (m *muxConn) readLoop() {
	for {
		var reply wire.Reply
		id, err := wire.ReadMuxFrame(m.conn, &reply)
		if err != nil {
			m.fail(fmt.Errorf("netpeer: mux connection lost: %w", err))
			return
		}
		m.mu.Lock()
		ch := m.pending[id]
		delete(m.pending, id)
		m.mu.Unlock()
		if ch != nil {
			ch <- muxResult{reply: &reply}
		}
	}
}

// fail marks the connection dead and fails every in-flight stream with err.
// Each waiter surfaces the error into its own retry policy, per call. Safe
// to call more than once; the first error wins.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.dead == nil {
		m.dead = err
	}
	pending := m.pending
	m.pending = make(map[uint32]chan muxResult)
	m.mu.Unlock()
	m.conn.Close()
	for _, ch := range pending {
		ch <- muxResult{err: err} // buffered: never blocks
	}
}

func (m *muxConn) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead != nil
}

// muxHandshake sends the hello and reads the ack, all under one deadline so
// a hung remote surfaces as a retryable timeout rather than a stuck dial.
// The returned version is 0 when the remote declined multiplexing.
//
//ripplevet:transport
func muxHandshake(conn net.Conn, timeout time.Duration) (uint32, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, err
	}
	if err := wire.WriteMuxHello(conn, wire.MuxVersion); err != nil {
		return 0, err
	}
	ver, err := wire.ReadMuxHello(conn)
	if err != nil {
		return 0, err
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return 0, err
	}
	if ver > wire.MuxVersion {
		ver = wire.MuxVersion // both sides run the minimum
	}
	return ver, nil
}

// muxEntry is one address slot in the muxTable: either a settled connection
// (done closed) or a dial in flight that waiters block on.
type muxEntry struct {
	done   chan struct{}
	mc     *muxConn
	legacy bool
	err    error
}

// muxTable tracks, per remote address, the shared multiplexed connection —
// or the discovery that the remote only speaks the sequential protocol, in
// which case calls fall through to the legacy pooled path. Dials are
// single-flight: concurrent first calls to an address share one handshake.
type muxTable struct {
	mu     sync.Mutex
	conns  map[string]*muxEntry
	legacy map[string]bool
	closed bool
}

func newMuxTable() *muxTable {
	return &muxTable{
		conns:  make(map[string]*muxEntry),
		legacy: make(map[string]bool),
	}
}

// claim returns the entry for addr. owner=true means the caller must dial,
// fill the entry, and settle it. legacy=true means the address is known to
// speak only the sequential protocol.
func (t *muxTable) claim(addr string) (e *muxEntry, owner, legacy bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, false, false, errMuxClosed
	}
	if t.legacy[addr] {
		return nil, false, true, nil
	}
	if e := t.conns[addr]; e != nil {
		return e, false, false, nil
	}
	e = &muxEntry{done: make(chan struct{})}
	t.conns[addr] = e
	return e, true, false, nil
}

// settle records the outcome of the owner's dial: legacy addresses move to
// the sticky legacy set, failed dials vacate the slot for the next attempt.
// It reports whether the table is still open; a table closed mid-dial means
// the owner must tear its connection down instead of serving from it.
func (t *muxTable) settle(addr string, e *muxEntry) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.legacy {
		if t.conns[addr] == e {
			delete(t.conns, addr)
		}
		t.legacy[addr] = true
	} else if e.err != nil || t.closed {
		if t.conns[addr] == e {
			delete(t.conns, addr)
		}
	}
	return !t.closed
}

// drop vacates addr's slot if it still holds e (a dead or failed entry), so
// the next caller redials.
func (t *muxTable) drop(addr string, e *muxEntry) {
	t.mu.Lock()
	if t.conns[addr] == e {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
}

// close fails every settled connection. Dials still in flight are torn down
// by their owners, who see the closed table in settle.
func (t *muxTable) close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	entries := make([]*muxEntry, 0, len(t.conns))
	for _, e := range t.conns {
		entries = append(entries, e)
	}
	t.conns = make(map[string]*muxEntry)
	t.mu.Unlock()
	for _, e := range entries {
		select {
		case <-e.done:
			if e.mc != nil {
				e.mc.fail(errMuxClosed)
			}
		default:
		}
	}
}

// errMuxClosed reports calls attempted after the owning server shut down.
var errMuxClosed = fmt.Errorf("netpeer: server closed")

// muxFor returns the live muxed connection for addr, dialling and
// negotiating one if needed. legacy=true means the remote speaks only the
// sequential protocol and the caller must use the legacy pooled path.
func (s *Server) muxFor(addr string) (mc *muxConn, legacy bool, err error) {
	for {
		e, owner, legacy, err := s.mux.claim(addr)
		if err != nil {
			return nil, false, err
		}
		if legacy {
			return nil, true, nil
		}
		if owner {
			return s.dialMux(addr, e)
		}
		<-e.done
		switch {
		case e.legacy:
			return nil, true, nil
		case e.err != nil:
			return nil, false, e.err
		case e.mc.isDead():
			s.mux.drop(addr, e)
			continue // redial
		default:
			return e.mc, false, nil
		}
	}
}

// dialMux dials addr and negotiates the mux protocol into the claimed table
// entry. A remote that drops the hello (a pre-mux binary rejecting it as an
// oversized frame) or acks version 0 (mux disabled) is recorded as legacy;
// on a version-0 ack the half-used connection is handed to the legacy pool,
// since the sequential protocol continues on it. A handshake timeout is
// surfaced as a retryable error — a hung peer is not evidence of a legacy
// one — and so is an ack naming an older codec version (*wire.VersionError):
// falling back to the sequential protocol would only trade it for a decode
// error.
//
//ripplevet:transport
func (s *Server) dialMux(addr string, e *muxEntry) (*muxConn, bool, error) {
	var seqConn net.Conn // ack-0 connection, reusable sequentially
	s.ins.dials.Inc()
	conn, err := net.DialTimeout("tcp", addr, s.opts.DialTimeout)
	if err != nil {
		s.ins.dialFailures.Inc()
		e.err = err
	} else {
		ver, herr := muxHandshake(conn, s.opts.DialTimeout)
		var verr *wire.VersionError
		switch {
		case herr != nil && (isTimeout(herr) || errors.As(herr, &verr)):
			conn.Close()
			e.err = herr
		case herr != nil:
			conn.Close()
			e.legacy = true
		case ver == 0:
			seqConn = conn
			e.legacy = true
		default:
			e.mc = newMuxConn(conn, s.opts.WriteTimeout)
		}
	}
	keep := s.mux.settle(addr, e)
	close(e.done)
	if !keep {
		if e.mc != nil {
			e.mc.fail(errMuxClosed)
		}
		if seqConn != nil {
			seqConn.Close()
		}
		return nil, false, errMuxClosed
	}
	if e.legacy {
		s.ins.muxFallbacks.Inc()
		if seqConn != nil {
			if s.pool != nil {
				s.pool.put(addr, seqConn)
			} else {
				seqConn.Close()
			}
		}
		return nil, true, nil
	}
	if e.err != nil {
		return nil, false, e.err
	}
	mc := e.mc
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		mc.readLoop()
	}()
	return mc, false, nil
}
