package netpeer

// Client half of the peer transport (wire/mux.go): all concurrent calls to
// the same remote share one connection. Each call registers a stream in a
// pending table, writes one tagged frame, and waits on its own channel; a
// single read loop per connection routes reply frames back by stream ID, in
// whatever order the remote finishes them. A connection that dies fails
// every in-flight stream at once — each caller feeds its error into its own
// retry/backoff policy, so failures stay per logical call. A Server and a
// Client reach their remotes through the same muxTable.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ripple/internal/metrics"
	"ripple/internal/wire"
)

// streamTimeoutError marks a stream abandoned at its call deadline while the
// connection itself stayed healthy. It implements net.Error so isTimeout
// classifies it like a read-deadline expiry: hung peer, not dead peer.
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
// socket: expiry abandons this stream only (hung peer), while a transport
// failure kills the connection and fails every stream at once.
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
// a hung remote surfaces as a retryable timeout rather than a stuck dial. The
// hello is a version check only: an ack naming a version this build cannot
// decode fails with *wire.VersionError, and anything but an ack — a remote
// that dropped the hello, say, because it is shutting down — fails like any
// other dial error, to be retried by the caller's policy.
//
//ripplevet:transport
func muxHandshake(conn net.Conn, timeout time.Duration) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if err := wire.WriteMuxHello(conn, wire.MuxVersion); err != nil {
		return err
	}
	if _, err := wire.ReadMuxHello(conn); err != nil {
		return err
	}
	return conn.SetDeadline(time.Time{})
}

// muxEntry is one address slot in the muxTable: either a settled dial (done
// closed; mc live unless err is set) or a dial in flight that waiters block
// on.
type muxEntry struct {
	done chan struct{}
	mc   *muxConn
	err  error
}

// muxTable holds, per remote address, the shared multiplexed connection.
// Dials are single-flight: concurrent first calls to an address share one
// handshake. A Server keeps one table for all its neighbours, a Client one
// for its single peer.
type muxTable struct {
	dialTimeout  time.Duration
	writeTimeout time.Duration
	dials        *metrics.Counter // nil-safe, like every instrument
	dialFailures *metrics.Counter
	streams      *metrics.Counter

	loops sync.WaitGroup // one read loop per live connection

	mu     sync.Mutex
	conns  map[string]*muxEntry
	closed bool
}

func newMuxTable(dialTimeout, writeTimeout time.Duration) *muxTable {
	return &muxTable{
		dialTimeout:  dialTimeout,
		writeTimeout: writeTimeout,
		conns:        make(map[string]*muxEntry),
	}
}

// call performs one RPC to addr as a stream on the shared connection,
// dialling one first if needed. A connection that predates the call and
// fails with anything but a timeout is presumed stale — the remote restarted
// since it was dialled — and the call is repeated once on a fresh
// connection, so a restart costs the caller's retry policy nothing. A
// timeout is surfaced instead: the peer is slow, not the connection stale.
func (t *muxTable) call(addr string, call *wire.Call, timeout time.Duration) (*wire.Reply, error) {
	for repeat := false; ; repeat = true {
		mc, reused, err := t.get(addr)
		if err != nil {
			return nil, err
		}
		t.streams.Inc()
		reply, err := mc.call(call, timeout)
		if err == nil || !reused || repeat || isTimeout(err) {
			return reply, err
		}
	}
}

// get returns the live connection to addr, dialling one if needed. reused
// is false only for the call that dialled the connection; for any other the
// connection may have gone stale since.
func (t *muxTable) get(addr string) (mc *muxConn, reused bool, err error) {
	for {
		e, owner, err := t.claim(addr)
		if err != nil {
			return nil, false, err
		}
		if owner {
			mc, err := t.dial(addr, e)
			return mc, false, err
		}
		<-e.done
		switch {
		case e.err != nil:
			return nil, false, e.err
		case e.mc.isDead():
			t.drop(addr, e)
			continue // redial
		default:
			return e.mc, true, nil
		}
	}
}

// claim returns the entry for addr. owner=true means the caller must dial,
// fill the entry, and settle it.
func (t *muxTable) claim(addr string) (e *muxEntry, owner bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, false, errMuxClosed
	}
	if e := t.conns[addr]; e != nil {
		return e, false, nil
	}
	e = &muxEntry{done: make(chan struct{})}
	t.conns[addr] = e
	return e, true, nil
}

// dial connects to addr and runs the handshake into the claimed entry,
// starting the connection's read loop on success.
//
//ripplevet:transport
func (t *muxTable) dial(addr string, e *muxEntry) (*muxConn, error) {
	t.dials.Inc()
	conn, err := net.DialTimeout("tcp", addr, t.dialTimeout)
	if err != nil {
		t.dialFailures.Inc()
		e.err = err
	} else if err := muxHandshake(conn, t.dialTimeout); err != nil {
		conn.Close()
		e.err = err
	} else {
		e.mc = newMuxConn(conn, t.writeTimeout)
	}
	mc := e.mc
	if !t.settle(addr, e) {
		if mc != nil { // the table closed mid-dial
			mc.fail(errMuxClosed)
		}
		return nil, e.err
	}
	go func() {
		defer t.loops.Done()
		mc.readLoop()
	}()
	return mc, nil
}

// settle publishes the owner's dial outcome and reports whether the owner
// may serve from the connection. A failed dial — or one that raced with
// close — vacates the slot for the next attempt; a successful one registers
// the read loop the owner is about to start, so close waits for it. The
// entry is released under the lock, so close sees every entry either in
// flight (its owner will find the table closed here) or settled.
func (t *muxTable) settle(addr string, e *muxEntry) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed && e.err == nil {
		e.err = errMuxClosed
	}
	if e.err != nil {
		if t.conns[addr] == e {
			delete(t.conns, addr)
		}
	} else {
		t.loops.Add(1)
	}
	close(e.done)
	return e.err == nil
}

// drop vacates addr's slot if it still holds e (a dead entry), so the next
// caller redials.
func (t *muxTable) drop(addr string, e *muxEntry) {
	t.mu.Lock()
	if t.conns[addr] == e {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
}

// close fails every settled connection and waits for their read loops.
// Dials still in flight are torn down by their owners, who see the closed
// table in settle. Later calls fail with errMuxClosed.
func (t *muxTable) close() {
	t.mu.Lock()
	t.closed = true
	var live []*muxConn
	for _, e := range t.conns {
		select {
		case <-e.done: // settled entries still in the table are live dials
			live = append(live, e.mc)
		default:
		}
	}
	t.conns = make(map[string]*muxEntry)
	t.mu.Unlock()
	for _, mc := range live {
		mc.fail(errMuxClosed)
	}
	t.loops.Wait()
}

// errMuxClosed reports calls attempted after the owning Server or Client
// closed.
var errMuxClosed = fmt.Errorf("netpeer: closed")
