package netpeer

// Server half of the multiplexed transport: a per-connection demux. One
// reader (the connection's serving goroutine) decodes tagged call frames
// and admits them into a bounded worker pool; MaxConcurrentCalls workers
// process calls concurrently; one writer interleaves reply frames back in
// whatever order subtrees complete. Admission control bounds per-connection
// load the way the Rainbow-skip-graph line of work bounds per-node load:
// past MaxConcurrentCalls executing and MaxCallQueue waiting, a call is
// rejected immediately with wire.Overloaded instead of stalling the socket,
// and the caller's retry backoff becomes the load-shedding signal. Immediate
// rejection is also what breaks the distributed deadlock two mutually
// saturated peers would otherwise weave: neither ever blocks the other's
// reader.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/wire"
)

// muxJob is one admitted call waiting for a worker.
type muxJob struct {
	stream uint32
	call   *wire.Call
	enq    time.Time
}

// muxOut is one reply frame queued for the writer.
type muxOut struct {
	stream uint32
	reply  *wire.Reply
}

// serveMux serves one connection once serveConn has read the client's
// hello: it acks with the version both sides run, then demultiplexes frames
// until the connection dies.
func (s *Server) serveMux(conn net.Conn, cr *countingReader) {
	if err := conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)); err != nil {
		return
	}
	if err := wire.WriteMuxHello(conn, wire.MuxVersion); err != nil {
		return
	}
	if err := conn.SetWriteDeadline(time.Time{}); err != nil {
		return
	}

	queue := make(chan muxJob, s.opts.MaxCallQueue)
	// Buffer for every possible in-flight reply plus one oversized-frame
	// report, so neither workers nor the reader ever block on the writer.
	out := make(chan muxOut, s.opts.MaxConcurrentCalls+s.opts.MaxCallQueue+1)
	var dead atomic.Bool

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		s.muxWriter(conn, out, &dead)
	}()

	var workers sync.WaitGroup
	for i := 0; i < s.opts.MaxConcurrentCalls; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range queue {
				if dead.Load() { // connection gone: the reply has no reader
					s.ins.inflight.Dec()
					continue
				}
				s.ins.queueWait.Observe(time.Since(j.enq).Seconds())
				out <- muxOut{stream: j.stream, reply: s.safeProcess(j.call)}
				s.ins.inflight.Dec()
			}
		}()
	}

	// Reader: this goroutine. Same idle semantics as the hello read — a
	// connection idle between frames re-arms its deadline, one stalled
	// mid-frame is dropped.
	for {
		var call wire.Call
		cr.n = 0
		if err := conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout)); err != nil {
			break
		}
		stream, err := wire.ReadMuxFrame(cr, &call)
		if err != nil {
			if isTimeout(err) && cr.n == 0 {
				select {
				case <-s.closed:
				default:
					continue // idle client: re-arm the deadline
				}
			}
			var fse *wire.FrameSizeError
			if errors.As(err, &fse) {
				// The frame body is unread and the stream cannot be resynced:
				// report the rejection on the stream, then drop the conn.
				out <- muxOut{stream: stream, reply: &wire.Reply{Error: fse.Error()}}
			}
			break
		}
		j := muxJob{stream: stream, call: &call, enq: time.Now()}
		select {
		case queue <- j:
			s.ins.inflight.Inc()
		default:
			s.ins.overloads.Inc()
			out <- muxOut{stream: stream, reply: &wire.Reply{Error: wire.Overloaded(
				fmt.Sprintf("peer %s: %d calls executing and %d queued",
					s.peerID(), s.opts.MaxConcurrentCalls, s.opts.MaxCallQueue))}}
		}
	}

	// Orderly teardown: stop admitting, let workers drain the queue (skipping
	// actual processing once the connection is dead), then release the writer.
	dead.Store(true)
	close(queue)
	workers.Wait()
	close(out)
	writerWG.Wait()
}

// muxWriter is the only goroutine that writes reply frames on the
// connection. On a write failure it marks the connection dead and closes it
// — unblocking the reader — then keeps draining so workers can always hand
// off their replies.
func (s *Server) muxWriter(conn net.Conn, out <-chan muxOut, dead *atomic.Bool) {
	failed := false
	for f := range out {
		if failed {
			continue
		}
		if err := s.writeMuxReply(conn, f); err != nil {
			failed = true
			dead.Store(true)
			conn.Close()
		}
	}
}

// writeMuxReply sends one reply frame under the write deadline.
func (s *Server) writeMuxReply(conn net.Conn, f muxOut) error {
	if err := conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout)); err != nil {
		return err
	}
	if err := wire.WriteMuxFrame(conn, f.stream, f.reply); err != nil {
		return err
	}
	return conn.SetWriteDeadline(time.Time{})
}

// peerID returns the server's stable identity under the config lock.
func (s *Server) peerID() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg.ID
}
