// Package wire defines the message format RIPPLE peers exchange when they
// run over a real transport (see internal/netpeer): a length-prefixed
// binary envelope (codec.go) carrying the query descriptor, the propagated
// global state, the restriction area and the ripple parameter downstream,
// and local states, answer tuples and cost counters upstream.
//
// Query-type specifics (parameters and state payloads) are opaque byte
// blobs produced by a per-type Codec, so new query types plug into the wire
// protocol the same way they plug into the engine.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/overlay"
	"ripple/internal/trace"
)

// Codec serialises one query type's parameters and states.
type Codec interface {
	// Name identifies the query type on the wire ("topk", "skyline", ...).
	Name() string
	// NewProcessor decodes query parameters into an engine plug-in.
	NewProcessor(params []byte) (core.Processor, error)
	// EncodeState / DecodeState serialise the query type's state payloads.
	EncodeState(s core.State) ([]byte, error)
	DecodeState(b []byte) (core.State, error)
}

// Mutation operations carried by Call.Op. An empty Op marks a query call;
// the constants below select the wire-level data-mutation path added with
// the result cache of DESIGN.md §15.
const (
	OpInsert = "insert"
	OpDelete = "delete"
	// OpInvalidate is the cache-invalidation broadcast the owner floods after
	// applying a mutation: every peer drops cached results whose footprint
	// covers Tuple.Vec, propagating along links under the same restriction
	// partition a fast-mode query uses, so each peer receives it exactly once.
	OpInvalidate = "invalidate"
)

// Call is the downstream message: "process this query within this area".
type Call struct {
	QueryType string
	Params    []byte
	Global    []byte
	Restrict  overlay.Region
	R         int
	Hops      int // logical arrival time of this message

	// Scope, when non-empty, restricts the query to a sub-region of the
	// domain: traversal is pruned to it and every peer filters its local
	// answer to tuples inside it. Unlike Restrict — which narrows per hop as
	// the traversal partitions the domain — Scope is constant across the
	// whole query and is part of the result's cache identity.
	Scope overlay.Region

	// Op selects the data-mutation path: OpInsert or OpDelete apply Tuple at
	// the peer owning Tuple.Vec (routing greedily via link regions), update
	// the owner's R-1 zone mirrors, and invalidate result caches along the
	// way. Empty means a query call.
	Op    string
	Tuple dataset.Tuple

	// ActAs, when non-empty, asks the receiving peer to process this call on
	// behalf of the named dead peer (a recovery dispatch): it executes the
	// primary's replicated share — zone, tuples and links — so the recovered
	// subtree is exactly the subtree the primary would have executed. The
	// receiver must hold a replica of that peer's share or fail the call.
	ActAs string

	// Trace context. When Traced is set, the receiving peer records a span
	// for itself — identified by SpanID, which the caller derived (the caller
	// owns the traversal, exactly like the in-process engines) — and returns
	// its subtree's spans on the Reply, convergecasting the hop tree back to
	// the initiator. SpanParent and SpanDepth place the span in the tree.
	Traced     bool
	SpanID     uint64
	SpanParent uint64
	SpanDepth  int
}

// Reply is the upstream message: the local states of the processed subtree,
// the answer tuples collected for the initiator, and cost counters.
type Reply struct {
	States     [][]byte
	Answers    []dataset.Tuple
	Completion int // logical completion time of the subtree
	QueryMsgs  int
	StateMsgs  int
	TuplesSent int
	Peers      []string // peers reached in the subtree (congestion audit)

	// Error reports a fatal processing failure at the replying peer (panic
	// or malformed call). It distinguishes "this peer crashed" from "this
	// peer holds no qualifying tuples", which an empty reply cannot.
	Error string
	// Partial marks that at least one subtree was lost (dead or timed-out
	// link after retry exhaustion): the answer set may be incomplete.
	Partial bool
	// FailedRegions collects the restriction regions of the lost subtrees;
	// their total volume bounds what the answer can be missing.
	FailedRegions []overlay.Region
	// Failures counts link traversals abandoned after retry exhaustion,
	// Retries the extra attempts spent recovering links, and TimedOut the
	// subset of Failures that hit the per-call deadline rather than an
	// immediate transport error.
	Failures int
	Retries  int
	TimedOut int
	// Recovered counts lost traversals a zone replica served on the dead
	// primary's behalf (they do not mark the reply partial); Failovers the
	// replica dispatches attempted doing so, successful or not.
	Recovered int
	Failovers int

	// Spans carries the subtree's hop-tree spans upstream when the call was
	// traced: the replying peer's own span, spans it recorded for lost
	// children, and everything its reachable children reported.
	Spans []trace.Span

	// CacheHit marks a reply served from the peer's result cache (answers
	// decoded from canonical form; cost counters are then zero by
	// construction — no propagation happened).
	CacheHit bool
	// Plan and PlanR report the serving peer's adaptive-planner decision when
	// the call arrived with r = RAuto and the peer ran a planner: PlanR is the
	// ripple parameter the query actually executed with and Plan its rendered
	// decision ("fast", "ripple(2)", ...). Both are zero-valued for static
	// calls.
	Plan  string
	PlanR int
	// Acks counts the peers that applied a mutation call: the owner plus
	// each mirror that acknowledged the update.
	Acks int
	// Forwarded marks a mutation reply from a replica that routed the call
	// onward (acting as the dead peer) instead of applying it to a mirrored
	// share: the caller must not dispatch the same mutation to the remaining
	// replicas, or the owner would apply it once per replica.
	Forwarded bool
}

// MergeFaults folds a child subtree's fault accounting into r.
func (r *Reply) MergeFaults(child *Reply) {
	r.Partial = r.Partial || child.Partial
	r.FailedRegions = append(r.FailedRegions, child.FailedRegions...)
	r.Failures += child.Failures
	r.Retries += child.Retries
	r.TimedOut += child.TimedOut
	r.Recovered += child.Recovered
	r.Failovers += child.Failovers
}

// RecordLostLink marks one unrecoverable link covering the given region.
func (r *Reply) RecordLostLink(region overlay.Region, timedOut bool) {
	r.Partial = true
	r.Failures++
	if timedOut {
		r.TimedOut++
	}
	r.FailedRegions = append(r.FailedRegions, region)
}

// Message is a frame body: *Call or *Reply. Fields are encoded in
// declaration order with the codec of codec.go.
type Message interface {
	appendTo(b []byte) []byte
	decode(d *Decoder)
}

func (c *Call) appendTo(b []byte) []byte {
	b = AppendString(b, c.QueryType)
	b = AppendBytes(b, c.Params)
	b = AppendBytes(b, c.Global)
	b = AppendRegion(b, c.Restrict)
	b = AppendInt(b, c.R)
	b = AppendInt(b, c.Hops)
	b = AppendRegion(b, c.Scope)
	b = AppendString(b, c.Op)
	b = AppendTuple(b, c.Tuple)
	b = AppendString(b, c.ActAs)
	b = AppendBool(b, c.Traced)
	b = AppendUint(b, c.SpanID)
	b = AppendUint(b, c.SpanParent)
	return AppendInt(b, c.SpanDepth)
}

func (c *Call) decode(d *Decoder) {
	c.QueryType = d.Str()
	c.Params = d.Bytes()
	c.Global = d.Bytes()
	c.Restrict = d.Region()
	c.R = d.Int()
	c.Hops = d.Int()
	c.Scope = d.Region()
	c.Op = d.Str()
	c.Tuple = d.Tuple()
	c.ActAs = d.Str()
	c.Traced = d.Bool()
	c.SpanID = d.Uint()
	c.SpanParent = d.Uint()
	c.SpanDepth = d.Int()
}

func (r *Reply) appendTo(b []byte) []byte {
	b = appendList(b, r.States, AppendBytes)
	b = AppendTuples(b, r.Answers)
	b = AppendInt(b, r.Completion)
	b = AppendInt(b, r.QueryMsgs)
	b = AppendInt(b, r.StateMsgs)
	b = AppendInt(b, r.TuplesSent)
	b = appendList(b, r.Peers, AppendString)
	b = AppendString(b, r.Error)
	b = AppendBool(b, r.Partial)
	b = appendList(b, r.FailedRegions, AppendRegion)
	b = AppendInt(b, r.Failures)
	b = AppendInt(b, r.Retries)
	b = AppendInt(b, r.TimedOut)
	b = AppendInt(b, r.Recovered)
	b = AppendInt(b, r.Failovers)
	b = appendList(b, r.Spans, appendSpan)
	b = AppendBool(b, r.CacheHit)
	b = AppendString(b, r.Plan)
	b = AppendInt(b, r.PlanR)
	b = AppendInt(b, r.Acks)
	return AppendBool(b, r.Forwarded)
}

func (r *Reply) decode(d *Decoder) {
	r.States = list(d, 1, (*Decoder).Bytes)
	r.Answers = d.Tuples()
	r.Completion = d.Int()
	r.QueryMsgs = d.Int()
	r.StateMsgs = d.Int()
	r.TuplesSent = d.Int()
	r.Peers = list(d, 1, (*Decoder).Str)
	r.Error = d.Str()
	r.Partial = d.Bool()
	r.FailedRegions = list(d, 1, (*Decoder).Region)
	r.Failures = d.Int()
	r.Retries = d.Int()
	r.TimedOut = d.Int()
	r.Recovered = d.Int()
	r.Failovers = d.Int()
	r.Spans = list(d, minSpanSize, decodeSpan)
	r.CacheHit = d.Bool()
	r.Plan = d.Str()
	r.PlanR = d.Int()
	r.Acks = d.Int()
	r.Forwarded = d.Bool()
}

// minSpanSize is the smallest span encoding: one byte per field.
const minSpanSize = 14

func appendSpan(b []byte, s trace.Span) []byte {
	b = AppendUint(b, s.ID)
	b = AppendUint(b, s.Parent)
	b = AppendString(b, s.Peer)
	b = AppendString(b, s.Via)
	b = AppendRegion(b, s.Region)
	b = AppendString(b, s.Phase)
	b = AppendInt(b, s.R)
	b = AppendInt(b, s.Depth)
	b = AppendInt(b, s.Arrive)
	b = AppendInt(b, s.Attempt)
	b = AppendString(b, s.Outcome)
	b = AppendInt(b, s.StateTuples)
	b = AppendInt(b, s.AnswerTuples)
	return AppendString(b, s.Plan)
}

func decodeSpan(d *Decoder) (s trace.Span) {
	s.ID = d.Uint()
	s.Parent = d.Uint()
	s.Peer = d.Str()
	s.Via = d.Str()
	s.Region = d.Region()
	s.Phase = d.Str()
	s.R = d.Int()
	s.Depth = d.Int()
	s.Arrive = d.Int()
	s.Attempt = d.Int()
	s.Outcome = d.Str()
	s.StateTuples = d.Int()
	s.AnswerTuples = d.Int()
	s.Plan = d.Str()
	return s
}

// framePool recycles the frame-assembly and frame-read buffers; frames
// beyond maxPooledFrame are left to the garbage collector so one huge answer
// set cannot pin memory in the pool forever.
var framePool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 4096); return &b }}

const maxPooledFrame = 1 << 20

func putFrameBuf(b *[]byte) {
	if cap(*b) <= maxPooledFrame {
		framePool.Put(b)
	}
}

// writeFrame assembles a frame in a pooled buffer — head (the mux stream
// word, or nothing), the 4-byte big-endian body length, then msg's body —
// and issues a single Write, so concurrent writers need only serialise the
// call itself.
func writeFrame(w io.Writer, head []byte, msg Message) error {
	bp := framePool.Get().(*[]byte)
	defer putFrameBuf(bp)
	buf := append(append((*bp)[:0], head...), 0, 0, 0, 0)
	n := len(buf)
	buf = msg.appendTo(buf)
	binary.BigEndian.PutUint32(buf[n-4:n], uint32(len(buf)-n))
	_, err := w.Write(buf)
	*bp = buf[:0]
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// WriteMessage writes msg as one length-prefixed frame. Peers exchange mux
// frames (WriteMuxFrame); this plain framing measures and replays messages
// offline.
func WriteMessage(w io.Writer, msg Message) error {
	return writeFrame(w, nil, msg)
}

// MaxFrame bounds a single message; queries and states are small, answers
// are bounded by the data a peer holds.
const MaxFrame = 64 << 20

// FrameSizeError reports a length prefix beyond MaxFrame: either a peer
// trying to ship an oversized message or a corrupt/hostile prefix. The
// server replies with it as wire.Reply.Error before dropping the connection
// (the frame body cannot be resynchronised), so the sender learns why.
type FrameSizeError struct {
	Size uint32
}

// Error implements error.
func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds limit (%d)", e.Size, MaxFrame)
}

// frameChunk caps how far a frame-body read allocates ahead of the bytes
// actually received. A prefix that lies about its length — corruption, or a
// hostile client — costs at most one chunk beyond what arrived, instead of
// the full claimed size up front.
const frameChunk = 1 << 20

// readFrameBody reads an n-byte frame body into buf (reused from the frame
// pool), growing it at most one chunk ahead of the bytes received.
func readFrameBody(r io.Reader, n int, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		next := len(buf) + min(n-len(buf), frameChunk)
		buf = slices.Grow(buf, next-len(buf)) // amortised doubling: copying stays linear in n
		if _, err := io.ReadFull(r, buf[len(buf):next]); err != nil {
			return buf, err
		}
		buf = buf[:next]
	}
	return buf, nil
}

// ReadMessage reads one framed message into msg, overwriting every field.
// A length prefix beyond MaxFrame returns a *FrameSizeError without
// attempting the allocation.
func ReadMessage(r io.Reader, msg Message) error {
	var size [4]byte
	if _, err := io.ReadFull(r, size[:]); err != nil {
		return err // io.EOF signals a cleanly closed connection
	}
	return readBody(r, binary.BigEndian.Uint32(size[:]), msg)
}

// readBody reads an n-byte frame body into a pooled buffer and decodes msg
// from it; the decoded values copy out of the buffer before it is reused.
func readBody(r io.Reader, n uint32, msg Message) error {
	if n > MaxFrame {
		return &FrameSizeError{Size: n}
	}
	bp := framePool.Get().(*[]byte)
	defer putFrameBuf(bp)
	body, err := readFrameBody(r, int(n), (*bp)[:0])
	*bp = body[:0]
	if err != nil {
		return fmt.Errorf("wire: read body: %w", err)
	}
	if err := decodeMessage(body, msg); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// decodeMessage decodes a whole frame body into msg.
func decodeMessage(body []byte, msg Message) error {
	d := Decoder{b: body}
	// A type switch rather than an interface call keeps d on the stack.
	switch m := msg.(type) {
	case *Call:
		m.decode(&d)
	case *Reply:
		m.decode(&d)
	}
	return d.Finish()
}
