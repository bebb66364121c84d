package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/overlay"
	"ripple/internal/plan"
	"ripple/internal/wire"
)

// Spans are recorded from the benchmark's own files, around calls into each
// layer's public functions: a wire.Codec wrapper times parameter and state
// coding, and the core.Processor it hands out times the processor callbacks
// (LocalState and LocalAnswer are where each processor reads its peer's
// store). Both wrappers are installed for the whole life of a traced
// invocation's fleet and time only while the tracer is on.

// span is one timed call at a layer seam. Op is the client operation the call
// served: traced runs issue one operation at a time, because a call inside a
// peer cannot tell which of several in-flight operations it serves.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

// layerTotal aggregates every span of one name, kept or not.
type layerTotal struct {
	n, ns, bytes int64
}

// maxKeptSpans bounds the spans held for the trace file; totals cover all.
const maxKeptSpans = 50000

type tracer struct {
	on     atomic.Bool
	t0     time.Time
	op     atomic.Int64 // client operation being served
	parent atomic.Int64 // innermost open benchmark-side span
	nextID atomic.Int64

	mu     sync.Mutex
	totals map[string]*layerTotal
	spans  []span

	checks, pruned atomic.Int64 // LinkRelevant calls and negative verdicts
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: make(map[string]*layerTotal)}
}

// add folds one finished span into the totals and keeps it for the trace
// file while there is room.
func (t *tracer) add(s span, start, end time.Time) {
	s.Op = t.op.Load()
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	tot := t.totals[s.Name]
	if tot == nil {
		tot = &layerTotal{}
		t.totals[s.Name] = tot
	}
	tot.n++
	tot.ns += end.Sub(start).Nanoseconds()
	tot.bytes += int64(s.Bytes)
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// begin starts timing a wrapped call; the zero time when the tracer is off,
// so untraced phases pay no clock reads.
func (t *tracer) begin() time.Time {
	if !t.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

// leaf records a call begun at start that opens no spans of its own, under
// the innermost open benchmark-side span.
func (t *tracer) leaf(name string, start time.Time, bytes int) {
	if start.IsZero() {
		return
	}
	t.add(span{ID: t.nextID.Add(1), Parent: t.parent.Load(), Name: name, Bytes: bytes}, start, time.Now())
}

// open starts a benchmark-side span (an operation, a core.RunOpts call) that
// later spans nest under. Only the serial traced runs open spans.
func (t *tracer) open() (id, prev int64, start time.Time) {
	id = t.nextID.Add(1)
	prev = t.parent.Swap(id)
	return id, prev, time.Now()
}

// close ends a span begun by open and restores its parent.
func (t *tracer) close(name string, id, prev int64, start time.Time) {
	t.add(span{ID: id, Parent: prev, Name: name}, start, time.Now())
	t.parent.Store(prev)
}

// total returns the aggregate of every span of one name.
func (t *tracer) total(name string) layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tot := t.totals[name]; tot != nil {
		return *tot
	}
	return layerTotal{}
}

// write stores the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedCodec wraps a wire.Codec, timing parameter decoding and state coding
// and handing out timed processors.
type timedCodec struct {
	inner wire.Codec
	tr    *tracer
}

func (c timedCodec) Name() string { return c.inner.Name() }

func (c timedCodec) NewProcessor(params []byte) (core.Processor, error) {
	start := c.tr.begin()
	p, err := c.inner.NewProcessor(params)
	c.tr.leaf("wire.params_decode", start, len(params))
	if err != nil {
		return nil, err
	}
	return wrapProc(p, c.tr), nil
}

func (c timedCodec) EncodeState(s core.State) ([]byte, error) {
	start := c.tr.begin()
	b, err := c.inner.EncodeState(s)
	c.tr.leaf("wire.state_encode", start, len(b))
	return b, err
}

func (c timedCodec) DecodeState(b []byte) (core.State, error) {
	start := c.tr.begin()
	s, err := c.inner.DecodeState(b)
	c.tr.leaf("wire.state_decode", start, len(b))
	return s, err
}

// timedProc wraps a core.Processor. States pass through untouched, so the
// wrapped processor's own type assertions see exactly what they would see
// unwrapped.
type timedProc struct {
	inner core.Processor
	tr    *tracer
}

// hintedProc is a timedProc over a processor that describes itself to the
// planner. netpeer, core and async type-assert plan.Hinter on processors, so
// a wrapper that dropped the method would change the planner's decisions.
type hintedProc struct{ *timedProc }

func (p hintedProc) PlanHints() plan.Hints { return p.inner.(plan.Hinter).PlanHints() }

func wrapProc(p core.Processor, tr *tracer) core.Processor {
	tp := &timedProc{inner: p, tr: tr}
	if _, ok := p.(plan.Hinter); ok {
		return hintedProc{tp}
	}
	return tp
}

func (p *timedProc) LocalState(w overlay.Node, global core.State) core.State {
	start := p.tr.begin()
	s := p.inner.LocalState(w, global)
	p.tr.leaf("storage.local_state", start, 0)
	return s
}

func (p *timedProc) GlobalState(w overlay.Node, global, local core.State) core.State {
	start := p.tr.begin()
	s := p.inner.GlobalState(w, global, local)
	p.tr.leaf("proc.global", start, 0)
	return s
}

func (p *timedProc) MergeStates(w overlay.Node, states []core.State) core.State {
	start := p.tr.begin()
	s := p.inner.MergeStates(w, states)
	p.tr.leaf("proc.merge", start, 0)
	return s
}

func (p *timedProc) LinkRelevant(w overlay.Node, region overlay.Region, global core.State) bool {
	start := p.tr.begin()
	ok := p.inner.LinkRelevant(w, region, global)
	if !start.IsZero() {
		p.tr.leaf("proc.link", start, 0)
		p.tr.checks.Add(1)
		if !ok {
			p.tr.pruned.Add(1)
		}
	}
	return ok
}

func (p *timedProc) LinkPriority(w overlay.Node, region overlay.Region) float64 {
	start := p.tr.begin()
	v := p.inner.LinkPriority(w, region)
	p.tr.leaf("proc.link", start, 0)
	return v
}

func (p *timedProc) LocalAnswer(w overlay.Node, local core.State) []dataset.Tuple {
	start := p.tr.begin()
	a := p.inner.LocalAnswer(w, local)
	p.tr.leaf("storage.local_answer", start, 0)
	return a
}

func (p *timedProc) InitialState() core.State { return p.inner.InitialState() }

func (p *timedProc) StateTuples(s core.State) int { return p.inner.StateTuples(s) }

// wrapCodecs wraps every codec with the tracer's timing.
func wrapCodecs(tr *tracer, codecs []wire.Codec) []wire.Codec {
	out := make([]wire.Codec, len(codecs))
	for i, c := range codecs {
		out[i] = timedCodec{inner: c, tr: tr}
	}
	return out
}
