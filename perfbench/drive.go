package main

import (
	"sort"
	"sync"
	"time"

	"ripple/internal/dataset"
	"ripple/internal/netpeer"
	"ripple/internal/sim"
)

// rec is the outcome of one client operation.
type rec struct {
	op              *op
	due, start, end time.Time // due is the intended send time (open loop); start otherwise
	stats           sim.Stats // reads: the paper's cost counters (zero on a cache hit)
	res             *netpeer.QueryResult
	answer          []dataset.Tuple // reads: the final answer
	div             *divAnswer      // engine diversification reads
	maxPerPeer      int
	acks            int // writes
	err             error
}

func (r *rec) latency() time.Duration { return r.end.Sub(r.due) }

// phase is one measured stretch of load.
type phase struct {
	recs        []rec
	elapsed     time.Duration
	lag         []time.Duration // open loop: how late each op was sent
	inflightMax int
	marks       []mark // window boundaries for the windowed medians
	paper       int    // when set, the paper's counts cover only the first paper ops
}

// mark is a window boundary: the time and the process CPU time used so far.
type mark struct {
	t   time.Time
	cpu time.Duration
}

func now() mark { return mark{time.Now(), cpuTime()} }

// window is the stretch between two marks and the ops completed in it.
type window struct {
	from, to mark
	recs     []*rec
}

// windows splits a phase's completed ops by the marks.
func (p *phase) windows() []window {
	var ws []window
	for i := 1; i < len(p.marks); i++ {
		ws = append(ws, window{from: p.marks[i-1], to: p.marks[i]})
	}
	for i := range p.recs {
		r := &p.recs[i]
		for j := range ws {
			if !r.end.Before(ws[j].from.t) && r.end.Before(ws[j].to.t) {
				ws[j].recs = append(ws[j].recs, r)
				break
			}
		}
	}
	return ws
}

// windowEvery is the width of a closed-loop window.
const windowEvery = time.Second

// closedLoop runs `clients` clients that each send their next operation as
// soon as the previous one completes, until d has elapsed.
func closedLoop(clients int, d time.Duration, next func(c int) *op, do func(*op) rec) phase {
	start := time.Now()
	deadline := start.Add(d)
	out := make([][]rec, clients)
	marks := []mark{now()}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(windowEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				marks = append(marks, now())
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				out[c] = append(out[c], do(next(c)))
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	p := phase{elapsed: time.Since(start), inflightMax: clients, marks: append(marks, now())}
	for _, rs := range out {
		p.recs = append(p.recs, rs...)
	}
	sort.Slice(p.recs, func(i, j int) bool { return p.recs[i].start.Before(p.recs[j].start) })
	return p
}

// openLoop sends ops on a fixed schedule, one every interval, whatever the
// state of earlier ones; each op's latency runs from its intended send time,
// so a stall is charged to every op it delays.
func openLoop(ops []*op, interval time.Duration, do func(*op) rec) phase {
	recs := make([]rec, len(ops))
	lag := make([]time.Duration, len(ops))
	var mu sync.Mutex
	inflight, inflightMax := 0, 0
	var wg sync.WaitGroup
	t0 := time.Now().Add(interval)
	for i, o := range ops {
		due := t0.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		lag[i] = time.Since(due)
		mu.Lock()
		inflight++
		if inflight > inflightMax {
			inflightMax = inflight
		}
		mu.Unlock()
		wg.Add(1)
		go func(i int, o *op, due time.Time) {
			defer wg.Done()
			r := do(o)
			r.due = due
			recs[i] = r
			mu.Lock()
			inflight--
			mu.Unlock()
		}(i, o, due)
	}
	wg.Wait()
	return phase{recs: recs, elapsed: time.Since(t0), lag: lag, inflightMax: inflightMax}
}

// timed runs fn as one operation, stamping start and end.
func timed(o *op, fn func(r *rec)) rec {
	r := rec{op: o, start: time.Now()}
	fn(&r)
	r.end = time.Now()
	r.due = r.start
	return r
}
