package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ripple/internal/bench"
	"ripple/internal/dataset"
	"ripple/internal/plan"
)

// TCP workload parameters (see README.md for why each was chosen).
const (
	fleetPeers     = 64
	cacheBytes     = 16 << 20
	rotateEvery    = 16 // closed-loop ops a client issues at one entry peer
	closedClients  = 2  // nproc on the reference machine
	zipfPool       = 1024
	zipfSkew       = 1.0
	zipfWriteFrac  = 0.05
	zipfRate       = 100 // ops/s, open loop
	zipfDelay      = 500 * time.Microsecond
	zipfWarmRanks  = 256 // most popular pool entries read once before timing
	deleteMinLag   = 20  // ops between an insert and the delete that removes it
	insertIDOffset = 1 << 40
)

// tcpWorkload drives one of the three loopback-fleet workloads.
type tcpWorkload struct {
	name string
	seed int64
	tr   *tracer
	data []dataset.Tuple
	f    *fleet

	streams []*mixedStream // closed loop: one per client, plus one for serial phases

	zs    *zipfStream
	mu    sync.Mutex
	acked map[int]chan struct{} // insert op id -> closed once the insert returned
}

func newTCPWorkload(name string, seed int64, tr *tracer) *tcpWorkload {
	return &tcpWorkload{name: name, seed: seed, tr: tr, acked: make(map[int]chan struct{})}
}

func (w *tcpWorkload) cfg() fleetCfg {
	c := fleetCfg{peers: fleetPeers, replication: 1, cacheBytes: cacheBytes}
	switch w.name {
	case "tcp-zipf-rw":
		c.replication, c.delay, c.planner = 2, zipfDelay, true
	case "tcp-failover":
		c.replication = 2
	}
	return c
}

// replication is the number of peers a write must reach (owner plus mirrors).
func (w *tcpWorkload) replication() int { return w.cfg().replication }

func (w *tcpWorkload) setup() error {
	w.data = genData()
	f, err := deployFleet(w.data, w.seed, w.cfg(), w.tr)
	if err != nil {
		return err
	}
	w.f = f
	if err := f.warm(w.seed); err != nil {
		return err
	}
	if w.name == "tcp-failover" {
		// A fixed victim, like the data: which peer dies decides how many
		// reads cross it, and a per-seed victim swung that share (and qps
		// with it) by more than 2x between seeds.
		f.kill(rand.New(rand.NewSource(dataSeed)).Intn(len(f.servers)))
	}
	switch w.name {
	case "tcp-zipf-rw":
		// Fixed entry peers, like the pool: where a scoped read enters
		// decides how far its misses travel.
		entries := rand.New(rand.NewSource(dataSeed)).Perm(len(f.servers))[:2]
		w.zs = newZipfStream(w.seed, entries)
		if err := w.warmCache(); err != nil {
			return err
		}
	default:
		for c := 0; c <= closedClients; c++ {
			w.streams = append(w.streams, newMixedStream(w.seed, c, f.live()))
		}
	}
	return nil
}

// warmCache reads the most popular pool entries once at their entry peer,
// which also trains the planner.
func (w *tcpWorkload) warmCache() error {
	n := len(w.zs.entries)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i, e := range w.zs.entries {
		wg.Add(1)
		go func(i, e int) {
			defer wg.Done()
			for rank := i; rank < zipfWarmRanks; rank += n {
				if _, err := w.f.read(w.zs.pool[rank], e); err != nil {
					errs <- fmt.Errorf("cache warm-up: %w", err)
					return
				}
			}
		}(i, e)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (w *tcpWorkload) close() {
	if w.f != nil {
		w.f.close()
	}
}

// streamDigest fingerprints the data and the first ops of every stream, from
// fresh generators so it does not depend on how far a run got.
func (w *tcpWorkload) streamDigest() string {
	d := newDigest()
	d.h.Write([]byte(dataDigest(w.data)))
	if w.name == "tcp-zipf-rw" {
		zs := newZipfStream(w.seed, w.zs.entries)
		for i := 0; i < 4096; i++ {
			d.op(zs.next())
		}
		return d.sum()
	}
	for c := range w.streams {
		s := newMixedStream(w.seed, c, w.f.live())
		for i := 0; i < 1024; i++ {
			d.op(s.next())
		}
	}
	return d.sum()
}

// run drives the workload's own load (serial false) or one operation at a
// time (serial true) for d.
func (w *tcpWorkload) run(serial bool, d time.Duration) phase {
	if w.name == "tcp-zipf-rw" {
		if serial {
			return closedLoop(1, d, func(int) *op { return w.zs.next() }, w.do)
		}
		ops := make([]*op, int(d.Seconds()*zipfRate))
		for i := range ops {
			ops[i] = w.zs.next()
		}
		return openLoop(ops, time.Second/zipfRate, w.do)
	}
	if serial {
		s := w.streams[closedClients]
		return closedLoop(1, d, func(int) *op { return s.next() }, w.do)
	}
	return closedLoop(closedClients, d, func(c int) *op { return w.streams[c].next() }, w.do)
}

// do performs one operation against the fleet.
func (w *tcpWorkload) do(o *op) rec {
	if w.tr != nil && w.tr.on.Load() {
		w.tr.op.Store(int64(o.id))
		id, prev, start := w.tr.open()
		defer func() { w.tr.close("bench.op", id, prev, start) }()
	}
	switch o.kind {
	case opInsert:
		done := make(chan struct{})
		w.mu.Lock()
		w.acked[o.id] = done
		w.mu.Unlock()
		defer close(done)
		return timed(o, func(r *rec) { r.acks, r.err = w.f.clients[o.entry].Insert(o.tuple) })
	case opDelete:
		w.mu.Lock()
		done := w.acked[o.ref]
		w.mu.Unlock()
		if done != nil {
			<-done
		}
		return timed(o, func(r *rec) { r.acks, r.err = w.f.clients[o.entry].Delete(o.tuple) })
	}
	return timed(o, func(r *rec) {
		res, err := w.f.read(o.q, o.entry)
		if err != nil {
			r.err = err
			return
		}
		r.res, r.stats, r.maxPerPeer = res, res.Stats, res.Stats.MaxPerPeer()
	})
}

// mixedStream is one closed-loop client's op stream: unique queries cycling
// through the three families and the three static radii, issued at an entry
// peer that advances in a seeded order every rotateEvery ops.
type mixedStream struct {
	rng    *rand.Rand
	client int
	perm   []int
	n      int
}

func newMixedStream(seed int64, client int, live []int) *mixedStream {
	rng := rand.New(rand.NewSource(seed*1009 + int64(client)))
	perm := make([]int, len(live))
	for i, j := range rng.Perm(len(live)) {
		perm[i] = live[j]
	}
	return &mixedStream{rng: rng, client: client, perm: perm}
}

func (s *mixedStream) next() *op {
	n := s.n
	s.n++
	q := newQuery(s.rng, families[n%len(families)], radii[(n/len(families))%len(radii)])
	return &op{id: s.client<<32 | n, kind: opRead, q: q, entry: s.perm[(n/rotateEvery)%len(s.perm)]}
}

// zipfStream is the read/write stream of tcp-zipf-rw: zipfian reads over a
// pool of scoped queries planned with r=auto, and writes that insert fresh
// tuples or delete ones the stream inserted earlier. A read goes to the entry
// peer its pool index selects, so each query is cached at one initiator
// (client-side cache affinity); writes alternate. The pool and the
// sequence of inserted points are part of the fixed catalogue, like the data:
// the seed draws which reads are issued and which ops are writes. A write's
// cost to the cache depends on how many hot entries cover its point, and
// per-seed points moved the hit fraction between 0.37 and 0.50.
type zipfStream struct {
	z       *bench.Zipf
	rng     *rand.Rand // which ops are writes, inserts or deletes
	wrng    *rand.Rand // where inserts land: catalogue, like the pool
	pool    []*query
	entries []int
	n       int
	live    []*op // inserts not yet deleted, oldest first
}

func newZipfStream(seed int64, entries []int) *zipfStream {
	prng := rand.New(rand.NewSource(dataSeed))
	pool := make([]*query, zipfPool)
	for i := range pool {
		q := newQuery(prng, families[prng.Intn(len(families))], plan.RAuto)
		q.scope = randScope(prng)
		pool[i] = q
	}
	return &zipfStream{
		z:       bench.NewZipf(zipfPool, zipfSkew, seed*7919+2),
		rng:     rand.New(rand.NewSource(seed*7919 + 3)),
		wrng:    rand.New(rand.NewSource(dataSeed + 1)),
		pool:    pool,
		entries: entries,
	}
}

func (s *zipfStream) next() *op {
	n := s.n
	s.n++
	o := &op{id: n, entry: s.entries[n%len(s.entries)]}
	if s.rng.Float64() >= zipfWriteFrac {
		rank := s.z.Next()
		o.kind, o.q, o.entry = opRead, s.pool[rank], s.entries[rank%len(s.entries)]
		return o
	}
	if len(s.live) > 0 && n-s.live[0].id >= deleteMinLag && s.rng.Intn(2) == 0 {
		ins := s.live[0]
		s.live = s.live[1:]
		o.kind, o.tuple, o.ref = opDelete, ins.tuple, ins.id
		return o
	}
	o.kind = opInsert
	o.tuple = dataset.Tuple{ID: insertIDOffset + uint64(n), Vec: randPoint(s.wrng)}
	s.live = append(s.live, o)
	return o
}
