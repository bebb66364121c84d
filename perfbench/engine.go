package main

import (
	"math"
	"math/rand"
	"time"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/midas"
	"ripple/internal/overlay"
	"ripple/internal/sim"
	"ripple/internal/skyline"
	"ripple/internal/storage"
	"ripple/internal/topk"
)

const (
	enginePeers  = 1024
	engineStream = 8192 // seeded queries; a run issues them in order
	enginePaper  = 768  // every run issues at least this many; the paper's counts come from them
	engineWindow = 256  // queries per window of the windowed medians
	divEvery     = 32   // one query in divEvery is a k-diversification
)

// engineWorkload runs the paper's simulator path: core.RunOpts over a MIDAS
// overlay, no transport, codec or cache.
type engineWorkload struct {
	seed  int64
	tr    *tracer
	data  []dataset.Tuple
	nodes []overlay.Node
	ops   []*op
	n     int // ops issued; the next op is ops[n % len(ops)]
}

// divAnswer is a diversification read's outcome, with every single-tuple
// query diversify.Greedy issued on the way.
type divAnswer struct {
	set       []dataset.Tuple
	objective float64
	steps     []divStep
}

// divStep is one single-tuple diversification query and the tuple RIPPLE
// returned for it (nil: none qualified).
type divStep struct {
	base    []dataset.Tuple
	exclude map[uint64]bool
	tau     float64
	got     *dataset.Tuple
}

func newEngineWorkload(seed int64, tr *tracer) *engineWorkload {
	return &engineWorkload{seed: seed, tr: tr}
}

func (w *engineWorkload) setup() error {
	w.data = genData()
	net := midas.BuildWithData(enginePeers, midas.Options{Dims: dims, Seed: dataSeed, Storage: storage.KindRTree}, w.data)
	w.nodes = net.Nodes()
	for _, n := range w.nodes {
		storage.Of(n) // build the lazy per-peer stores before timing
	}
	w.ops = engineOps(w.seed, len(w.nodes))
	return nil
}

// engineOps is the seeded query list: top-k, constrained skyline and kNN
// cycling through the static radii, every divEvery-th query a
// k-diversification, each from a random initiator. Diversification runs fast
// (r=0): one greedy run issues about fifteen single-tuple queries, so at
// r=slow a single diversification carried ~1,700 hops, and the few in a run
// made half of its hop count, which then moved with the seed.
func engineOps(seed int64, peers int) []*op {
	rng := rand.New(rand.NewSource(seed*31 + 17))
	ops := make([]*op, engineStream)
	j := 0
	for i := range ops {
		var q *query
		if i%divEvery == divEvery-1 {
			q = newQuery(rng, "diversify", 0)
		} else {
			q = newQuery(rng, families[j%len(families)], radii[(j/len(families))%len(radii)])
			j++
		}
		ops[i] = &op{id: i, kind: opRead, q: q, entry: rng.Intn(peers)}
	}
	return ops
}

func (w *engineWorkload) close() {}

func (w *engineWorkload) streamDigest() string {
	d := newDigest()
	d.h.Write([]byte(dataDigest(w.data)))
	for _, o := range engineOps(w.seed, len(w.nodes))[:enginePaper] {
		d.op(o)
	}
	return d.sum()
}

// run issues the query list in order, one query at a time, until d has
// elapsed and at least enginePaper queries were issued (a fixed count, so the
// paper's counts over them depend on the seed alone). The engine is serial
// either way. Windows are blocks of engineWindow queries, each with the same
// share of diversifications.
func (w *engineWorkload) run(_ bool, d time.Duration) phase {
	start := time.Now()
	p := phase{marks: []mark{now()}, paper: enginePaper}
	for len(p.recs) < enginePaper || time.Since(start) < d {
		p.recs = append(p.recs, w.do(w.ops[w.n%len(w.ops)]))
		if len(p.recs)%engineWindow == 0 {
			p.marks = append(p.marks, now())
		}
	}
	p.elapsed = time.Since(start)
	p.inflightMax = 1
	return p
}

func (w *engineWorkload) do(o *op) rec {
	if w.tr != nil && w.tr.on.Load() {
		w.tr.op.Store(int64(w.n))
		id, prev, start := w.tr.open()
		defer func() { w.tr.close("bench.op", id, prev, start) }()
	}
	w.n++
	return timed(o, func(r *rec) {
		q, init := o.q, w.nodes[o.entry]
		if q.fam == "diversify" {
			dq := diversify.NewQuery(q.center, divLambda)
			r.div = &divAnswer{}
			g := diversify.Greedy(dq, divK, w.divSolver(init, dq, q.r, r), divPasses)
			r.div.set, r.div.objective = g.Set, g.Objective
			r.stats = g.Stats
			return
		}
		var p core.Processor
		switch q.fam {
		case "topk":
			p = &topk.Processor{F: topk.Linear{Weights: q.weights}, K: resultK}
		case "skyline":
			box := q.box
			p = &skyline.Processor{Constraint: &box}
		case "knn":
			p = &knn.Processor{Center: q.center, K: resultK, Metric: geom.L2}
		}
		res := w.runOpts(init, p, q.r)
		r.stats, r.maxPerPeer = res.Stats, res.Stats.MaxPerPeer()
		r.answer = final(q, res.Answers)
	})
}

// runOpts is the engine entry point every read goes through, timed as the
// core layer when tracing.
func (w *engineWorkload) runOpts(init overlay.Node, p core.Processor, r int) *core.Result {
	opts := core.Options{Storage: storage.KindRTree}
	if w.tr == nil || !w.tr.on.Load() {
		return core.RunOpts(init, p, r, opts)
	}
	id, prev, start := w.tr.open()
	res := core.RunOpts(init, wrapProc(p, w.tr), r, opts)
	w.tr.close("core.run", id, prev, start)
	return res
}

// divSolver is diversify.NewRippleSolver routed through runOpts, so the
// single-tuple queries are timed like every other read, each one's
// exactly-once delivery is checked, and each step is kept for the oracle.
// The selection below is RunSingle's.
func (w *engineWorkload) divSolver(init overlay.Node, q diversify.Query, r int, out *rec) diversify.SingleSolver {
	return func(base []dataset.Tuple, exclude map[uint64]bool, tau float64) (*dataset.Tuple, sim.Stats) {
		res := w.runOpts(init, &diversify.Processor{Query: q, Base: base, Exclude: exclude, Tau0: tau}, r)
		if m := res.Stats.MaxPerPeer(); m > out.maxPerPeer {
			out.maxPerPeer = m
		}
		var best *dataset.Tuple
		bestScore := math.Inf(1)
		for i := range res.Answers {
			t := &res.Answers[i]
			s := q.Phi(t.Vec, base)
			if s < bestScore || (s == bestScore && best != nil && t.ID < best.ID) {
				best, bestScore = t, s
			}
		}
		if best != nil && bestScore >= tau {
			best = nil
		}
		ex := make(map[uint64]bool, len(exclude))
		for id := range exclude {
			ex[id] = true
		}
		out.div.steps = append(out.div.steps, divStep{append([]dataset.Tuple(nil), base...), ex, tau, best})
		return best, res.Stats
	}
}
