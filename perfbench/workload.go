package main

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"

	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/overlay"
	"ripple/internal/plan"
	"ripple/internal/skyline"
	"ripple/internal/topk"
)

// Shared data and query shapes of every workload.
const (
	dims      = 3
	dataN     = 128000
	dataSkew  = 0.1
	resultK   = 10  // top-k and kNN result size
	divK      = 5   // k-diversification result size
	divLambda = 0.5 // relevance/diversity trade-off
	divPasses = 2   // greedy improvement passes
)

// radii are the ripple parameters static workloads cycle through: the fast
// extreme, one intermediate setting, and the slow extreme.
var radii = []int{0, 2, plan.RSlow}

// families are the wire query families every TCP fleet serves.
var families = []string{"topk", "skyline", "knn"}

// dataSeed fixes the dataset and the overlays built over it: they are the
// benchmark's catalogue, the same in every run, while --seed draws the
// traffic (queries, entry peers, writes). With per-seed data the per-query
// cost moved with the overlay's shape rather than with the code.
const dataSeed = 1

func genData() []dataset.Tuple {
	return dataset.Synth(dataset.SynthConfig{N: dataN, Dims: dims, Skew: dataSkew, Seed: dataSeed})
}

// query is one read: its family and ripple parameter, its wire parameters,
// and the plain description the oracle recomputes the answer from.
type query struct {
	fam     string
	r       int
	params  []byte // wire form; nil for diversify, which runs only in-process
	weights []float64
	box     geom.Rect
	center  geom.Point
	scope   overlay.Region // empty: the whole domain
}

func (q *query) class() string { return fmt.Sprintf("%s/r=%s", q.fam, rName(q.r)) }

func rName(r int) string {
	switch r {
	case plan.RSlow:
		return "slow"
	case plan.RAuto:
		return "auto"
	}
	return fmt.Sprint(r)
}

// newQuery draws a query of the given family from rng.
func newQuery(rng *rand.Rand, fam string, r int) *query {
	q := &query{fam: fam, r: r}
	var err error
	switch fam {
	case "topk":
		q.weights = make([]float64, dims)
		for i := range q.weights {
			q.weights[i] = 0.1 + 0.9*rng.Float64()
		}
		q.params, err = topk.WireCodec{}.EncodeParams(topk.Linear{Weights: q.weights}, resultK)
	case "skyline":
		lo, hi := make(geom.Point, dims), make(geom.Point, dims)
		for i := range lo {
			lo[i] = 0.7 * rng.Float64()
			hi[i] = lo[i] + 0.15 + 0.15*rng.Float64()
		}
		q.box = geom.Rect{Lo: lo, Hi: hi}
		q.params, err = skyline.WireCodec{}.EncodeParams(&q.box)
	case "knn":
		q.center = randPoint(rng)
		q.params, err = knn.WireCodec{}.EncodeParams(q.center, resultK, geom.L2)
	case "diversify":
		q.center = randPoint(rng)
	default:
		panic("unknown family " + fam)
	}
	if err != nil {
		panic(err) // every family above is wire-encodable by construction
	}
	return q
}

func randPoint(rng *rand.Rand) geom.Point {
	p := make(geom.Point, dims)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

// randScope draws a scope box with sides between 0.05 and 0.15.
func randScope(rng *rand.Rand) overlay.Region {
	lo, hi := make(geom.Point, dims), make(geom.Point, dims)
	for i := range lo {
		side := 0.05 + 0.1*rng.Float64()
		lo[i] = (1 - side) * rng.Float64()
		hi[i] = lo[i] + side
	}
	return overlay.FromRect(geom.Rect{Lo: lo, Hi: hi})
}

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// op is one client operation of a workload's seeded stream.
type op struct {
	id    int
	kind  opKind
	q     *query        // reads
	tuple dataset.Tuple // writes
	ref   int           // deletes: id of the insert whose tuple is removed
	entry int           // index of the peer the op is issued at
}

// digest accumulates an order-sensitive SHA-256 over generated inputs, so two
// runs can prove they replayed the identical data and operation stream.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64s(vs []float64) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) tuple(t dataset.Tuple) {
	d.u64(t.ID)
	d.f64s(t.Vec)
}

func (d *digest) op(o *op) {
	d.u64(uint64(o.id))
	d.u64(uint64(o.kind))
	d.u64(uint64(o.entry))
	d.u64(uint64(o.ref))
	d.tuple(o.tuple)
	if q := o.q; q != nil {
		d.h.Write([]byte(q.fam))
		d.u64(uint64(int64(q.r)))
		d.u64(uint64(len(q.params)))
		d.h.Write(q.params)
		d.f64s(q.center)
		for _, b := range q.scope.Boxes {
			d.f64s(b.Lo)
			d.f64s(b.Hi)
		}
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:8]) }

func dataDigest(ts []dataset.Tuple) string {
	d := newDigest()
	for _, t := range ts {
		d.tuple(t)
	}
	return d.sum()
}

// final reduces a runtime's candidate answers to the query's answer, the
// initiator's last step: topk.Select, knn.Select or the skyline merge.
func final(q *query, answers []dataset.Tuple) []dataset.Tuple {
	switch q.fam {
	case "topk":
		return topk.Select(answers, topk.Linear{Weights: q.weights}, resultK)
	case "knn":
		return knn.Select(answers, q.center, resultK, geom.L2)
	case "skyline":
		return byID(skyline.Compute(answers))
	}
	panic("final: family " + q.fam)
}

// oracle computes the exact answer of q over the tuple set ts by brute force.
// top-k and kNN prefilter to the tuples that tie or beat the k-th best value,
// which cannot change the result of the Select that follows, and keeps the
// per-answer check cheap enough to run on every sampled read.
func oracle(q *query, ts []dataset.Tuple) []dataset.Tuple {
	ts = inScope(ts, q)
	switch q.fam {
	case "topk":
		f := topk.Linear{Weights: q.weights}
		return topk.Select(prefilter(ts, func(p geom.Point) float64 { return -f.Score(p) }), f, resultK)
	case "knn":
		return knn.Select(prefilter(ts, func(p geom.Point) float64 { return geom.L2.Dist(q.center, p) }), q.center, resultK, geom.L2)
	case "skyline":
		return byID(skyline.ComputeConstrained(ts, q.box))
	}
	panic("oracle: family " + q.fam)
}

// inScope returns the tuples of ts inside q's scope (all of ts when the query
// is not scoped).
func inScope(ts []dataset.Tuple, q *query) []dataset.Tuple {
	if q.scope.IsEmpty() {
		return ts
	}
	var in []dataset.Tuple
	for _, t := range ts {
		if q.scope.Contains(t.Vec) {
			in = append(in, t)
		}
	}
	return in
}

// prefilter keeps the tuples whose cost (lower is better) is at most the
// resultK-th smallest cost.
func prefilter(ts []dataset.Tuple, cost func(geom.Point) float64) []dataset.Tuple {
	if len(ts) <= resultK {
		return ts
	}
	h := make(maxHeap, 0, resultK)
	for _, t := range ts {
		c := cost(t.Vec)
		if len(h) < resultK {
			heap.Push(&h, c)
		} else if c < h[0] {
			h[0] = c
			heap.Fix(&h, 0)
		}
	}
	var out []dataset.Tuple
	for _, t := range ts {
		if cost(t.Vec) <= h[0] {
			out = append(out, t)
		}
	}
	return out
}

type maxHeap []float64

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

func byID(ts []dataset.Tuple) []dataset.Tuple {
	out := append([]dataset.Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sameAnswer compares two answers tuple by tuple, IDs and coordinates.
func sameAnswer(a, b []dataset.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Vec.Equal(b[i].Vec) {
			return false
		}
	}
	return true
}

// divStepOK checks one single-tuple diversification step against the
// brute-force solver. Any tuple with the minimal φ is a correct answer: φ
// saturates at 0 on much of this data, and RIPPLE's pruning stops at the
// first tuple reaching the threshold, so it need not return the lowest-ID
// tuple among equals the brute-force solver picks. Greedy iterates may
// therefore diverge from a brute-force greedy run while every step is exact.
func divStepOK(q *query, ts []dataset.Tuple, s divStep) bool {
	dq := diversify.NewQuery(q.center, divLambda)
	want := diversify.BruteSingle(ts, dq, s.base, s.exclude, s.tau)
	if want == nil || s.got == nil {
		return want == nil && s.got == nil
	}
	if s.exclude[s.got.ID] {
		return false
	}
	for _, b := range s.base {
		if b.ID == s.got.ID {
			return false
		}
	}
	return dq.Phi(s.got.Vec, s.base) == dq.Phi(want.Vec, s.base)
}
