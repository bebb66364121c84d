package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/geom"
	"ripple/internal/knn"
	"ripple/internal/metrics"
	"ripple/internal/midas"
	"ripple/internal/plan"
	"ripple/internal/skyline"
	"ripple/internal/storage"
	"ripple/internal/topk"
)

// smallQueries is a mixed read list for the small fleets of these tests.
func smallQueries(seed int64, r int) []*query {
	rng := rand.New(rand.NewSource(seed))
	var qs []*query
	for i := 0; i < 24; i++ {
		qs = append(qs, newQuery(rng, families[i%len(families)], r))
	}
	return qs
}

// fleetOutcome is everything a read returns that a wrapper could perturb.
type fleetOutcome struct {
	answers   []string
	decisions []int64
}

func runSmallFleet(t *testing.T, tr *tracer) fleetOutcome {
	t.Helper()
	data := dataset.Synth(dataset.SynthConfig{N: 3000, Dims: dims, Skew: dataSkew, Seed: 5})
	f, err := deployFleet(data, 5, fleetCfg{peers: 16, replication: 1, planner: true}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if tr != nil {
		tr.on.Store(true)
	}
	var out fleetOutcome
	for _, r := range []int{plan.RAuto, 0, 2, plan.RSlow, plan.RAuto} {
		for i, q := range smallQueries(9, r) {
			res, err := f.read(q, i%len(f.servers))
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			out.answers = append(out.answers, fmt.Sprintf("%v|%d %d %d %d|%s %d",
				res.Answers, s.Latency, s.QueryMsgs, s.StateMsgs, s.TuplesSent, res.Plan, res.PlanR))
		}
	}
	for _, m := range []string{"fast", "ripple", "slow"} {
		out.decisions = append(out.decisions, f.reg.Counter(metrics.Label("ripple_plan_decisions_total", "mode", m), "").Value())
	}
	return out
}

// TestWrappedFleetMatchesUnwrapped: the timing wrappers the traced run
// installs leave a planned fleet's answers, cost counters and planner
// decisions byte-identical.
func TestWrappedFleetMatchesUnwrapped(t *testing.T) {
	plain := runSmallFleet(t, nil)
	tr := newTracer()
	wrapped := runSmallFleet(t, tr)
	if !reflect.DeepEqual(plain.answers, wrapped.answers) {
		for i := range plain.answers {
			if plain.answers[i] != wrapped.answers[i] {
				t.Fatalf("read %d differs:\n plain   %s\n wrapped %s", i, plain.answers[i], wrapped.answers[i])
			}
		}
	}
	if !reflect.DeepEqual(plain.decisions, wrapped.decisions) {
		t.Fatalf("planner decisions differ: plain %v wrapped %v", plain.decisions, wrapped.decisions)
	}
	if plain.decisions[0]+plain.decisions[1]+plain.decisions[2] == 0 {
		t.Fatal("the planner made no decisions; the test exercises nothing")
	}
	if tr.total("wire.params_decode").n == 0 || tr.total("storage.local_state").n == 0 {
		t.Fatal("the wrappers recorded no spans")
	}
}

// TestWrappedEngineMatchesUnwrapped: the same for core.RunOpts with a
// planner resolving r=auto, which type-asserts plan.Hinter on the processor.
func TestWrappedEngineMatchesUnwrapped(t *testing.T) {
	data := dataset.Synth(dataset.SynthConfig{N: 4000, Dims: dims, Skew: dataSkew, Seed: 6})
	net := midas.BuildWithData(64, midas.Options{Dims: dims, Seed: 6, Storage: storage.KindRTree}, data)
	nodes := net.Nodes()
	procs := func(q *query) core.Processor {
		switch q.fam {
		case "topk":
			return &topk.Processor{F: topk.Linear{Weights: q.weights}, K: resultK}
		case "skyline":
			box := q.box
			return &skyline.Processor{Constraint: &box}
		}
		return &knn.Processor{Center: q.center, K: resultK, Metric: geom.L2}
	}
	run := func(tr *tracer) ([]string, []int64) {
		reg := metrics.New()
		opts := core.Options{Storage: storage.KindRTree, Planner: plan.New(plan.Options{Metrics: reg})}
		var out []string
		for i, q := range smallQueries(3, plan.RAuto) {
			p := procs(q)
			if tr != nil {
				p = wrapProc(p, tr)
			}
			res := core.RunOpts(nodes[i*7%len(nodes)], p, q.r, opts)
			out = append(out, fmt.Sprintf("%v|%s|%v", final(q, res.Answers), res.Stats.String(), res.Plan))
		}
		var dec []int64
		for _, m := range []string{"fast", "ripple", "slow"} {
			dec = append(dec, reg.Counter(metrics.Label("ripple_plan_decisions_total", "mode", m), "").Value())
		}
		return out, dec
	}
	tr := newTracer()
	tr.on.Store(true)
	a, da := run(nil)
	b, db := run(tr)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(da, db) {
		t.Fatalf("wrapped engine run differs:\n%v %v\n%v %v", a, da, b, db)
	}
}

// TestDivSolverMatchesLibrary: the benchmark's diversification solver, which
// routes single-tuple queries through the timed entry point, yields the same
// greedy result as diversify.NewRippleSolver, traced or not.
func TestDivSolverMatchesLibrary(t *testing.T) {
	data := dataset.Synth(dataset.SynthConfig{N: 4000, Dims: dims, Skew: dataSkew, Seed: 8})
	net := midas.BuildWithData(64, midas.Options{Dims: dims, Seed: 8, Storage: storage.KindRTree}, data)
	tr := newTracer()
	w := &engineWorkload{data: data, nodes: net.Nodes(), tr: tr}
	rng := rand.New(rand.NewSource(2))
	for i, r := range radii {
		q := newQuery(rng, "diversify", r)
		dq := diversify.NewQuery(q.center, divLambda)
		init := w.nodes[i*11]
		lib := diversify.Greedy(dq, divK, diversify.NewRippleSolver(init, dq, r), divPasses)
		for _, on := range []bool{false, true} {
			tr.on.Store(on)
			out := &rec{div: &divAnswer{}}
			got := diversify.Greedy(dq, divK, w.divSolver(init, dq, r, out), divPasses)
			if !reflect.DeepEqual(lib.Set, got.Set) || lib.Objective != got.Objective || lib.Stats.String() != got.Stats.String() {
				t.Fatalf("r=%d traced=%v: solver differs from the library's", r, on)
			}
			for j, s := range out.div.steps {
				if !divStepOK(q, data, s) {
					t.Fatalf("r=%d step %d is not a brute-force minimiser", r, j)
				}
			}
		}
	}
}

// TestOracleMatchesBrute: the prefiltered oracles equal the packages' own
// brute-force answers, ties and scopes included.
func TestOracleMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ts := dataset.Uniform(2000, dims, 4)
	for i := 0; i < 300; i++ { // duplicated coordinates make exact ties
		ts = append(ts, dataset.Tuple{ID: uint64(5000 + i), Vec: ts[i%40].Vec})
	}
	for i := 0; i < 60; i++ {
		q := newQuery(rng, families[i%len(families)], 0)
		if i%2 == 1 {
			q.scope = randScope(rng)
		}
		in := inScope(ts, q)
		var want []dataset.Tuple
		switch q.fam {
		case "topk":
			want = topk.Brute(in, topk.Linear{Weights: q.weights}, resultK)
		case "knn":
			want = knn.Brute(in, q.center, resultK, geom.L2)
		case "skyline":
			want = byID(skyline.ComputeConstrained(in, q.box))
		}
		if got := oracle(q, ts); !sameAnswer(got, want) {
			t.Fatalf("query %d (%s): oracle %v, brute force %v", i, q.class(), got, want)
		}
	}
}

// TestStreamDeterminism: a seed fixes the data and every operation stream;
// another seed changes them.
func TestStreamDeterminism(t *testing.T) {
	live := make([]int, fleetPeers)
	for i := range live {
		live[i] = i
	}
	streams := func(seed int64) string {
		d := newDigest()
		for c := 0; c <= closedClients; c++ {
			s := newMixedStream(seed, c, live)
			for i := 0; i < 512; i++ {
				d.op(s.next())
			}
		}
		z := newZipfStream(seed, []int{3, 9})
		for i := 0; i < 2048; i++ {
			d.op(z.next())
		}
		for _, o := range engineOps(seed, enginePeers) {
			d.op(o)
		}
		return d.sum()
	}
	if a, b := streams(7), streams(7); a != b {
		t.Fatalf("seed 7 gave two streams: %s vs %s", a, b)
	}
	if a, b := streams(7), streams(8); a == b {
		t.Fatalf("seeds 7 and 8 gave the same stream %s", a)
	}

}

// TestEnginePaperCountsDeterministic: two independent set-ups from one seed
// report identical paper counts on engine-paper, and every answer checks.
func TestEnginePaperCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 1,024-peer overlay twice")
	}
	// Any fixed prefix shows it; runs use the first enginePaper queries.
	counts := func() [3]float64 {
		w := newEngineWorkload(21, nil)
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		var recs []rec
		for _, o := range w.ops[:96] {
			recs = append(recs, w.do(o))
		}
		if v := w.check(recs); v.failed() != 0 {
			t.Fatalf("engine-paper check failed: %s", v.first)
		}
		var c [3]float64
		for _, r := range recs {
			c[0] += float64(r.stats.QueryMsgs + r.stats.StateMsgs)
			c[1] += float64(r.stats.Latency)
			c[2] += float64(r.stats.TuplesSent)
		}
		return c
	}
	if a, b := counts(), counts(); a != b {
		t.Fatalf("msgs/hops/tuples differ between runs of one seed: %v vs %v", a, b)
	}
}
