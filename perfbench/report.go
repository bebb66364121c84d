package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ripple/internal/metrics"
	"ripple/internal/plan"
	"ripple/internal/storage"
	"ripple/internal/wire"
)

// Latency limits behind slo_miss_frac.
const (
	readSLO  = 50 * time.Millisecond
	writeSLO = 250 * time.Millisecond
)

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// endToEnd adds the user-visible figures of one untraced phase. Metrics with
// an empty unit are printed for people but left out of the JSON line: most
// are zero on most workloads by design (failures, partial answers, writes on
// read-only workloads), and their guard is the run's correct/failed fields.
// read_p99_ms is printed only because on tcp-zipf-rw it is set by the few
// reads that coincide with a write's invalidation flood, and moved between
// 11 and 28 ms from run to run on one seed; read_p95_ms carries the tail.
func endToEnd(res *result, p phase, v *verdict, cpu time.Duration) {
	var reads, writes, hit, miss []float64
	var msgs, hops, tuples, counted float64
	slo := 0
	for i := range p.recs {
		r := &p.recs[i]
		lat := r.latency()
		failed := r.err != nil || v.wrong[r]
		if r.op.kind != opRead {
			if r.err == nil {
				writes = append(writes, ms(lat))
			}
			if failed || lat > writeSLO {
				slo++
			}
			continue
		}
		if failed || lat > readSLO {
			slo++
		}
		if r.err != nil {
			continue
		}
		reads = append(reads, ms(lat))
		if r.res != nil && r.res.CacheHit {
			hit = append(hit, ms(lat))
		} else if r.res != nil {
			miss = append(miss, ms(lat))
		}
		if p.paper == 0 || i < p.paper {
			counted++
			msgs += float64(r.stats.QueryMsgs + r.stats.StateMsgs)
			hops += float64(r.stats.Latency)
			tuples += float64(r.stats.TuplesSent)
		}
	}
	if len(hit) > 0 {
		res.info = append(res.info, fmt.Sprintf("cache hits %d of %d reads; p50 hit %.3fms, miss %.3fms", len(hit), len(hit)+len(miss), median(hit), median(miss)))
	}
	n := counted
	if n == 0 {
		n = math.NaN()
	}
	att := float64(v.attempted)
	qps := float64(len(reads)) / p.elapsed.Seconds()
	p50 := median(reads)
	cpuPerOp := ms(cpu) / att
	how := "whole run"
	if wq, wp, wc := windowMedians(p); len(wq) > 0 {
		qps, p50, cpuPerOp = median(wq), median(wp), median(wc)
		how = fmt.Sprintf("median of %d windows", len(wq))
	}
	res.add("qps", qps, "1/s", fmt.Sprintf("reads/s, %s; %d reads in %.2fs", how, len(reads), p.elapsed.Seconds()))
	res.add("read_p50_ms", p50, "ms", fmt.Sprintf("%s, n=%d", how, len(reads)))
	res.add("read_p95_ms", quantile(reads, 0.95), "ms", fmt.Sprintf("whole run, n=%d", len(reads)))
	over := fmt.Sprintf("over %.0f reads", counted)
	res.add("msgs_per_query", msgs/n, "count", "query+state messages per read, cache hits count 0, "+over)
	res.add("hops_per_query", hops/n, "count", "Stats.Latency, "+over)
	res.add("tuples_per_query", tuples/n, "count", "Stats.TuplesSent, "+over)
	res.add("cpu_ms_per_op", cpuPerOp, "ms", fmt.Sprintf("process user+sys, %s", how))
	res.metrics = append(res.metrics,
		metric{"read_p99_ms", quantile(reads, 0.99), "", fmt.Sprintf("ms, whole run, n=%d", len(reads))},
		metric{"write_p50_ms", quantile(writes, 0.5), "", fmt.Sprintf("ms n=%d", len(writes))},
		metric{"write_p99_ms", quantile(writes, 0.99), "", fmt.Sprintf("ms n=%d", len(writes))},
		metric{"failed_frac", float64(v.failed()) / att, "", fmt.Sprintf("ratio %d/%d", v.failed(), v.attempted)},
		metric{"slo_miss_frac", float64(slo) / att, "", fmt.Sprintf("ratio, limits %v read / %v write", readSLO, writeSLO)},
		metric{"partial_frac", float64(v.partial) / math.Max(1, float64(v.reads)), "", fmt.Sprintf("ratio %d/%d", v.partial, v.reads)},
	)
}

// windowMedians returns per-window read throughput, median read latency and
// CPU per op, over the windows at least half a windowEvery long. Medians over
// windows keep a burst of load from other tenants of the machine from moving
// a run's figure.
func windowMedians(p phase) (qps, p50, cpuPerOp []float64) {
	for _, w := range p.windows() {
		d := w.to.t.Sub(w.from.t)
		if d < windowEvery/2 || len(w.recs) == 0 {
			continue
		}
		var lat []float64
		for _, r := range w.recs {
			if r.op.kind == opRead && r.err == nil {
				lat = append(lat, ms(r.latency()))
			}
		}
		qps = append(qps, float64(len(lat))/d.Seconds())
		p50 = append(p50, median(lat))
		cpuPerOp = append(cpuPerOp, ms(w.to.cpu-w.from.cpu)/float64(len(w.recs)))
	}
	return qps, p50, cpuPerOp
}

// regSample is a point-in-time reading of the fleet's registry and the Go
// runtime, differenced across the own-load phase.
type regSample struct {
	counters map[string]float64
	mem      runtime.MemStats
}

var (
	sampledCounters = []string{
		"ripple_netpeer_overload_rejections_total",
		"ripple_netpeer_dials_total",
		"ripple_netpeer_retries_total",
		"ripple_netpeer_replica_failovers_total",
		"ripple_netpeer_recovered_regions_total",
		"ripple_netpeer_unrecoverable_regions_total",
		"ripple_cache_hits_total",
		"ripple_cache_misses_total",
		"ripple_cache_invalidations_total",
		"ripple_cache_evictions_total",
		metrics.Label("ripple_plan_decisions_total", "mode", "fast"),
		metrics.Label("ripple_plan_decisions_total", "mode", "ripple"),
		metrics.Label("ripple_plan_decisions_total", "mode", "slow"),
	}
	sampledHistograms = []string{
		"ripple_netpeer_rpc_seconds",
		"ripple_netpeer_queue_wait_seconds",
		"ripple_netpeer_fanout",
		"ripple_netpeer_recovery_seconds",
	}
)

func sample(w workload) regSample {
	s := regSample{counters: make(map[string]float64)}
	if t, ok := w.(*tcpWorkload); ok {
		reg := t.f.reg
		for _, n := range sampledCounters {
			s.counters[n] = float64(reg.Counter(n, "").Value())
		}
		for _, n := range sampledHistograms {
			h := reg.Histogram(n, "", metrics.DefLatencyBuckets)
			s.counters[n+"_count"] = float64(h.Count())
			s.counters[n+"_sum"] = h.Sum()
		}
		s.counters["ripple_cache_bytes"] = float64(reg.Gauge("ripple_cache_bytes", "").Value())
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func countReads(p phase) (reads, writes int, acks float64) {
	for _, r := range p.recs {
		if r.err != nil {
			continue
		}
		if r.op.kind == opRead {
			reads++
		} else {
			writes++
			acks += float64(r.acks)
		}
	}
	return reads, writes, acks
}

// perLayer adds the per-layer figures of a traced invocation: registry,
// runtime and load-generator figures from the own-load phase a, span
// figures from the traced serial phase c, and the tracing overhead of c
// against the untraced serial phase b. Values are per read unless the note
// says total.
func perLayer(res *result, w workload, tr *tracer, a, b, c phase, before, after regSample) {
	readsA, writesA, acks := countReads(a)
	readsC, _, _ := countReads(c)
	rA, rC := float64(readsA), float64(readsC)
	d := func(n string) float64 { return after.counters[n] - before.counters[n] }
	us := func(name string) float64 { return float64(tr.total(name).ns) / 1e3 / math.Max(1, rC) }

	// wire: codec wrapper spans, plus a replay of the root replies.
	replyBytes, replyDecode := replyReplay(c)
	res.add("wire.params_decode_us", us("wire.params_decode"), "us", "per read")
	res.add("wire.state_encode_us", us("wire.state_encode"), "us", "per read")
	res.add("wire.state_decode_us", us("wire.state_decode"), "us", "per read")
	res.add("wire.state_bytes", float64(tr.total("wire.state_encode").bytes)/math.Max(1, rC), "bytes", "per read")
	res.add("wire.reply_bytes", replyBytes, "bytes", "per read, root reply replayed through wire.WriteMessage")
	res.add("wire.reply_decode_us", replyDecode, "us", "per read, wire.ReadMessage of the replayed root reply")

	// storage and proc: the timed processor.
	ls, la := tr.total("storage.local_state"), tr.total("storage.local_answer")
	res.add("storage.local_state_us", us("storage.local_state"), "us", "per read")
	res.add("storage.local_answer_us", us("storage.local_answer"), "us", "per read")
	res.add("storage.calls", float64(ls.n+la.n)/math.Max(1, rC), "count", "per read")
	res.add("proc.merge_us", us("proc.merge"), "us", "per read")
	res.add("proc.global_us", us("proc.global"), "us", "per read")
	checks := float64(tr.checks.Load())
	res.add("proc.link_checks", checks/math.Max(1, rC), "count", "per read")
	res.add("proc.prune_frac", ratio(float64(tr.pruned.Load()), checks), "ratio", "links judged irrelevant / links checked")

	// core: RunOpts self time (the engine is single-threaded, so its child
	// spans never overlap and their sum is the part they cover).
	self := 0.0
	if run := tr.total("core.run"); run.n > 0 {
		kids := int64(0)
		for _, n := range []string{"storage.local_state", "storage.local_answer", "proc.merge", "proc.global", "proc.link"} {
			kids += tr.total(n).ns
		}
		self = float64(run.ns-kids) / 1e3 / math.Max(1, rC)
	}
	res.add("core.self_us", self, "us", "per read, RunOpts wall time minus wrapped processor time (engine)")
	maxPer := 0
	for _, p := range []phase{a, b, c} {
		for _, r := range p.recs {
			if r.maxPerPeer > maxPer {
				maxPer = r.maxPerPeer
			}
		}
	}
	res.add("core.max_per_peer", float64(maxPer), "count", "max over all reads; 1 is exactly-once")

	// netpeer: the registry, over the own-load phase.
	rpcs := d("ripple_netpeer_rpc_seconds_count")
	res.add("netpeer.rpcs", rpcs/math.Max(1, rA), "count", "per read, RPC attempts")
	res.add("netpeer.rpc_ms_mean", 1e3*ratio(d("ripple_netpeer_rpc_seconds_sum"), rpcs), "ms", "per RPC attempt")
	res.add("netpeer.queue_wait_us_mean", 1e6*ratio(d("ripple_netpeer_queue_wait_seconds_sum"), d("ripple_netpeer_queue_wait_seconds_count")), "us", "per admitted call")
	res.add("netpeer.fanout_mean", ratio(d("ripple_netpeer_fanout_sum"), d("ripple_netpeer_fanout_count")), "count", "links contacted per processed call")
	res.add("netpeer.overload_rejections", d("ripple_netpeer_overload_rejections_total"), "count", "total")
	res.add("netpeer.dials", d("ripple_netpeer_dials_total"), "count", "total, after warm-up")
	res.add("netpeer.retries", d("ripple_netpeer_retries_total")/math.Max(1, rA), "count", "per read")
	res.add("netpeer.failovers", d("ripple_netpeer_replica_failovers_total")/math.Max(1, rA), "count", "per read")
	res.add("netpeer.recovered", d("ripple_netpeer_recovered_regions_total")/math.Max(1, rA), "count", "per read")
	res.add("netpeer.recovery_ms_mean", 1e3*ratio(d("ripple_netpeer_recovery_seconds_sum"), d("ripple_netpeer_recovery_seconds_count")), "ms", "per recovered region")
	res.add("netpeer.unrecoverable", d("ripple_netpeer_unrecoverable_regions_total"), "count", "total")

	// faults: every RPC attempt of a delayed fleet stalls for the delay.
	delay := 0.0
	if t, ok := w.(*tcpWorkload); ok && t.cfg().delay > 0 {
		delay = rpcs * ms(t.cfg().delay) / math.Max(1, rA)
	}
	res.add("faults.delay_ms_per_query", delay, "ms", "per read, delayed RPCs x delay (write RPCs included)")

	// cache.
	hits, misses := d("ripple_cache_hits_total"), d("ripple_cache_misses_total")
	res.add("cache.hit_frac", ratio(hits, hits+misses), "ratio", "initiator lookups")
	res.add("cache.invalidations_per_write", ratio(d("ripple_cache_invalidations_total"), float64(writesA)), "count", "per write")
	res.add("cache.evictions", d("ripple_cache_evictions_total"), "count", "total")
	res.add("cache.bytes", after.counters["ripple_cache_bytes"], "bytes", "total, end of phase")

	// plan.
	modes := map[string]float64{}
	total := 0.0
	for _, m := range []string{"fast", "ripple", "slow"} {
		modes[m] = d(metrics.Label("ripple_plan_decisions_total", "mode", m))
		total += modes[m]
	}
	res.add("plan.fast_frac", ratio(modes["fast"], total), "ratio", "planner decisions")
	res.add("plan.ripple_frac", ratio(modes["ripple"], total), "ratio", "planner decisions")
	res.add("plan.slow_frac", ratio(modes["slow"], total), "ratio", "planner decisions")
	res.add("plan.choose_us", chooseReplay(planQueries(w, a)), "us", "per call, Planner.Choose replayed on the run's query descriptors")

	// mutate.
	res.add("mutate.acks_per_write", ratio(acks, float64(writesA)), "count", "per write; equals R")

	// runtime, over the own-load phase.
	ops := math.Max(1, float64(len(a.recs)))
	res.add("runtime.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/ops, "count", "per op")
	res.add("runtime.alloc_bytes_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/ops, "bytes", "per op")
	res.add("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), "count", "total")

	// loadgen.
	lag := make([]float64, len(a.lag))
	for i, l := range a.lag {
		lag[i] = ms(l)
	}
	half := len(lag) / 2
	res.add("loadgen.lag_p99_ms", quantile(lag, 0.99), "ms", fmt.Sprintf("open loop send lag, n=%d (0 for closed loops); first half %.3f, second half %.3f",
		len(lag), quantile(lag[:half], 0.99), quantile(lag[half:], 0.99)))
	res.add("loadgen.inflight_max", float64(a.inflightMax), "count", "ops")

	// bench: tracing overhead between the serial phases.
	nb, _, _ := countReads(b)
	nc, _, _ := countReads(c)
	qb, qc := float64(nb)/b.elapsed.Seconds(), float64(nc)/c.elapsed.Seconds()
	res.add("bench.trace_overhead_frac", 1-ratio(qc, qb), "ratio", fmt.Sprintf("1 - traced/untraced serial qps (%.1f vs %.1f)", qc, qb))
}

// replyReplay rebuilds each traced read's root reply from its result and
// times wire.WriteMessage / wire.ReadMessage on it. The result does not
// expose the reply's Peers audit list, so the replay omits it.
func replyReplay(p phase) (bytesPerRead, decodeUS float64) {
	var total, n int
	var dec time.Duration
	var buf bytes.Buffer
	for _, r := range p.recs {
		if r.res == nil {
			continue
		}
		s := r.res.Stats
		reply := &wire.Reply{Answers: r.res.Answers, Completion: s.Latency, QueryMsgs: s.QueryMsgs,
			StateMsgs: s.StateMsgs, TuplesSent: s.TuplesSent, Partial: s.Partial,
			FailedRegions: r.res.FailedRegions, Failures: s.RPCFailures, Retries: s.Retries,
			TimedOut: s.TimedOut, Recovered: s.Recovered, Failovers: s.Failovers,
			CacheHit: r.res.CacheHit, Plan: r.res.Plan, PlanR: r.res.PlanR}
		buf.Reset()
		if err := wire.WriteMessage(&buf, reply); err != nil {
			continue
		}
		total += buf.Len()
		var back wire.Reply
		start := time.Now()
		if err := wire.ReadMessage(bytes.NewReader(buf.Bytes()), &back); err != nil {
			continue
		}
		dec += time.Since(start)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return float64(total) / float64(n), float64(dec.Nanoseconds()) / 1e3 / float64(n)
}

// planQueries describes a phase's reads the way the serving runtime
// describes them to its planner.
func planQueries(w workload, p phase) []plan.Query {
	var out []plan.Query
	for _, r := range p.recs {
		if r.op.kind != opRead {
			continue
		}
		q := plan.Query{Family: r.op.q.fam, Dims: dims}
		if q.Family != "skyline" {
			q.K = resultK
		}
		if q.Family == "diversify" {
			q.K = divK
		}
		switch t := w.(type) {
		case *tcpWorkload:
			q.Degree, q.Local = t.f.degree[r.op.entry], t.f.servers[r.op.entry].StorageStats()
		case *engineWorkload:
			n := t.nodes[r.op.entry]
			q.Degree, q.Local = len(n.Links()), storage.Of(n).Stats()
		}
		out = append(out, q)
	}
	return out
}

// chooseReplay times Planner.Choose over the descriptors on a fresh planner,
// cycling through them for at least 20,000 calls.
func chooseReplay(qs []plan.Query) float64 {
	if len(qs) == 0 {
		return 0
	}
	p := plan.New(plan.Options{})
	for _, q := range qs {
		p.Choose(q)
	}
	calls := 0
	start := time.Now()
	for calls < 20000 {
		for _, q := range qs {
			p.Choose(q)
		}
		calls += len(qs)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(calls)
}
