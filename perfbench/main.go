// Command perfbench is the repository's benchmark: four seeded workloads run
// against the real code through its public entry points, every answer checked
// against a brute-force oracle. See README.md.
//
//	perfbench --workload tcp-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 the per-layer metrics of a traced run. The last line of standard
// output is one JSON object; the lines before it are the same figures for
// people, with sample counts and provenance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one of the benchmark's seeded workloads.
type workload interface {
	// setup builds everything a run needs from the seed — data, overlay,
	// deployment — and warms lazy stores, connections and caches.
	setup() error
	close()
	// run drives the workload's own load, or one operation at a time when
	// serial, for d.
	run(serial bool, d time.Duration) phase
	// check compares the operations' outcomes against the oracles.
	check(recs []rec) *verdict
	// streamDigest fingerprints the generated data and operation stream.
	streamDigest() string
}

var workloadNames = []string{"tcp-mixed", "tcp-zipf-rw", "tcp-failover", "engine-paper"}

func newWorkload(name string, seed int64, tr *tracer) workload {
	if name == "engine-paper" {
		return newEngineWorkload(seed, tr)
	}
	return newTCPWorkload(name, seed, tr)
}

// setupRounds is how many times an untraced run sets up; setup_s is the
// median and the last set-up is the one measured.
const setupRounds = 3

func main() {
	name := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames)+" or all")
	seed := flag.Int64("seed", 1, "seed for data and operation streams")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	traceDir := flag.String("trace-dir", "", "directory the traced run's spans are written to (none when empty)")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !known(n) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", n, workloadNames)
			os.Exit(2)
		}
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	ok := true
	for _, n := range names {
		var res *result
		var err error
		if *traced == 1 {
			res, err = tracedRun(n, *seed, d, *traceDir)
		} else {
			res, err = untracedRun(n, *seed, d)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		res.print(n, *seed)
		ok = ok && res.correct
	}
	if !ok {
		os.Exit(1)
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func known(n string) bool {
	for _, k := range workloadNames {
		if k == n {
			return true
		}
	}
	return false
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or caveat, for the human-readable lines
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	info              []string // provenance and check details
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *result) print(workload string, seed int64) {
	fmt.Printf("# workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s storage=rtree transport=\"loopback TCP, in-process fleet\"\n",
		workload, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, l := range r.info {
		fmt.Println("#", l)
	}
	for _, m := range r.metrics {
		fmt.Printf("%-32s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm)
	for _, m := range r.metrics {
		if m.unit != "" {
			ms[m.name] = jm{m.value, m.unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(out))
}

// verdictInfo summarises a check for the human-readable lines.
func verdictInfo(v *verdict) []string {
	classes := make([]string, 0, len(v.classes))
	for c, n := range v.classes {
		classes = append(classes, fmt.Sprintf("%s:%d", c, n))
	}
	sort.Strings(classes)
	out := []string{fmt.Sprintf("check: attempted=%d reads=%d writes=%d checked=%d skipped_overlapping_write=%d errors=%d wrong=%d partial=%d",
		v.attempted, v.reads, v.writes, v.checked, v.skipped, v.errors, len(v.wrong), v.partial),
		fmt.Sprintf("checked per class: %v", classes)}
	if v.first != "" {
		out = append(out, "first failure: "+v.first)
	}
	return out
}

// untracedRun sets up setupRounds times, measures the last set-up's workload
// for d with tracing off, and checks every answer.
func untracedRun(name string, seed int64, d time.Duration) (*result, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if w != nil {
			w.close()
		}
		w = newWorkload(name, seed, nil)
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	heap := liveHeapMiB()

	cpu0 := cpuTime()
	p := w.run(false, d)
	cpu := cpuTime() - cpu0

	checkStart := time.Now()
	v := w.check(p.recs)
	res := &result{correct: v.failed() == 0, attempted: v.attempted, failed: v.failed()}
	res.info = append([]string{"stream digest " + w.streamDigest(),
		fmt.Sprintf("wall: set-ups %.2fs, measured %.2fs, check %.2fs", sum(setups), p.elapsed.Seconds(), time.Since(checkStart).Seconds())},
		verdictInfo(v)...)
	res.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	endToEnd(res, p, v, cpu)
	res.add("heap_live_mb", heap, "MiB", "after set-up and a forced GC")
	return res, nil
}

// tracedRun measures the workload three ways on one set-up: its own load
// untraced (registry, runtime and load-generator figures), then one
// operation at a time untraced and traced (the wrapper spans, and the
// tracing overhead between the two). The engine is serial already; its two
// serial phases replay the first phase's queries, so the overhead compares
// like with like.
func tracedRun(name string, seed int64, d time.Duration, dir string) (*result, error) {
	tr := newTracer()
	w := newWorkload(name, seed, tr)
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, err
	}
	slice := d / 3
	replay := func() {
		if e, ok := w.(*engineWorkload); ok {
			e.n = 0
		}
	}

	before := sample(w)
	a := w.run(false, slice)
	after := sample(w)
	replay()
	b := w.run(true, slice)
	replay()
	tr.on.Store(true)
	c := w.run(true, slice)
	tr.on.Store(false)
	all := append(append(append([]rec(nil), a.recs...), b.recs...), c.recs...)
	v := w.check(all)
	res := &result{correct: v.failed() == 0, attempted: v.attempted, failed: v.failed()}
	res.info = append([]string{"stream digest " + w.streamDigest(),
		fmt.Sprintf("phases: own load %d ops, serial untraced %d ops, serial traced %d ops (spans need one op in flight to know which op a call serves)",
			len(a.recs), len(b.recs), len(c.recs))}, verdictInfo(v)...)
	perLayer(res, w, tr, a, b, c, before, after)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.info = append(res.info, "spans written to "+path)
	}
	return res, nil
}
