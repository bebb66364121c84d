package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ripple/internal/dataset"
	"ripple/internal/faults"
	"ripple/internal/midas"
	"ripple/internal/netpeer"
	"ripple/internal/overlay"
	"ripple/internal/topk"
)

// throughputWindow is how long each concurrency cell measures: long enough
// that hundreds of queries complete even at concurrency 1, short enough that
// the whole sweep stays interactive.
const throughputWindow = 400 * time.Millisecond

// throughputDelay is the injected wall-clock stall per inter-peer RPC. On
// loopback an RPC costs microseconds, so an undelayed sweep would measure
// CPU dispatch, not transport behaviour; the delay restores the property
// that matters on a real network — a query spends most of its life waiting
// on links — and the sweep shows how much of that waiting the transport
// overlaps across concurrent queries.
const throughputDelay = 500 * time.Microsecond

// Throughput measures aggregate query throughput and tail latency of a real
// loopback deployment as client concurrency grows. One warm client is shared
// by all workers of a cell, so the sweep isolates what the multiplexed
// transport does with concurrent calls: it interleaves them as streams on
// one connection.
func Throughput(cfg Config) *Result {
	res := &Result{
		Fig:    "Throughput",
		Title:  "aggregate throughput vs client concurrency (loopback TCP, 8 peers, 0.5ms link delay)",
		XLabel: "concurrency",
		Series: []string{"ripple-mux"},

		MetricA: "throughput (queries/s)",
		MetricB: "p95 latency (ms)",
	}
	for i, cell := range throughputSeries(cfg.Concurrency) {
		res.Rows = append(res.Rows, Row{
			X:          fmt.Sprintf("%d", cfg.Concurrency[i]),
			Latency:    []float64{cell.qps},
			Congestion: []float64{cell.p95ms},
		})
	}
	return res
}

type throughputCell struct {
	qps   float64
	p95ms float64
}

// throughputSeries deploys one loopback fleet and measures every
// concurrency level against it.
func throughputSeries(concurrency []int) []throughputCell {
	net := midas.Build(8, midas.Options{Dims: 2, Seed: 23})
	overlay.Load(net, dataset.Uniform(500, 2, 29))
	opts := netpeer.Options{
		Logf: func(string, ...interface{}) {},
		Faults: faults.New(faults.Config{
			Seed:      1,
			DelayRate: 1,
			Delay:     throughputDelay,
		}),
	}
	servers, _, err := netpeer.DeployOpts(net, opts, topk.WireCodec{})
	if err != nil {
		panic(err) // loopback deploy failing is a harness bug, not a result
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	params, err := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(2), 32)
	if err != nil {
		panic(err)
	}

	cells := make([]throughputCell, 0, len(concurrency))
	for _, conc := range concurrency {
		c := netpeer.NewClient(servers[0].Addr(), 0)
		if _, _, err := c.Query("topk", params, 2, 0); err != nil {
			panic(err)
		}
		durations := make([][]time.Duration, conc)
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(throughputWindow)
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					t0 := time.Now()
					if _, _, err := c.Query("topk", params, 2, 0); err != nil {
						return // surfaces as a missing worker's worth of QPS
					}
					durations[w] = append(durations[w], time.Since(t0))
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		c.Close()

		var all []time.Duration
		for _, d := range durations {
			all = append(all, d...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		cell := throughputCell{}
		if len(all) > 0 {
			cell.qps = float64(len(all)) / elapsed.Seconds()
			cell.p95ms = float64(all[len(all)*95/100].Nanoseconds()) / 1e6
		}
		cells = append(cells, cell)
	}
	return cells
}
