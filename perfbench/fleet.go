package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ripple/internal/dataset"
	"ripple/internal/faults"
	"ripple/internal/knn"
	"ripple/internal/metrics"
	"ripple/internal/midas"
	"ripple/internal/netpeer"
	"ripple/internal/plan"
	"ripple/internal/skyline"
	"ripple/internal/storage"
	"ripple/internal/topk"
	"ripple/internal/wire"
)

// fleetCfg shapes one in-process loopback TCP deployment.
type fleetCfg struct {
	peers       int
	replication int
	delay       time.Duration // injected stall on every RPC; 0 for none
	cacheBytes  int64
	planner     bool
}

// fleet is a deployed set of peers plus one warm client per peer. Every peer
// of a fleet shares one fresh metrics registry, cache budget and planner.
type fleet struct {
	servers []*netpeer.Server
	clients []*netpeer.Client
	degree  []int // link count per peer, for the planner replay
	reg     *metrics.Registry
	dead    int // index of the peer closed by the failover workload; -1 for none
}

func deployFleet(data []dataset.Tuple, seed int64, cfg fleetCfg, tr *tracer) (*fleet, error) {
	net := midas.BuildWithData(cfg.peers, midas.Options{Dims: dims, Seed: dataSeed, Storage: storage.KindRTree}, data)
	f := &fleet{reg: metrics.New(), dead: -1}
	opts := netpeer.Options{
		Logf:        func(string, ...interface{}) {},
		Metrics:     f.reg,
		Storage:     storage.KindRTree,
		CacheSize:   cfg.cacheBytes,
		Replication: cfg.replication,
	}
	if cfg.delay > 0 {
		opts.Faults = faults.New(faults.Config{Seed: seed, DelayRate: 1, Delay: cfg.delay})
	}
	if cfg.planner {
		opts.Planner = plan.New(plan.Options{Metrics: f.reg})
	}
	codecs := []wire.Codec{topk.WireCodec{}, skyline.WireCodec{}, knn.WireCodec{}}
	if tr != nil {
		codecs = wrapCodecs(tr, codecs)
	}
	servers, _, err := netpeer.DeployOpts(net, opts, codecs...)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	f.servers = servers
	for i, n := range net.Nodes() {
		f.degree = append(f.degree, len(n.Links()))
		f.clients = append(f.clients, netpeer.NewClient(servers[i].Addr(), 0))
	}
	return f, nil
}

func (f *fleet) close() {
	for i, c := range f.clients {
		c.Close()
		if i != f.dead {
			f.servers[i].Close()
		}
	}
}

// live lists the indices of the peers still serving.
func (f *fleet) live() []int {
	var out []int
	for i := range f.servers {
		if i != f.dead {
			out = append(out, i)
		}
	}
	return out
}

// kill closes one peer, the failover workload's injected failure.
func (f *fleet) kill(i int) {
	f.dead = i
	f.clients[i].Close()
	f.servers[i].Close()
}

// warm issues one query of every family from every live peer, two at a time,
// so client connections, peer-to-peer mux connections and stores are warm
// before timing. Any failure means a peer expected to be live is
// unreachable, and the run fails.
func (f *fleet) warm(seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var work []*op
	for _, i := range f.live() {
		for _, fam := range families {
			work = append(work, &op{kind: opRead, q: newQuery(rng, fam, 0), entry: i})
		}
	}
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < len(work); j += 2 {
				o := work[j]
				if _, err := f.read(o.q, o.entry); err != nil {
					errs <- fmt.Errorf("warm-up: peer %d unreachable: %w", o.entry, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// read issues one query at the given entry peer.
func (f *fleet) read(q *query, entry int) (*netpeer.QueryResult, error) {
	c := f.clients[entry]
	if q.scope.IsEmpty() {
		return c.QueryDetailed(q.fam, q.params, dims, q.r)
	}
	return c.QueryScoped(q.fam, q.params, dims, q.r, q.scope)
}
