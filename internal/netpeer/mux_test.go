package netpeer

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gonet "net"

	"ripple/internal/core"
	"ripple/internal/dataset"
	"ripple/internal/faults"
	"ripple/internal/metrics"
	"ripple/internal/midas"
	"ripple/internal/overlay"
	"ripple/internal/topk"
	"ripple/internal/wire"
)

// slowCodec wraps the topk codec with a fixed processing delay, so tests can
// hold a server's mux workers busy for a deterministic window.
type slowCodec struct {
	topk.WireCodec
	delay time.Duration
}

func (c slowCodec) Name() string { return "slowtopk" }

func (c slowCodec) NewProcessor(params []byte) (core.Processor, error) {
	time.Sleep(c.delay) // runs inside process(), i.e. on a mux worker
	return c.WireCodec.NewProcessor(params)
}

// TestMuxConcurrentQueriesShareOneConnection: a mux client issues many
// queries at once; all must come back exact, multiplexed as streams over a
// single connection instead of serialised or spread over per-call dials.
func TestMuxConcurrentQueriesShareOneConnection(t *testing.T) {
	reg := metrics.New()
	ts := dataset.Uniform(600, 2, 41)
	net := midas.Build(24, midas.Options{Dims: 2, Seed: 7})
	overlay.Load(net, ts)
	opts := quietOpts(t)
	opts.Metrics = reg
	servers, _, err := DeployOpts(net, opts, topk.WireCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	f := topk.UniformLinear(2)
	params := topkParams(t, 2, 12)
	want := topk.Brute(ts, f, 12)

	c := NewClient(servers[3].Addr(), 5*time.Second)
	defer c.Close()
	const concurrency = 32
	errs := make([]error, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers, _, err := c.Query("topk", params, 2, 1<<20)
			if err != nil {
				errs[i] = err
				return
			}
			got := topk.Select(answers, f, 12)
			for j := range want {
				if got[j].ID != want[j].ID {
					errs[i] = errors.New("wrong answer under concurrency")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query %d: %v", i, err)
		}
	}
	if clientConn(c) == nil {
		t.Fatal("client holds no live connection after concurrent queries")
	}
	streams := reg.Counter("ripple_netpeer_mux_streams_total", "")
	if streams.Value() == 0 {
		t.Fatal("no inter-peer calls were multiplexed")
	}
	// The first round warmed every link: repeat queries ride the same peer
	// connections, dialling nothing new.
	dials := reg.Counter("ripple_netpeer_dials_total", "")
	warmDials, warmStreams := dials.Value(), streams.Value()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Query("topk", params, 2, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Value(); got != warmDials {
		t.Fatalf("repeat queries dialled %d fresh connections (total %d, warm %d)", got-warmDials, got, warmDials)
	}
	if streams.Value() == warmStreams {
		t.Fatal("repeat queries sent no streams")
	}
	// Every admitted stream must have been released.
	waitGaugeZero(t, reg.Gauge("ripple_netpeer_inflight_streams", ""))
}

// clientConn returns the client's settled, live connection to its peer, or
// nil when it holds none.
func clientConn(c *Client) *muxConn {
	tab := c.mux.Load()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	e := tab.conns[c.addr]
	if e == nil {
		return nil
	}
	select {
	case <-e.done:
		if e.err == nil && !e.mc.isDead() {
			return e.mc
		}
	default:
	}
	return nil
}

func waitGaugeZero(t *testing.T, g *metrics.Gauge) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if g.Value() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("inflight streams = %d, want 0 after quiescence", g.Value())
}

// slowServer starts a single mux peer running slowCodec with the given
// admission limits; it holds the whole domain and no links.
func slowServer(t *testing.T, reg *metrics.Registry, delay time.Duration, workers, queue int) *Server {
	t.Helper()
	opts := quietOpts(t)
	opts.Metrics = reg
	opts.MaxConcurrentCalls = workers
	opts.MaxCallQueue = queue
	srv := NewServerOpts(Config{
		ID:     "slow",
		Zone:   overlay.Whole(2),
		Tuples: dataset.Uniform(50, 2, 47),
	}, opts, slowCodec{delay: delay})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestMuxAdmissionControlSheds: with one worker and a one-slot queue, a
// burst of concurrent streams must see most calls rejected as typed
// overloads — immediately, not after stalling the socket — while the
// admitted ones succeed and the server stays healthy for later traffic.
func TestMuxAdmissionControlSheds(t *testing.T) {
	reg := metrics.New()
	srv := slowServer(t, reg, 80*time.Millisecond, 1, 1)
	params := topkParams(t, 2, 5)
	c := NewClient(srv.Addr(), 5*time.Second)
	defer c.Close()

	// Warm the connection so the burst races only against admission.
	if _, _, err := c.Query("slowtopk", params, 2, 0); err != nil {
		t.Fatal(err)
	}

	const burst = 8
	var ok, overloaded, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Query("slowtopk", params, 2, 0)
			var oe *OverloadError
			switch {
			case err == nil:
				ok.Add(1)
			case errors.As(err, &oe):
				overloaded.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("burst produced %d non-overload errors", other.Load())
	}
	if ok.Load() == 0 || overloaded.Load() == 0 {
		t.Fatalf("burst of %d: %d ok, %d overloaded — want both shedding and progress",
			burst, ok.Load(), overloaded.Load())
	}
	if v := reg.Counter("ripple_netpeer_overload_rejections_total", "").Value(); v != overloaded.Load() {
		t.Fatalf("overload counter %d, want %d", v, overloaded.Load())
	}
	// The server must shed load, not wedge: a follow-up query succeeds.
	if _, _, err := c.Query("slowtopk", params, 2, 0); err != nil {
		t.Fatalf("query after burst: %v", err)
	}
	waitGaugeZero(t, reg.Gauge("ripple_netpeer_inflight_streams", ""))
}

// TestMuxDeadConnectionFailsAllStreams: when the shared connection dies,
// every in-flight stream must fail promptly — not serialise into its own
// discovery of the corpse.
func TestMuxDeadConnectionFailsAllStreams(t *testing.T) {
	reg := metrics.New()
	srv := slowServer(t, reg, 300*time.Millisecond, 8, 8)
	params := topkParams(t, 2, 5)
	c := NewClient(srv.Addr(), 10*time.Second)
	defer c.Close()

	const streams = 4
	errs := make(chan error, streams)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Query("slowtopk", params, 2, 0)
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let all four streams get in flight
	srv.Close()
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("stream survived the server closing mid-call")
		}
	}
	// Four 300 ms calls serialised would take ≥1.2 s; concurrent failure is
	// bounded by one processing window plus teardown.
	if elapsed > time.Second {
		t.Fatalf("streams took %v to fail; a dead connection must fail them together", elapsed)
	}
}

// dropFirstHello listens on a fresh loopback address, drops the first
// connection once its hello arrives — a peer shutting down or restarting
// mid-handshake — and then stops listening, leaving the address free for a
// real Server. The returned channel closes once the address is free.
func dropFirstHello(t *testing.T) (string, <-chan struct{}) {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	free := make(chan struct{})
	go func() {
		defer close(free)
		if conn, err := ln.Accept(); err == nil {
			io.ReadFull(conn, make([]byte, 8))
			conn.Close()
		}
		ln.Close()
	}()
	return ln.Addr().String(), free
}

// startAt starts a single whole-domain peer on addr.
func startAt(t *testing.T, addr string, opts Options, ts []dataset.Tuple) *Server {
	t.Helper()
	srv := NewServerOpts(Config{ID: "b", Zone: overlay.Whole(2), Tuples: ts}, opts, topk.WireCodec{})
	if _, err := srv.Start(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestServerRedialsAfterDroppedHello: a neighbour that drops the hello is
// down, not of another protocol. Once a real peer listens at its address,
// the caller's next calls ride the mux — nothing pins the address to a
// fallback path.
func TestServerRedialsAfterDroppedHello(t *testing.T) {
	addr, free := dropFirstHello(t)
	reg := metrics.New()
	opts := quietOpts(t)
	opts.Metrics = reg
	caller := NewServerOpts(Config{ID: "a", Zone: overlay.Whole(2)}, opts, topk.WireCodec{})
	if _, err := caller.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	caller.SetLinks([]LinkSpec{{ID: "b", Addr: addr, Region: overlay.Whole(2)}})
	params := topkParams(t, 2, 5)

	res, err := QueryDetailed(caller.Addr(), "topk", params, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial() {
		t.Fatal("query through a hello-dropping neighbour was not partial")
	}
	<-free
	ts := dataset.Uniform(30, 2, 61)
	startAt(t, addr, quietOpts(t), ts)

	streams := reg.Counter("ripple_netpeer_mux_streams_total", "")
	before := streams.Value()
	want := topk.Brute(ts, topk.UniformLinear(2), 5)
	for i := 0; i < 3; i++ {
		res, err := QueryDetailed(caller.Addr(), "topk", params, 2, 0, 0)
		if err != nil {
			t.Fatalf("query %d after restart: %v", i, err)
		}
		got := topk.Select(res.Answers, topk.UniformLinear(2), 5)
		if res.Partial() || len(got) != len(want) || got[0].ID != want[0].ID {
			t.Fatalf("query %d after restart: partial=%v answers %v, want %v", i, res.Partial(), got, want)
		}
	}
	if v := streams.Value() - before; v != 3 {
		t.Fatalf("%d of 3 calls rode the mux after the neighbour came back", v)
	}
}

// TestClientRedialsAfterDroppedHello: the Client counterpart — a dropped
// hello fails that query only, and once a real peer listens at the address
// the client's queries arrive as mux streams (the peer's queue-wait
// histogram observes every admitted stream).
func TestClientRedialsAfterDroppedHello(t *testing.T) {
	addr, free := dropFirstHello(t)
	c := NewClient(addr, 2*time.Second)
	defer c.Close()
	params := topkParams(t, 2, 5)
	if _, _, err := c.Query("topk", params, 2, 0); err == nil {
		t.Fatal("query through a dropped hello succeeded")
	}
	<-free
	reg := metrics.New()
	opts := quietOpts(t)
	opts.Metrics = reg
	startAt(t, addr, opts, dataset.Uniform(30, 2, 61))

	for i := 0; i < 3; i++ {
		if _, _, err := c.Query("topk", params, 2, 0); err != nil {
			t.Fatalf("query %d after restart: %v", i, err)
		}
	}
	served := reg.Histogram("ripple_netpeer_queue_wait_seconds", "", metrics.DefLatencyBuckets)
	if v := served.Count(); v != 3 {
		t.Fatalf("peer served %d of 3 queries as mux streams", v)
	}
}

// TestExchangeRecoversStaleConn: a connection held across a callee restart is
// dead; the next call must detect it and complete on a fresh dial within the
// same attempt — no retry spent.
func TestExchangeRecoversStaleConn(t *testing.T) {
	srvB := NewServerOpts(Config{ID: "b", Zone: overlay.Whole(2)}, quietOpts(t), topk.WireCodec{})
	addr, err := srvB.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	opts := quietOpts(t)
	opts.Metrics = reg
	caller := NewServerOpts(Config{ID: "a", Zone: overlay.Whole(2)}, opts, topk.WireCodec{})
	defer caller.mux.close()
	link := LinkSpec{ID: "b", Addr: addr}
	call := buildCall("topk", topkParams(t, 2, 3), 2, 0, false, overlay.Region{})

	if _, retries, err := caller.callPeer(link, call); err != nil || retries != 0 {
		t.Fatalf("warm-up call: retries=%d err=%v", retries, err)
	}
	if err := srvB.Close(); err != nil {
		t.Fatal(err)
	}
	startAt(t, addr, quietOpts(t), nil)

	if _, retries, err := caller.callPeer(link, call); err != nil || retries != 0 {
		t.Fatalf("call across restart: retries=%d err=%v", retries, err)
	}
	if v := reg.Counter("ripple_netpeer_dials_total", "").Value(); v != 2 {
		t.Fatalf("dials = %d, want 2 (warm-up + recovery)", v)
	}
}

// TestClientReusesConnection: the initiator-side Client holds one warm
// connection across queries and recovers transparently when the peer
// restarts underneath it.
func TestClientReusesConnection(t *testing.T) {
	ts := dataset.Uniform(400, 2, 11)
	net := midas.Build(4, midas.Options{Dims: 2, Seed: 19})
	overlay.Load(net, ts)
	servers, _, err := DeployOpts(net, quietOpts(t), topk.WireCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	f := topk.UniformLinear(2)
	params := topkParams(t, 2, 6)
	want := topk.Brute(ts, f, 6)

	c := NewClient(servers[0].Addr(), 5*time.Second)
	defer c.Close()
	var warm *muxConn
	for i := 0; i < 3; i++ {
		answers, stats, err := c.Query("topk", params, 2, 1<<20)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		got := topk.Select(answers, f, 6)
		for j := range want {
			if got[j].ID != want[j].ID {
				t.Fatalf("query %d rank %d: %v, want %v", i, j, got[j], want[j])
			}
		}
		if stats.PeersReached() == 0 {
			t.Fatalf("query %d: bogus stats %+v", i, stats)
		}
		mc := clientConn(c)
		if mc == nil || (warm != nil && mc != warm) {
			t.Fatalf("query %d: client connection %p, want the warm %p", i, mc, warm)
		}
		warm = mc
	}

	// Restart the initiator peer on the same address: the client's warm
	// connection is now stale and the next query must redial transparently.
	addr := servers[0].Addr()
	if err := servers[0].Close(); err != nil {
		t.Fatal(err)
	}
	startAt(t, addr, quietOpts(t), nil)
	if _, _, err := c.Query("topk", params, 2, 0); err != nil {
		t.Fatalf("query across restart: %v", err)
	}
	if mc := clientConn(c); mc == nil || mc == warm {
		t.Fatal("client did not replace its stale connection")
	}
}

// TestOverloadErrorClassification: admission rejections must be typed as
// retryable OverloadErrors, not fatal RemoteErrors — the distinction is what
// lets callPeer back off and try again instead of abandoning the subtree.
func TestOverloadErrorClassification(t *testing.T) {
	err := replyErr("p3", &wire.Reply{Error: wire.Overloaded("queue full")})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("overloaded reply typed as %T", err)
	}
	if _, fatal := err.(*RemoteError); fatal {
		t.Fatal("overload classified as fatal RemoteError")
	}
	err = replyErr("p3", &wire.Reply{Error: "panic: boom"})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("processing failure typed as %T", err)
	}
}

// TestMuxOversizedFrameReportedOnStream: a stream whose frame exceeds
// MaxFrame gets the typed rejection back on that stream before the
// connection drops, instead of a silent hangup.
func TestMuxOversizedFrameReportedOnStream(t *testing.T) {
	srv := slowServer(t, nil, 0, 2, 2)
	conn, err := gonet.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := helloForTest(conn); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	// Hand-build a frame header claiming an over-limit body on stream 5.
	hdr := []byte{0, 0, 0, 5, 0xff, 0xff, 0xff, 0xff}
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	var reply wire.Reply
	stream, err := wire.ReadMuxFrame(conn, &reply)
	if err != nil {
		t.Fatalf("reading the rejection: %v", err)
	}
	if stream != 5 {
		t.Fatalf("rejection on stream %d, want 5", stream)
	}
	if reply.Error == "" || !errors.As(replyErr("x", &reply), new(*RemoteError)) {
		t.Fatalf("rejection reply: %+v", reply)
	}
}

// benchThroughput measures aggregate query throughput through one shared
// client at the given concurrency. Inter-peer links carry an injected
// wall-clock delay so a query costs latency, not just loopback CPU: the
// throughput gain under concurrency is then the transport's ability to
// overlap that latency across in-flight calls, which is what multiplexing
// buys on a real network.
func benchThroughput(b *testing.B, concurrency int) {
	net := midas.Build(8, midas.Options{Dims: 2, Seed: 23})
	overlay.Load(net, dataset.Uniform(500, 2, 29))
	opts := Options{
		Logf: func(string, ...interface{}) {},
		Faults: faults.New(faults.Config{
			Seed:      1,
			DelayRate: 1,
			Delay:     500 * time.Microsecond,
		}),
	}
	servers, _, err := DeployOpts(net, opts, topk.WireCodec{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	params, err := topk.WireCodec{}.EncodeParams(topk.UniformLinear(2), 32)
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(servers[0].Addr(), 0)
	defer c.Close()
	if _, _, err := c.Query("topk", params, 2, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, _, err := c.Query("topk", params, 2, 0); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Throughput tier: ns/op is aggregate wall time per completed query, so
// queries/s = 1e9 / (ns/op). The rows are committed in BENCH_PR5.json.
func BenchmarkMuxThroughputC1(b *testing.B)  { benchThroughput(b, 1) }
func BenchmarkMuxThroughputC8(b *testing.B)  { benchThroughput(b, 8) }
func BenchmarkMuxThroughputC64(b *testing.B) { benchThroughput(b, 64) }

// BenchmarkRoundTripPooled measures one full query round trip (r=1 over a
// small default-options fleet) through a warm Client. The name predates the
// mux, when it measured the connection pool; the row keeps its committed
// baseline.
func BenchmarkRoundTripPooled(b *testing.B) {
	net := midas.Build(8, midas.Options{Dims: 2, Seed: 23})
	overlay.Load(net, dataset.Uniform(500, 2, 29))
	servers, _, err := DeployOpts(net, Options{Logf: func(string, ...interface{}) {}}, topk.WireCodec{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	params, err := topk.WireCodec{}.EncodeParams(topk.UniformLinear(2), 32)
	if err != nil {
		b.Fatal(err)
	}
	c := NewClient(servers[0].Addr(), 0)
	defer c.Close()
	if _, _, err := c.Query("topk", params, 2, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Query("topk", params, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMuxVersionOneRejectedBothWays: version 1 framed gob bodies, and
// version 0 once acked "continue sequentially" — a protocol that no longer
// exists. A client acked either fails with the named *wire.VersionError, and
// a server offered either drops the connection without acking.
func TestMuxVersionOneRejectedBothWays(t *testing.T) {
	srv := slowServer(t, nil, 0, 2, 2)
	for _, ver := range []uint32{0, 1} {
		ln, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				if _, err := wire.ReadMuxHello(conn); err == nil {
					_ = wire.WriteMuxHello(conn, ver) // the client judges the ack
				}
				conn.Close()
			}
		}()
		c := NewClient(ln.Addr().String(), 2*time.Second)
		defer c.Close()
		_, _, err = c.Query("topk", topkParams(t, 2, 1), 2, 0)
		var verr *wire.VersionError
		if !errors.As(err, &verr) || verr.Version != ver {
			t.Fatalf("query against a version-%d peer: err = %v, want *wire.VersionError", ver, err)
		}

		conn, err := gonet.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.WriteMuxHello(conn, ver); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if got, err := wire.ReadMuxHello(conn); err == nil {
			t.Fatalf("server acked a version-%d hello with %d", ver, got)
		}
	}
}
