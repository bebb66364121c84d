package netpeer

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"ripple/internal/dataset"
	"ripple/internal/faults"
	"ripple/internal/geom"
	"ripple/internal/midas"
	"ripple/internal/overlay"
	"ripple/internal/topk"
	"ripple/internal/wire"
)

// third returns the i-th vertical third of the unit square.
func third(i int) overlay.Region {
	return overlay.FromRect(geom.Rect{
		Lo: geom.Point{float64(i) / 3, 0},
		Hi: geom.Point{float64(i+1) / 3, 1},
	})
}

// tupleIn places a tuple in the middle of the i-th third.
func tupleIn(id uint64, i int, y float64) dataset.Tuple {
	return dataset.Tuple{ID: id, Vec: geom.Point{(float64(i) + 0.5) / 3, y}}
}

// hangListener accepts connections and never replies: a peer that dies
// mid-protocol, after the TCP handshake but before answering.
func hangListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				<-done
				conn.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// TestPeerHangsMidQuery deploys initiator A and live child B plus a
// hung pseudo-peer H that accepts the call and never replies. The query
// must return within the deadline budget (no hang), carry every tuple of
// the surviving peers, and report H's region as failed with the loss
// classified as a timeout.
func TestPeerHangsMidQuery(t *testing.T) {
	opts := Options{
		DialTimeout: 500 * time.Millisecond,
		CallTimeout: 400 * time.Millisecond,
		Retry:       RetryPolicy{MaxRetries: 1, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Jitter: 0.2},
		Logf:        t.Logf,
	}
	b := NewServerOpts(Config{ID: "B", Zone: third(1), Tuples: []dataset.Tuple{tupleIn(10, 1, 0.2), tupleIn(11, 1, 0.8)}}, opts, topk.WireCodec{})
	bAddr, err := b.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	hAddr := hangListener(t)

	a := NewServerOpts(Config{
		ID:     "A",
		Zone:   third(0),
		Tuples: []dataset.Tuple{tupleIn(1, 0, 0.3), tupleIn(2, 0, 0.6)},
		Links: []LinkSpec{
			{ID: "B", Addr: bAddr, Region: third(1)},
			{ID: "H", Addr: hAddr, Region: third(2)},
		},
	}, opts, topk.WireCodec{})
	aAddr, err := a.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	f := topk.UniformLinear(2)
	params, _ := (topk.WireCodec{}).EncodeParams(f, 10)
	for _, r := range []int{0, 8} {
		start := time.Now()
		res, err := QueryDetailed(aAddr, "topk", params, 2, r, 10*time.Second)
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		elapsed := time.Since(start)
		// Budget: (1 + MaxRetries) attempts of CallTimeout plus slack.
		if elapsed > 3*time.Second {
			t.Fatalf("r=%d: query hung for %v on a dead-mid-protocol peer", r, elapsed)
		}
		if !res.Partial() {
			t.Fatalf("r=%d: hung subtree not marked partial", r)
		}
		if res.Stats.TimedOut == 0 {
			t.Fatalf("r=%d: loss not classified as timeout: %+v", r, res.Stats)
		}
		if len(res.FailedRegions) != 1 || !reflect.DeepEqual(res.FailedRegions[0], third(2)) {
			t.Fatalf("r=%d: failed regions %v, want [%v]", r, res.FailedRegions, third(2))
		}
		ids := answerIDs(res.Answers)
		if !reflect.DeepEqual(ids, []uint64{1, 2, 10, 11}) {
			t.Fatalf("r=%d: surviving answers %v, want all of A and B", r, ids)
		}
	}
}

func answerIDs(ts []dataset.Tuple) []uint64 {
	ids := make([]uint64, 0, len(ts))
	for _, a := range ts {
		ids = append(ids, a.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestRetryExhaustion pins the retry budget: with a 100% drop rate, a link
// is attempted exactly 1+MaxRetries times and then declared lost.
func TestRetryExhaustion(t *testing.T) {
	opts := quietOpts(t)
	opts.Retry = RetryPolicy{MaxRetries: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Jitter: 0.5}
	opts.Faults = faults.New(faults.Config{Seed: 5, DropRate: 1})

	b := NewServerOpts(Config{ID: "B", Zone: third(1), Tuples: []dataset.Tuple{tupleIn(10, 1, 0.5)}}, opts, topk.WireCodec{})
	bAddr, err := b.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a := NewServerOpts(Config{
		ID:     "A",
		Zone:   third(0),
		Tuples: []dataset.Tuple{tupleIn(1, 0, 0.5)},
		Links:  []LinkSpec{{ID: "B", Addr: bAddr, Region: third(1)}},
	}, opts, topk.WireCodec{})
	aAddr, err := a.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	params, _ := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(2), 5)
	res, err := QueryDetailed(aAddr, "topk", params, 2, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RPCFailures != 1 || res.Stats.Retries != 3 {
		t.Fatalf("failures=%d retries=%d, want 1 failure after exactly 3 retries", res.Stats.RPCFailures, res.Stats.Retries)
	}
	if !res.Partial() || len(res.FailedRegions) != 1 {
		t.Fatalf("exhausted link must be a recorded partial loss: %+v", res)
	}
	if ids := answerIDs(res.Answers); !reflect.DeepEqual(ids, []uint64{1}) {
		t.Fatalf("answers %v, want just the initiator's", ids)
	}
}

// TestZeroRateInjectorIsTransparent runs the same query with no injector and
// with a rate-0 injector: answers and every counter must be identical.
func TestZeroRateInjectorIsTransparent(t *testing.T) {
	ts := dataset.NBA(2000, 5)
	net := midas.Build(16, midas.Options{Dims: 6, Seed: 11})
	overlay.Load(net, ts)

	run := func(opts Options) (*QueryResult, error) {
		servers, addrs, err := DeployOpts(net, opts, topk.WireCodec{})
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, s := range servers {
				s.Close()
			}
		}()
		params, _ := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(6), 10)
		w := net.Peers()[2]
		return QueryDetailed(addrs[w.ID()], "topk", params, 6, 2, 10*time.Second)
	}

	plain, err := run(quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	injected := quietOpts(t)
	injected.Faults = faults.New(faults.Config{Seed: 99})
	withInj, err := run(injected)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answerIDs(plain.Answers), answerIDs(withInj.Answers)) {
		t.Fatal("rate-0 injector changed the answer set")
	}
	if plain.Stats.QueryMsgs != withInj.Stats.QueryMsgs ||
		plain.Stats.StateMsgs != withInj.Stats.StateMsgs ||
		plain.Stats.Latency != withInj.Stats.Latency ||
		plain.Stats.TuplesSent != withInj.Stats.TuplesSent {
		t.Fatalf("rate-0 injector changed the costs: %+v vs %+v", plain.Stats, withInj.Stats)
	}
	if withInj.Partial() || withInj.Stats.RPCFailures != 0 || withInj.Stats.Retries != 0 {
		t.Fatalf("rate-0 injector produced failures: %+v", withInj.Stats)
	}
}

// TestInjectedDeploymentIsDeterministic: two fresh deployments of the same
// overlay under the same fault seed must lose the same links and return the
// same answers, even though ports and goroutine interleavings differ —
// decisions are keyed by stable peer IDs, not addresses.
func TestInjectedDeploymentIsDeterministic(t *testing.T) {
	ts := dataset.NBA(2000, 5)
	net := midas.Build(20, midas.Options{Dims: 6, Seed: 13})
	overlay.Load(net, ts)

	run := func() *QueryResult {
		opts := quietOpts(t)
		opts.Retry.MaxRetries = 1
		opts.Faults = faults.New(faults.Config{Seed: 31, DropRate: 0.25})
		servers, addrs, err := DeployOpts(net, opts, topk.WireCodec{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, s := range servers {
				s.Close()
			}
		}()
		params, _ := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(6), 10)
		w := net.Peers()[0]
		res, err := QueryDetailed(addrs[w.ID()], "topk", params, 6, 0, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	one, two := run(), run()
	if !reflect.DeepEqual(answerIDs(one.Answers), answerIDs(two.Answers)) {
		t.Fatal("same seed, different surviving answers")
	}
	if one.Stats.RPCFailures != two.Stats.RPCFailures || one.Partial() != two.Partial() ||
		len(one.FailedRegions) != len(two.FailedRegions) {
		t.Fatalf("same seed, different failures: %+v vs %+v", one.Stats, two.Stats)
	}
	if !one.Partial() {
		t.Fatal("25% drop over 20 peers should have lost at least one link (tune the seed if not)")
	}
}

// TestCrashInjection: with every outgoing link crashing (work done, reply
// lost), the initiator still answers with its own tuples and reports the
// losses.
func TestCrashInjection(t *testing.T) {
	ts := dataset.NBA(1000, 3)
	net := midas.Build(8, midas.Options{Dims: 6, Seed: 17})
	overlay.Load(net, ts)
	opts := quietOpts(t)
	opts.Retry.MaxRetries = 0
	opts.Faults = faults.New(faults.Config{Seed: 1, CrashRate: 1})
	servers, addrs, err := DeployOpts(net, opts, topk.WireCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	params, _ := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(6), 10)
	w := net.Peers()[0]
	res, err := QueryDetailed(addrs[w.ID()], "topk", params, 6, 0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial() || res.Stats.RPCFailures == 0 {
		t.Fatalf("crashed children must be recorded: %+v", res.Stats)
	}
	if len(res.Answers) == 0 {
		t.Fatal("initiator's own answers must survive a fully crashing neighbourhood")
	}
}

// TestBackoffJitterBounds pins the retry delay schedule: exponential growth
// from BackoffBase, capped at BackoffMax, spread by ±Jitter.
func TestBackoffJitterBounds(t *testing.T) {
	p := RetryPolicy{MaxRetries: 8, BackoffBase: 10 * time.Millisecond, BackoffMax: 200 * time.Millisecond, Jitter: 0.2}
	if p.Backoff(0, 0.5) != 0 {
		t.Fatal("attempt 0 must not wait")
	}
	for attempt := 1; attempt <= 8; attempt++ {
		base := 10 * time.Millisecond << (attempt - 1)
		if base > 200*time.Millisecond {
			base = 200 * time.Millisecond
		}
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999999} {
			d := p.Backoff(attempt, u)
			if d < lo || d > hi {
				t.Fatalf("attempt %d u=%.2f: backoff %v outside [%v, %v]", attempt, u, d, lo, hi)
			}
		}
		if got0, got1 := p.Backoff(attempt, 0.0), p.Backoff(attempt, 1.0); got0 >= got1 {
			t.Fatalf("attempt %d: jitter not spreading (u=0 -> %v, u~1 -> %v)", attempt, got0, got1)
		}
	}
	// No jitter: exact exponential with cap.
	exact := RetryPolicy{BackoffBase: 10 * time.Millisecond, BackoffMax: 40 * time.Millisecond}
	for attempt, want := range map[int]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond, 3: 40 * time.Millisecond, 4: 40 * time.Millisecond, 10: 40 * time.Millisecond} {
		if got := exact.Backoff(attempt, 0.7); got != want {
			t.Fatalf("attempt %d: %v, want %v", attempt, got, want)
		}
	}
}

// TestCloseUnblocksHungClients: a client that stalls mid-frame (or sits
// idle, before or after its hello) must not block Close — the serving
// goroutines are torn down and Close returns promptly.
func TestCloseUnblocksHungClients(t *testing.T) {
	opts := quietOpts(t)
	opts.IdleTimeout = 30 * time.Second // deadline alone must not be what saves Close
	s := NewServerOpts(Config{ID: "X", Zone: third(0), Tuples: []dataset.Tuple{tupleIn(1, 0, 0.5)}}, opts, topk.WireCodec{})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// One client idle before its hello, one idle after it, one stalled
	// mid-frame.
	var conns []net.Conn
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns = append(conns, conn)
	}
	for _, conn := range conns[1:] {
		if err := helloForTest(conn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conns[2].Write([]byte{0, 0, 0, 1, 0}); err != nil { // part of a frame header, then silence
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let serveConn enter its reads

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on hung client connections")
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMidFrameStallIsDropped: a connection that goes quiet in the middle of
// its hello or of a frame is cut at the read deadline, while an idle one —
// before its hello or between frames — survives it.
func TestMidFrameStallIsDropped(t *testing.T) {
	opts := quietOpts(t)
	opts.IdleTimeout = 100 * time.Millisecond
	s := NewServerOpts(Config{ID: "X", Zone: third(0), Tuples: []dataset.Tuple{tupleIn(1, 0, 0.5)}}, opts, topk.WireCodec{})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for name, prelude := range map[string]func(net.Conn) error{
		"mid-hello": func(c net.Conn) error { _, err := c.Write([]byte{0x52, 0x50}); return err },
		"mid-frame": func(c net.Conn) error {
			if err := helloForTest(c); err != nil {
				return err
			}
			_, err := c.Write([]byte{0, 0})
			return err
		},
	} {
		stalled, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer stalled.Close()
		if err := prelude(stalled); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := stalled.Read(make([]byte, 1)); err == nil {
			t.Fatalf("%s stall was not dropped", name)
		}
	}

	// An idle connection outlives several deadline periods before its hello
	// and again between frames, and still works.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	time.Sleep(350 * time.Millisecond)
	if err := helloForTest(idle); err != nil {
		t.Fatalf("idle connection was cut before its hello: %v", err)
	}
	time.Sleep(350 * time.Millisecond)
	params, _ := (topk.WireCodec{}).EncodeParams(topk.UniformLinear(2), 1)
	if err := writeCallRead(idle, params); err != nil {
		t.Fatalf("idle connection was cut by the per-frame deadline: %v", err)
	}
}

// helloForTest runs the client side of the mux handshake on a raw
// connection.
func helloForTest(conn net.Conn) error {
	if err := wire.WriteMuxHello(conn, wire.MuxVersion); err != nil {
		return err
	}
	_, err := wire.ReadMuxHello(conn)
	return err
}

// writeCallRead performs one raw RPC as stream 1 on a connection past its
// hello.
func writeCallRead(conn net.Conn, params []byte) error {
	call := &wire.Call{QueryType: "topk", Params: params, Restrict: overlay.Whole(2), R: 0}
	if err := wire.WriteMuxFrame(conn, 1, call); err != nil {
		return err
	}
	var reply wire.Reply
	stream, err := wire.ReadMuxFrame(conn, &reply)
	if err != nil {
		return err
	}
	if stream != 1 || reply.Error != "" {
		return fmt.Errorf("reply on stream %d: %+v", stream, reply)
	}
	return nil
}

// TestPooledDeploymentSurvivesInjectedFaults: drops from the fault injector
// must not corrupt the shared peer connections — queries keep succeeding and
// the answers stay exact once retries recover the links.
func TestPooledDeploymentSurvivesInjectedFaults(t *testing.T) {
	ts := dataset.Uniform(800, 2, 9)
	net := midas.Build(8, midas.Options{Dims: 2, Seed: 13})
	overlay.Load(net, ts)
	opts := quietOpts(t)
	opts.Faults = faults.New(faults.Config{Seed: 21, DropRate: 0.3})
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
	params := topkParams(t, 2, 48)
	want := topk.Brute(ts, f, 48)
	for i := 0; i < 5; i++ {
		res, err := QueryDetailed(servers[0].Addr(), "topk", params, 2, 1<<20, 0)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Partial() {
			// A drop rate of 0.3 with retries can still exhaust a link; a
			// partial answer is legal, just not comparable to Brute.
			continue
		}
		got := topk.Select(res.Answers, f, 48)
		for j := range want {
			if got[j].ID != want[j].ID {
				t.Fatalf("query %d: rank %d = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestLinkSpecKeyFallsBackToAddr(t *testing.T) {
	if (LinkSpec{ID: "p3", Addr: "1.2.3.4:9"}).key() != "p3" {
		t.Fatal("key must prefer the peer ID")
	}
	if (LinkSpec{Addr: "1.2.3.4:9"}).key() != "1.2.3.4:9" {
		t.Fatal("key must fall back to the address for old configs")
	}
}

func TestRemoteErrorFormat(t *testing.T) {
	e := &RemoteError{Peer: "007", Msg: "panic: boom"}
	if got := e.Error(); got != fmt.Sprintf("peer %s: %s", "007", "panic: boom") {
		t.Fatalf("RemoteError.Error() = %q", got)
	}
}
