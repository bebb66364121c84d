package netpeer

import (
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"ripple/internal/faults"
	"ripple/internal/metrics"
	"ripple/internal/plan"
	"ripple/internal/storage"
	"ripple/internal/wire"
)

// RetryPolicy bounds how hard a peer tries to recover a failing link before
// declaring the subtree lost: exponential backoff with multiplicative jitter,
// capped, with a fixed number of extra attempts.
type RetryPolicy struct {
	// MaxRetries is the number of extra attempts after the first try.
	MaxRetries int
	// BackoffBase is the delay before the first retry; attempt i waits
	// BackoffBase·2^(i−1), capped at BackoffMax, scaled by the jitter factor.
	BackoffBase time.Duration
	// BackoffMax caps the pre-jitter delay.
	BackoffMax time.Duration
	// Jitter is the fraction j by which a delay is spread uniformly over
	// [d·(1−j), d·(1+j)], decorrelating retry storms across links.
	Jitter float64
}

// DefaultRetryPolicy is used when a Server is built with zero Options.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 2, BackoffBase: 20 * time.Millisecond, BackoffMax: 1 * time.Second, Jitter: 0.2}
}

// Backoff returns the delay before retry `attempt` (1-based). u in [0,1)
// supplies the jitter randomness; callers derive it deterministically from
// the link identity so a run is reproducible under a fixed fault seed.
func (p RetryPolicy) Backoff(attempt int, u float64) time.Duration {
	if attempt < 1 {
		return 0
	}
	d := p.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.BackoffMax {
			d = p.BackoffMax
			break
		}
	}
	if d > p.BackoffMax {
		d = p.BackoffMax
	}
	if p.Jitter > 0 {
		d = time.Duration(float64(d) * (1 - p.Jitter + 2*p.Jitter*u))
	}
	return d
}

// Options tune a Server's fault-tolerance behaviour. The zero value selects
// the defaults; a zero duration means "use the default", so partially filled
// Options compose.
type Options struct {
	// DialTimeout bounds establishing one TCP connection to a neighbour.
	DialTimeout time.Duration
	// CallTimeout bounds one RPC attempt end to end: writing the call and
	// reading the reply, which covers the neighbour's entire subtree
	// processing. A query issued against a deployment therefore returns
	// within roughly CallTimeout plus retry backoffs even when a peer hangs
	// mid-protocol.
	CallTimeout time.Duration
	// WriteTimeout bounds writing a reply back to a caller.
	WriteTimeout time.Duration
	// IdleTimeout is serveConn's per-frame read deadline. A connection
	// idle between messages is re-armed (after checking for shutdown); one
	// that stalls in the middle of a frame is dropped, so a hung client
	// cannot pin a serving goroutine past Close.
	IdleTimeout time.Duration
	// Retry is the per-link recovery policy.
	Retry RetryPolicy
	// Replication is the zone replication factor a deployment builds its
	// replica placement with: each peer's share (zone, tuples, links) is
	// mirrored onto Replication−1 ring-successor peers, and lost subtrees fail
	// over to those replicas instead of landing in FailedRegions. Values 0 and
	// 1 both mean "no replication" (the pre-replication behaviour).
	Replication int
	// RecoveryBudget bounds the wall-clock time one processed call may spend
	// on replica failovers (across all its lost links); once exhausted,
	// remaining lost subtrees are recorded as failed regions immediately. Zero
	// means the default.
	RecoveryBudget time.Duration
	// MaxConcurrentCalls bounds how many calls a mux connection's worker
	// pool processes at once. Zero means the default.
	MaxConcurrentCalls int
	// MaxCallQueue bounds how many admitted calls may wait for a worker on
	// one mux connection. Past MaxConcurrentCalls in flight plus MaxCallQueue
	// queued, admission control rejects the call with wire.Overloaded instead
	// of stalling the socket. Zero means the default.
	MaxCallQueue int
	// Faults optionally injects deterministic link faults into every
	// outgoing RPC (see internal/faults). Nil means no faults.
	Faults *faults.Injector
	// Logf receives server-side fault diagnostics (failed links, recovered
	// panics). Defaults to the standard logger; set to a no-op to silence.
	Logf func(format string, args ...interface{})
	// Metrics optionally receives the peer's transport counters and latency
	// histograms (see internal/metrics); a deployment usually shares one
	// registry across its servers and serves it on /metrics. Nil disables
	// instrumentation at zero cost.
	Metrics *metrics.Registry
	// Storage selects the engine the peer serves its share — and any mirrored
	// replica shares — with. KindAuto (the zero value) defers to the
	// RIPPLE_STORAGE environment variable, defaulting to the scan baseline.
	Storage storage.Kind
	// CacheSize bounds the peer's result cache in bytes (internal/cache):
	// initiator queries processed by this peer are answered from the cache
	// when a prior identical query's answer is still valid. Zero disables
	// caching entirely (the pre-cache behaviour, at zero cost).
	CacheSize int64
	// CacheTTL bounds how long a cached answer may be served. Zero means the
	// cache default (cache.DefaultTTL). The TTL is the staleness backstop for
	// peers a mutation's invalidation broadcast could not reach.
	CacheTTL time.Duration
	// Planner, when non-nil, resolves root queries arriving with r =
	// plan.RAuto into a concrete mode/r on this peer (the initiator side of
	// the query), and is fed every completed root query's observed cost — so
	// static-r queries train the model too. Decisions are reported back on
	// wire.Reply.Plan/PlanR and as ripple_plan_* metrics when Metrics is set.
	Planner *plan.Planner
}

// DefaultOptions returns the production defaults.
func DefaultOptions() Options {
	return Options{
		DialTimeout:  2 * time.Second,
		CallTimeout:  15 * time.Second,
		WriteTimeout: 10 * time.Second,
		IdleTimeout:  30 * time.Second,
		Retry:        DefaultRetryPolicy(),
		Logf:         log.Printf,

		RecoveryBudget: 10 * time.Second,

		MaxConcurrentCalls: 32,
		MaxCallQueue:       128,
	}
}

// withDefaults fills zero fields with the defaults.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.DialTimeout == 0 {
		o.DialTimeout = d.DialTimeout
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = d.CallTimeout
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = d.WriteTimeout
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = d.IdleTimeout
	}
	if o.Retry == (RetryPolicy{}) {
		o.Retry = d.Retry
	}
	if o.RecoveryBudget == 0 {
		o.RecoveryBudget = d.RecoveryBudget
	}
	if o.MaxConcurrentCalls == 0 {
		o.MaxConcurrentCalls = d.MaxConcurrentCalls
	}
	if o.MaxCallQueue == 0 {
		o.MaxCallQueue = d.MaxCallQueue
	}
	if o.Logf == nil {
		o.Logf = d.Logf
	}
	if o.Storage == storage.KindAuto {
		o.Storage = storage.EnvKind()
	}
	return o
}

// RemoteError is a processing failure reported by the remote peer itself
// (wire.Reply.Error): the peer was reachable but crashed on the call. It is
// not retried — re-sending the same call would crash the peer the same way.
type RemoteError struct {
	Peer string
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("peer %s: %s", e.Peer, e.Msg) }

// OverloadError is an admission-control rejection from the remote peer: its
// mux worker pool and call queue were full (wire.Overloaded in Reply.Error).
// Unlike RemoteError it is retried — overload is transient by construction,
// and the backoff between attempts is exactly the load shedding the remote
// asked for.
type OverloadError struct {
	Peer string
	Msg  string
}

// Error implements error.
func (e *OverloadError) Error() string { return fmt.Sprintf("peer %s: %s", e.Peer, e.Msg) }

// replyErr types a remote-reported Reply.Error: admission-control rejections
// become retryable OverloadErrors, everything else a fatal RemoteError.
func replyErr(peer string, reply *wire.Reply) error {
	if wire.IsOverloaded(reply.Error) {
		return &OverloadError{Peer: peer, Msg: reply.Error}
	}
	return &RemoteError{Peer: peer, Msg: reply.Error}
}

// errInjected marks transport failures simulated by the fault injector.
var (
	errInjectedDrop  = errors.New("netpeer: injected drop")
	errInjectedCrash = errors.New("netpeer: injected crash (reply lost)")
)

// isTimeout classifies an RPC failure as deadline-driven (hung peer) rather
// than an immediate transport error (dead peer).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
