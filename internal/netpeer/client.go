package netpeer

import (
	"sync/atomic"
	"time"

	"ripple/internal/dataset"
	"ripple/internal/overlay"
	"ripple/internal/sim"
	"ripple/internal/trace"
	"ripple/internal/wire"
)

// buildCall assembles the initiator's root call. A non-empty scope restricts
// the query to that sub-region: it prunes the traversal (the root restriction
// starts at the scope instead of the whole domain, mirroring what the
// in-process engines do) and rides every sub-call so peers filter their local
// answers to it.
func buildCall(queryType string, params []byte, dims, r int, traced bool, scope overlay.Region) *wire.Call {
	call := &wire.Call{
		QueryType: queryType,
		Params:    params,
		Restrict:  overlay.Whole(dims),
		Scope:     scope,
		R:         r,
		Hops:      0,
	}
	if !scope.IsEmpty() {
		call.Restrict = scope
	}
	if traced {
		call.Traced = true
		call.SpanID = trace.RootID
	}
	return call
}

// resultFromReply reconstructs the query outcome from the initiator's reply.
func resultFromReply(reply *wire.Reply, traced bool) *QueryResult {
	res := &QueryResult{
		Answers:       reply.Answers,
		FailedRegions: reply.FailedRegions,
		CacheHit:      reply.CacheHit,
		Plan:          reply.Plan,
		PlanR:         reply.PlanR,
	}
	for _, p := range reply.Peers {
		res.Stats.Touch(p)
	}
	res.Stats.Latency = reply.Completion
	res.Stats.StateMsgs = reply.StateMsgs
	res.Stats.TuplesSent = reply.TuplesSent
	res.Stats.RPCFailures = reply.Failures
	res.Stats.Recovered = reply.Recovered
	res.Stats.Failovers = reply.Failovers
	res.Stats.Retries = reply.Retries
	res.Stats.TimedOut = reply.TimedOut
	res.Stats.Partial = reply.Partial
	if traced {
		res.Trace = trace.Build(reply.Spans)
	}
	return res
}

// Client is an initiator-side handle on one deployment peer that keeps its
// connection warm across queries, so a workload issuing many queries pays
// one handshake instead of one per query. Concurrent queries share the
// connection as independent streams. A Client is safe for concurrent use.
type Client struct {
	addr    string
	timeout time.Duration
	mux     atomic.Pointer[muxTable] // swapped for a fresh table by Close
}

// NewClient returns a client for the peer at addr. timeout bounds each
// query end to end (0 uses the default call timeout). The client does not
// connect until the first query.
func NewClient(addr string, timeout time.Duration) *Client {
	if timeout == 0 {
		timeout = DefaultOptions().CallTimeout
	}
	c := &Client{addr: addr, timeout: timeout}
	c.mux.Store(newMuxTable(timeout, timeout))
	return c
}

// Close tears down the warm connection, if any, failing any in-flight
// streams. The client stays usable: the next query redials.
func (c *Client) Close() error {
	c.mux.Swap(newMuxTable(c.timeout, c.timeout)).close()
	return nil
}

// do performs one exchange as a stream on the warm connection; a connection
// gone stale since the last query (the peer restarted) is redialled within
// the same exchange.
func (c *Client) do(call *wire.Call) (*wire.Reply, error) {
	return c.mux.Load().call(c.addr, call, c.timeout)
}

// query is the shared body of the Query variants.
func (c *Client) query(queryType string, params []byte, dims, r int, traced bool, scope overlay.Region) (*QueryResult, error) {
	reply, err := c.do(buildCall(queryType, params, dims, r, traced, scope))
	if err != nil {
		return nil, err
	}
	if reply.Error != "" {
		return nil, replyErr(c.addr, reply)
	}
	return resultFromReply(reply, traced), nil
}

// Query runs a query over the warm connection; see the package-level Query.
func (c *Client) Query(queryType string, params []byte, dims, r int) ([]dataset.Tuple, sim.Stats, error) {
	res, err := c.query(queryType, params, dims, r, false, overlay.Region{})
	if err != nil {
		return nil, sim.Stats{}, err
	}
	return res.Answers, res.Stats, nil
}

// QueryDetailed runs a query over the warm connection and returns the full
// result including partial-answer accounting.
func (c *Client) QueryDetailed(queryType string, params []byte, dims, r int) (*QueryResult, error) {
	return c.query(queryType, params, dims, r, false, overlay.Region{})
}

// QueryScoped is QueryDetailed restricted to a sub-region of the domain: only
// tuples inside scope qualify, and the traversal is pruned to it. An empty
// scope behaves exactly like QueryDetailed.
func (c *Client) QueryScoped(queryType string, params []byte, dims, r int, scope overlay.Region) (*QueryResult, error) {
	return c.query(queryType, params, dims, r, false, scope)
}

// QueryTraced is QueryDetailed with hop-tree tracing.
func (c *Client) QueryTraced(queryType string, params []byte, dims, r int) (*QueryResult, error) {
	return c.query(queryType, params, dims, r, true, overlay.Region{})
}

// Insert applies an insert mutation through this peer: the tuple is routed to
// the owner of its point, applied there, mirrored onto the owner's zone
// replicas, and result caches across the deployment are invalidated before
// the call returns. It reports how many peers applied the op (owner plus
// mirrors).
func (c *Client) Insert(t dataset.Tuple) (int, error) {
	return c.mutate(wire.OpInsert, t)
}

// Delete applies a delete mutation through this peer; the tuple is matched by
// ID at the owner of t.Vec. It reports how many peers applied the op — zero
// when no such tuple exists.
func (c *Client) Delete(t dataset.Tuple) (int, error) {
	return c.mutate(wire.OpDelete, t)
}

func (c *Client) mutate(op string, t dataset.Tuple) (int, error) {
	reply, err := c.do(&wire.Call{Op: op, Tuple: t})
	if err != nil {
		return 0, err
	}
	if reply.Error != "" {
		return 0, replyErr(c.addr, reply)
	}
	return reply.Acks, nil
}
