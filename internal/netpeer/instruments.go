package netpeer

import (
	"ripple/internal/metrics"
	"ripple/internal/storage"
)

// instruments caches the server's metric handles so the RPC path never pays
// a registry lookup. Every handle is nil when Options.Metrics is nil — the
// instruments stay callable (internal/metrics is nil-safe) and an unmetered
// server pays only a nil check per event.
type instruments struct {
	dials           *metrics.Counter
	dialFailures    *metrics.Counter
	retries         *metrics.Counter
	deadlines       *metrics.Counter
	backoffs        *metrics.Counter
	lostLinks       *metrics.Counter
	recovered       *metrics.Counter
	failovers       *metrics.Counter
	unrecoverable   *metrics.Counter
	muxStreams      *metrics.Counter
	overloads       *metrics.Counter
	inflight        *metrics.Gauge
	storageTuples   *metrics.Gauge
	storageNodes    *metrics.Gauge
	storageHeight   *metrics.Gauge
	rpcSeconds      *metrics.Histogram
	fanout          *metrics.Histogram
	queueWait       *metrics.Histogram
	recoverySeconds *metrics.Histogram
}

// setStorage publishes the peer's primary-share storage statistics. Called at
// construction and after every wire mutation, so the gauges track the live
// share rather than the deployment-time snapshot.
func (ins *instruments) setStorage(st storage.Stats) {
	ins.storageTuples.Set(int64(st.Len))
	ins.storageNodes.Set(int64(st.Nodes))
	ins.storageHeight.Set(int64(st.Height))
}

func newInstruments(r *metrics.Registry) instruments {
	return instruments{
		dials:           r.Counter("ripple_netpeer_dials_total", "TCP dial attempts to neighbour peers"),
		dialFailures:    r.Counter("ripple_netpeer_dial_failures_total", "TCP dial attempts that failed"),
		retries:         r.Counter("ripple_netpeer_retries_total", "extra RPC attempts spent recovering links"),
		deadlines:       r.Counter("ripple_netpeer_deadline_timeouts_total", "RPC attempts abandoned on a dial/call deadline"),
		backoffs:        r.Counter("ripple_netpeer_backoffs_total", "backoff sleeps taken before retries"),
		lostLinks:       r.Counter("ripple_netpeer_lost_links_total", "links abandoned after retry exhaustion"),
		recovered:       r.Counter("ripple_netpeer_recovered_regions_total", "lost subtrees served by a zone replica of the dead primary"),
		failovers:       r.Counter("ripple_netpeer_replica_failovers_total", "replica dispatches attempted during recovery, successful or not"),
		unrecoverable:   r.Counter("ripple_netpeer_unrecoverable_regions_total", "lost subtrees no replica could serve (the region lands in FailedRegions)"),
		muxStreams:      r.Counter("ripple_netpeer_mux_streams_total", "calls multiplexed as streams onto a shared peer connection"),
		overloads:       r.Counter("ripple_netpeer_overload_rejections_total", "calls rejected by admission control (worker pool and queue full)"),
		inflight:        r.Gauge("ripple_netpeer_inflight_streams", "multiplexed calls admitted and not yet replied to"),
		storageTuples:   r.Gauge("ripple_storage_tuples", "tuples in the peer's primary-share store"),
		storageNodes:    r.Gauge("ripple_storage_index_nodes", "index nodes in the primary-share store (0 for the scan baseline)"),
		storageHeight:   r.Gauge("ripple_storage_index_height", "index tree height of the primary-share store (0 for the scan baseline)"),
		rpcSeconds:      r.Histogram("ripple_netpeer_rpc_seconds", "wall-clock duration of one RPC attempt", metrics.DefLatencyBuckets),
		fanout:          r.Histogram("ripple_netpeer_fanout", "relevant links contacted per processed call", metrics.LinearBuckets(0, 1, 8)),
		queueWait:       r.Histogram("ripple_netpeer_queue_wait_seconds", "time an admitted call waited for a mux worker", metrics.DefLatencyBuckets),
		recoverySeconds: r.Histogram("ripple_netpeer_recovery_seconds", "wall-clock time from losing a link to a replica serving its region", metrics.DefLatencyBuckets),
	}
}
