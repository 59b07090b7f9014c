package router

import (
	"fmt"

	"locble/internal/obs"
)

// metrics resolves every router metric handle once at construction, on
// a per-router registry (the fleet pattern). Per-node series are
// indexed by the node's position in the configured address list —
// stable for the router's lifetime — with the address carried in the
// DESIGN'd router.node.<i>.* naming.
type metrics struct {
	reg *obs.Registry

	// Ingest shape: batches routed, observations fanned out, batch-size
	// distribution, and whole-batch latency (grouping + fan-out + merge).
	batches   *obs.Counter
	obsRouted *obs.Counter
	batchSize *obs.Histogram
	pushSpan  *obs.Timer

	// Membership: nodes currently in the ring (gauge, high-water = the
	// cluster's peak size), ring membership changes (churn), and vnodes
	// remapped by those changes (the rebalance volume).
	ringNodes       *obs.Gauge
	ringChurn       *obs.Counter
	rebalanceVNodes *obs.Counter

	// Drain handoffs: Drain calls and the sessions they checkpointed
	// off the drained node.
	drains          *obs.Counter
	drainedSessions *obs.Counter

	// Failure handling: beacon groups served by a non-home node while
	// their home node is dead (each is a typed Degraded result), node
	// exchanges that failed outright, and node connections successfully
	// re-established after a drop (the persistent-connection churn).
	failoverGroups *obs.Counter
	nodeErrors     *obs.Counter
	reconnects     *obs.Counter

	// Breaker transitions, summed over the router's nodes.
	breakerToOpen     *obs.Counter
	breakerToHalfOpen *obs.Counter
	breakerToClosed   *obs.Counter

	// Per-node: batches and observations landed, exchange latency.
	node []nodeMetrics
}

type nodeMetrics struct {
	batches  *obs.Counter
	obsSent  *obs.Counter
	pushSpan *obs.Timer
}

func newMetrics(n int) *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg:             r,
		batches:         r.Counter("router.batches"),
		obsRouted:       r.Counter("router.obs.routed"),
		batchSize:       r.Histogram("router.batch.size", []float64{1, 8, 32, 128, 512, 2048}),
		pushSpan:        r.Timer("router.push.seconds"),
		ringNodes:       r.Gauge("router.ring.nodes"),
		ringChurn:       r.Counter("router.ring.churn"),
		rebalanceVNodes: r.Counter("router.rebalance.vnodes"),
		drains:          r.Counter("router.drains"),
		drainedSessions: r.Counter("router.drained.sessions"),
		failoverGroups:  r.Counter("router.failover.groups"),
		nodeErrors:      r.Counter("router.node.errors"),
		reconnects:      r.Counter("router.backend.reconnects"),
		node:            make([]nodeMetrics, n),

		breakerToOpen:     r.Counter("router.breaker.to_open"),
		breakerToHalfOpen: r.Counter("router.breaker.to_halfopen"),
		breakerToClosed:   r.Counter("router.breaker.to_closed"),
	}
	for i := range m.node {
		m.node[i] = nodeMetrics{
			batches:  r.Counter(fmt.Sprintf("router.node.%d.batches", i)),
			obsSent:  r.Counter(fmt.Sprintf("router.node.%d.obs", i)),
			pushSpan: r.Timer(fmt.Sprintf("router.node.%d.push.seconds", i)),
		}
	}
	return m
}

// Metrics returns a consistent snapshot of the router's metrics. Safe
// to call concurrently with routing.
func (r *Router) Metrics() obs.Snapshot { return r.met.reg.Snapshot() }

// MetricsRegistry exposes the router's registry — to mount its Handler
// on a debug listener or merge it into a process-wide snapshot.
func (r *Router) MetricsRegistry() *obs.Registry { return r.met.reg }
