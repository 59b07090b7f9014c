// Package router scales fleet serving across machines: a consistent-
// hash router that fans mixed-beacon observation batches out over N
// netproto fleet servers and merges the per-beacon results back in
// input order. Beacons map to nodes through a deterministic
// virtual-node ring (ring.go), so every observation for one beacon
// lands on the same node and the routed results are bit-identical to a
// single fleet replaying the same stream sequentially — sharding
// across machines is pure transport, exactly like the shards inside
// one fleet.
//
// Membership change is first-class. Drain(node) checkpoints every
// session resident on that node through its checkpoint store and
// removes the node from the ring; because the nodes share one durable
// store, the drained beacons re-admit on the surviving nodes by
// restoring those checkpoints bit-exactly — a planned handoff loses
// zero acknowledged fixes. A node that dies without draining trips its
// per-node circuit breaker (breaker.go): its key range fails over
// clockwise to the surviving nodes, and the affected results are typed
// Degraded (the failover node may lack the dead node's undrained
// session state) rather than errors — traffic keeps flowing.
package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"locble/internal/fleet"
	"locble/internal/netproto"
)

// Errors.
var (
	// ErrClosed is returned by PushBatch and Drain after Close.
	ErrClosed = errors.New("router: closed")
	// ErrNoNodes is a beacon group's result error when every node is
	// drained, dead, or already tried — there is nowhere left to fail
	// over to.
	ErrNoNodes = errors.New("router: no usable nodes")
)

// ReasonNodeFailover marks a Degraded result: the beacon's home node is
// dead (breaker open or the exchange failed), so a surviving node
// served it instead. The observations landed and fixes flowed, but any
// session state the dead node had not checkpointed is unavailable to
// the failover node — fixes may differ from an uninterrupted session
// until the next checkpoint cycle.
const ReasonNodeFailover = "node-failover"

// Config configures a Router. Every router places beacons with the same
// ring (ringVNodes points per node, fixed hash), so the gateways of one
// deployment agree on each beacon's owner without talking to each
// other, and every node's breaker follows the same policy (breaker.go).
type Config struct {
	// Codec names the wire codec spoken to each node. locb1 is the only
	// one, so New accepts only "" and netproto.CodecBinary; the field
	// remains because callers (the perfbench harness) set it explicitly.
	Codec string
}

// Result is one beacon's merged outcome of a routed PushBatch, in
// first-appearance order of the input batch. The lifecycle flags and
// fixes mirror the serving node's netproto result.
type Result struct {
	Beacon string
	// Node is the address of the node that served this beacon's group.
	Node string
	// Created / Restored / Quarantined are the session lifecycle flags
	// reported by the serving node (see fleet.Result).
	Created     bool
	Restored    bool
	Quarantined bool
	// Degraded marks a group served by a non-home node because its home
	// node is dead (DegradedReason says why — currently always
	// ReasonNodeFailover). Degraded results are successes: observations
	// landed and fixes flowed, but bit-exact continuity with the dead
	// node's unreachable session state is not guaranteed.
	Degraded       bool
	DegradedReason string
	// Fixes are the location fixes this batch completed on the serving
	// node, bit-identical to a local session (locb1 carries raw float64
	// bits).
	Fixes []netproto.PushFix
	// Err is this beacon's failure: ErrNoNodes, the batch context's
	// error, or a per-beacon ingest error from the serving node. The
	// rest of the batch still ran.
	Err error
}

// NodeStatus is one node's membership view for operators and tests.
type NodeStatus struct {
	Addr string
	// State is "up", "probing" (breaker half-open), "down" (breaker
	// open), or "drained" (removed from the ring by Drain).
	State string
	// Sessions drained from this node (nonzero only after Drain).
	Drained int
}

// node is one fleet server in the router's table. Its index is stable
// for the router's lifetime; membership changes toggle flags and
// rebuild the ring rather than re-indexing.
type node struct {
	idx  int
	addr string
	be   Backend
	br   *breaker

	draining atomic.Bool
	drained  atomic.Int64
}

// Router fans batched fleet ingest over N nodes. All methods are safe
// for concurrent use.
type Router struct {
	met *metrics

	nodes []*node

	mu     sync.Mutex
	ring   ring // immutable snapshot; rebuilt on membership change
	closed bool
}

// New builds a router over netproto fleet servers at addrs. Connections
// are dialed lazily on first use and then kept open across batches, so
// nodes may come up after the router. Addresses must be distinct — they
// are the ring identities.
func New(addrs []string, cfg Config) (*Router, error) {
	if cfg.Codec != "" && cfg.Codec != netproto.CodecBinary {
		return nil, fmt.Errorf("router: codec %q: nodes speak only %s", cfg.Codec, netproto.CodecBinary)
	}
	dials := make([]*dialBackend, len(addrs))
	backends := make([]Backend, len(addrs))
	for i, a := range addrs {
		dials[i] = &dialBackend{addr: a}
		backends[i] = dials[i]
	}
	r, err := newWithBackends(addrs, backends)
	if err != nil {
		return nil, err
	}
	for _, db := range dials {
		db.reconnects = r.met.reconnects
	}
	return r, nil
}

// newWithBackends is New with explicit transports (tests inject fakes).
func newWithBackends(addrs []string, backends []Backend) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("router: no node addresses")
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a == "" {
			return nil, errors.New("router: empty node address")
		}
		if seen[a] {
			return nil, fmt.Errorf("router: duplicate node address %q", a)
		}
		seen[a] = true
	}
	r := &Router{
		met:   newMetrics(len(addrs)),
		nodes: make([]*node, len(addrs)),
	}
	members := make(map[int]string, len(addrs))
	for i, a := range addrs {
		r.nodes[i] = &node{idx: i, addr: a, be: backends[i], br: newBreaker(r.met)}
		members[i] = a
	}
	r.ring = buildRing(members)
	r.met.ringNodes.Set(int64(len(addrs)))
	return r, nil
}

// pending is one beacon group awaiting (re)assignment: its result slot,
// ring position, and the nodes that already failed it this batch.
type pending struct {
	gi    int
	hash  uint64
	tried map[int]bool
}

// share is one node's part of a routing round: the groups it carries in
// one exchange, and the breaker epoch that exchange settles.
type share struct {
	ps    []*pending
	epoch uint64
}

// PushBatch routes a mixed observation batch to its nodes, pushes the
// per-node sub-batches in parallel, and merges one Result per distinct
// beacon in first-appearance order — the same contract as
// fleet.PushBatch, across machines. Groups whose home node fails are
// retried on the next surviving ring node with Degraded set; only a
// batch against a closed router errors as a whole.
func (r *Router) PushBatch(ctx context.Context, batch []fleet.Obs) ([]Result, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	rg := r.ring
	r.mu.Unlock()

	sp := r.met.pushSpan.Start()
	defer sp.End()
	r.met.batches.Inc()
	r.met.batchSize.Observe(float64(len(batch)))
	r.met.obsRouted.Add(int64(len(batch)))

	// Group by beacon, preserving first-appearance order between groups
	// and input order within each (the fleet's own grouping rule, so a
	// routed batch decomposes exactly like a local one).
	idx := make(map[string]int, 16)
	results := make([]Result, 0, 16)
	groupObs := make([][]netproto.PushObs, 0, 16)
	for _, o := range batch {
		g, ok := idx[o.Beacon]
		if !ok {
			g = len(results)
			idx[o.Beacon] = g
			results = append(results, Result{Beacon: o.Beacon})
			groupObs = append(groupObs, nil)
		}
		groupObs[g] = append(groupObs[g], netproto.PushObs{Beacon: o.Beacon, T: o.T, RSS: o.RSS, P: o.P, Q: o.Q})
	}

	round := make([]*pending, len(results))
	for g := range results {
		round[g] = &pending{gi: g, hash: ringHash(results[g].Beacon, -1)}
	}
	// Assignment/execution rounds: round 1 sends every group to its home
	// node; groups whose exchange failed re-enter with that node
	// excluded and fail over clockwise. At most len(nodes) rounds.
	for len(round) > 0 {
		plan := make(map[int]*share) // nil: the node's breaker refused this round
		for _, p := range round {
			ni, skipped := r.pick(rg, p.hash, p.tried, plan)
			if ni < 0 {
				if results[p.gi].Err == nil {
					results[p.gi].Err = ErrNoNodes
				}
				continue
			}
			if (skipped || len(p.tried) > 0) && !results[p.gi].Degraded {
				results[p.gi].Degraded = true
				results[p.gi].DegradedReason = ReasonNodeFailover
				r.met.failoverGroups.Inc()
			}
			plan[ni].ps = append(plan[ni].ps, p)
		}
		var (
			wg     sync.WaitGroup
			nextMu sync.Mutex
			next   []*pending
		)
		for ni, sh := range plan {
			if sh == nil {
				continue
			}
			wg.Add(1)
			go func(ni int, sh *share) {
				defer wg.Done()
				retry := r.pushNode(ctx, ni, sh, groupObs, results)
				if len(retry) > 0 {
					nextMu.Lock()
					next = append(next, retry...)
					nextMu.Unlock()
				}
			}(ni, sh)
		}
		wg.Wait()
		round = next
	}
	return results, nil
}

// pushNode sends one node its share of a round in one exchange, settles
// the exchange with the node's breaker and fills the result slots
// (disjoint across nodes, so no locking). It returns the groups to fail
// over after an exchange-level failure; a canceled context reports the
// context error instead of blaming the node.
func (r *Router) pushNode(ctx context.Context, ni int, sh *share, groupObs [][]netproto.PushObs, results []Result) []*pending {
	n := r.nodes[ni]
	ps := sh.ps
	wire := make([]netproto.PushObs, 0, 64)
	for _, p := range ps {
		wire = append(wire, groupObs[p.gi]...)
	}
	nm := &r.met.node[ni]
	nm.batches.Inc()
	nm.obsSent.Add(int64(len(wire)))
	nsp := nm.pushSpan.Start()
	res, err := n.be.Push(ctx, wire)
	nsp.End()
	if err != nil {
		if ctx.Err() != nil {
			// The caller gave up, the node did nothing wrong: report the
			// context error and hand the admission back.
			n.br.settle(sh.epoch, canceled)
			for _, p := range ps {
				if results[p.gi].Err == nil {
					results[p.gi].Err = ctx.Err()
				}
			}
			return nil
		}
		n.br.settle(sh.epoch, failed)
		r.met.nodeErrors.Inc()
		for _, p := range ps {
			if p.tried == nil {
				p.tried = make(map[int]bool, 2)
			}
			p.tried[ni] = true
		}
		return ps
	}
	n.br.settle(sh.epoch, succeeded)
	byName := make(map[string]*netproto.PushResult, len(res))
	for i := range res {
		byName[res[i].Beacon] = &res[i]
	}
	for _, p := range ps {
		out := &results[p.gi]
		pr := byName[out.Beacon]
		if pr == nil {
			// The node answered but not for this beacon — a protocol
			// breach, surfaced per beacon rather than failed over (the
			// node is alive; re-sending elsewhere would double-ingest
			// any observations it did land).
			out.Err = fmt.Errorf("router: node %s returned no result for %q", n.addr, out.Beacon)
			continue
		}
		out.Node = n.addr
		out.Created = pr.Created
		out.Restored = pr.Restored
		out.Quarantined = pr.Quarantined
		out.Fixes = pr.Fixes
		if pr.Err != "" {
			out.Err = fmt.Errorf("router: node %s: %s", n.addr, pr.Err)
		}
	}
	return nil
}

// pick walks the ring clockwise from a key hash and returns the first
// usable node: in the ring, not being drained, not already tried this
// batch, and admitted by its breaker. A node's breaker is asked once
// per round, when the node is first reached, and its admission covers
// every group the round sends there: the round is one exchange, and
// plan records the answer. skipped reports whether a live candidate was
// passed over because it is dead or already failed — i.e. whether
// serving at the returned node is a failover rather than a handoff
// (drained nodes left the ring; landing on their successor is the
// planned topology, not degradation).
func (r *Router) pick(rg ring, h uint64, tried map[int]bool, plan map[int]*share) (ni int, skipped bool) {
	ni = -1
	rg.walk(h, func(cand int) bool {
		n := r.nodes[cand]
		if n.draining.Load() {
			// A stale ring snapshot can still carry a node that started
			// draining after the snapshot; passing it over is the
			// planned handoff, not a failure.
			return true
		}
		if tried[cand] {
			skipped = true
			return true
		}
		sh, asked := plan[cand]
		if !asked {
			if epoch, ok := n.br.allow(); ok {
				sh = &share{epoch: epoch}
			}
			plan[cand] = sh
		}
		if sh == nil {
			skipped = true
			return true
		}
		ni = cand
		return false
	})
	return ni, skipped
}

// Drain performs a planned membership change: the node leaves the ring
// (no new batches route to it), then checkpoints every resident session
// through its store, so the drained beacons restore bit-exactly on
// whichever surviving node their key now maps to. Returns how many
// sessions the node drained. The node's backend stays open — a drained
// node can be re-admitted in a future deployment by building a new
// router over it.
func (r *Router) Drain(ctx context.Context, addr string) (int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, ErrClosed
	}
	var n *node
	for _, c := range r.nodes {
		if c.addr == addr {
			n = c
			break
		}
	}
	if n == nil {
		r.mu.Unlock()
		return 0, fmt.Errorf("router: unknown node %q", addr)
	}
	if n.draining.Load() {
		r.mu.Unlock()
		return 0, fmt.Errorf("router: node %q already drained", addr)
	}
	n.draining.Store(true)
	r.rebuildRingLocked()
	r.mu.Unlock()

	r.met.drains.Inc()
	count, err := n.be.Drain(ctx)
	n.drained.Add(int64(count))
	r.met.drainedSessions.Add(int64(count))
	if err != nil {
		// The node is out of the ring regardless — its beacons must not
		// keep landing on a node that failed to drain — but undrained
		// sessions mean un-checkpointed state, so surface it loudly.
		return count, fmt.Errorf("router: drain %s: %w", addr, err)
	}
	return count, nil
}

// rebuildRingLocked recomputes the ring over the non-draining nodes and
// records the churn. Callers hold r.mu.
func (r *Router) rebuildRingLocked() {
	members := make(map[int]string, len(r.nodes))
	for _, n := range r.nodes {
		if !n.draining.Load() {
			members[n.idx] = n.addr
		}
	}
	r.ring = buildRing(members)
	r.met.ringNodes.Set(int64(len(members)))
	r.met.ringChurn.Inc()
	r.met.rebalanceVNodes.Add(ringVNodes)
}

// Nodes reports every configured node's membership state, in the order
// the addresses were given.
func (r *Router) Nodes() []NodeStatus {
	out := make([]NodeStatus, len(r.nodes))
	for i, n := range r.nodes {
		st := NodeStatus{Addr: n.addr, Drained: int(n.drained.Load())}
		switch {
		case n.draining.Load():
			st.State = "drained"
		default:
			switch n.br.current() {
			case breakerOpen:
				st.State = "down"
			case breakerHalfOpen:
				st.State = "probing"
			default:
				st.State = "up"
			}
		}
		out[i] = st
	}
	return out
}

// Close releases every node connection. Idempotent; PushBatch and Drain
// return ErrClosed afterwards.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	errs := make([]error, 0, len(r.nodes))
	for _, n := range r.nodes {
		if err := n.be.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
