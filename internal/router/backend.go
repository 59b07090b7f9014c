package router

import (
	"context"
	"errors"
	"sync"

	"locble/internal/fleet"
	"locble/internal/netproto"
	"locble/internal/obs"
)

// Backend is one fleet node as the router sees it: batched ingest plus
// the drain handoff. The production implementation keeps one persistent
// netproto fleet connection and multiplexes concurrent exchanges onto
// it through the client's pipelining window; tests may substitute
// in-process fakes. Implementations must be safe for concurrent use —
// overlapping PushBatch calls push to the same node at the same time.
type Backend interface {
	Push(ctx context.Context, obs []fleet.Obs) ([]netproto.PushResult, error)
	Drain(ctx context.Context) (int, error)
	Close() error
}

// dialBackend is the wire Backend: a lazily-dialed, persistent
// netproto.FleetClient shared by all concurrent exchanges. A failed
// exchange closes the connection (the pipeline is poisoned — the
// stream position is unknown) and the next call redials; the router's
// breaker decides whether that next call happens at all, so a dead
// node costs one dial per probe, not per batch. The one failure that
// redials at once is a connection the node closed while idle: nothing
// was sent on it, so the exchange is resent on a fresh connection.
type dialBackend struct {
	addr string

	// reconnects counts successful redials after a dropped connection
	// (set by New once the router's registry exists; nil in tests).
	reconnects *obs.Counter

	mu     sync.Mutex
	cl     *netproto.FleetClient
	dialed bool // a connection has been established before
	closed bool
}

// client returns the cached connection, dialing if needed. The dial
// happens under b.mu — concurrent exchanges wait rather than stampede
// the node with parallel dials.
func (b *dialBackend) client(ctx context.Context) (*netproto.FleetClient, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, netproto.ErrClientClosed
	}
	if b.cl != nil {
		return b.cl, nil
	}
	cl, err := netproto.DialFleet(ctx, b.addr)
	if err != nil {
		return nil, err
	}
	if b.dialed && b.reconnects != nil {
		b.reconnects.Inc()
	}
	b.dialed = true
	b.cl = cl
	return cl, nil
}

// dropIf discards the cached connection after a failed exchange — but
// only if it is still the one the failure happened on. A concurrent
// caller may have dropped it and redialed already; closing the
// replacement would orphan its in-flight exchanges.
func (b *dialBackend) dropIf(cl *netproto.FleetClient) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cl == cl {
		b.cl.Close()
		b.cl = nil
	}
}

// exchange runs do on the cached connection, dropping the connection if
// it fails. A netproto.ErrPeerClosed failure wrote nothing, so it is
// resent once on a fresh connection; any other failure may have reached
// the node and is returned for the router to fail over.
func exchange[T any](ctx context.Context, b *dialBackend, do func(*netproto.FleetClient) (T, error)) (T, error) {
	for resent := false; ; resent = true {
		cl, err := b.client(ctx)
		if err != nil {
			var zero T
			return zero, err
		}
		v, err := do(cl)
		if err == nil {
			return v, nil
		}
		b.dropIf(cl)
		if resent || !errors.Is(err, netproto.ErrPeerClosed) {
			return v, err
		}
	}
}

// Push implements Backend over the push exchange. Concurrent calls
// pipeline onto the shared connection.
func (b *dialBackend) Push(ctx context.Context, obs []fleet.Obs) ([]netproto.PushResult, error) {
	return exchange(ctx, b, func(cl *netproto.FleetClient) ([]netproto.PushResult, error) {
		return cl.Push(ctx, obs)
	})
}

// Drain implements Backend over the drain exchange. It rides the same
// pipeline as pushes, so it is ordered after every push already written.
func (b *dialBackend) Drain(ctx context.Context) (int, error) {
	return exchange(ctx, b, func(cl *netproto.FleetClient) (int, error) {
		return cl.Drain(ctx)
	})
}

// Close implements Backend.
func (b *dialBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	if b.cl == nil {
		return nil
	}
	err := b.cl.Close()
	b.cl = nil
	return err
}
