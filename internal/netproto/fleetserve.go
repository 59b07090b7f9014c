// Fleet serving over the trace-exchange port: a server with an attached
// fleet.Fleet accepts a locb2 push frame carrying a mixed batch of
// fleet.Obs and answers it with one reply frame holding every beacon's
// result (fixes, lifecycle flags, per-beacon errors). The exchange
// rides the same connection lifecycle as every other op — the
// connection cap's shedding, per-frame deadlines, and graceful drain (a
// push waiting on a busy fleet shard is released through the server's
// drain context when a forced shutdown fires).
//
// The client side is pipelined: FleetClient keeps a bounded window of
// push/drain exchanges in flight on one persistent connection, with a
// reader goroutine matching reply frames to exchanges in FIFO order
// (TCP ordering plus the server's serial per-connection loop guarantee
// replies come back in request order). Push latency hides behind the
// window instead of paying a full round trip per batch.
package netproto

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"locble/internal/fleet"
)

// PushFix is one location fix a pushed batch completed.
type PushFix struct {
	T          float64 `json:"t"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	N          float64 `json:"n"`
	Gamma      float64 `json:"gamma"`
	Confidence float64 `json:"conf"`
	Mode       string  `json:"mode"`
	Samples    int     `json:"samples"`
}

// PushResult is one beacon's result in a push reply.
type PushResult struct {
	Beacon string `json:"beacon"`
	// Created / Restored report the session lifecycle event this batch
	// triggered (lazily created vs resumed from a checkpoint).
	Created  bool `json:"created,omitempty"`
	Restored bool `json:"restored,omitempty"`
	// Quarantined reports that a stored checkpoint for this beacon was
	// corrupt and has been sidelined; the session started cold instead
	// of silently resuming from bad state.
	Quarantined bool      `json:"quarantined,omitempty"`
	Fixes       []PushFix `json:"fixes,omitempty"`
	// Err is this beacon's ingest failure; the other beacons in the
	// batch still ran.
	Err string `json:"error,omitempty"`
}

// SetFleet attaches a fleet, enabling batched ingest through locb2 push
// frames on this server. Pass nil to detach (pushes are then refused).
// Safe for concurrent use; the caller keeps ownership of the fleet and
// is responsible for closing it after the server shuts down.
func (s *Server) SetFleet(f *fleet.Fleet) {
	s.mu.Lock()
	s.fleet = f
	s.mu.Unlock()
}

// Admissible reports whether an observation crosses a push's wire
// boundary: it names a beacon and, as sanitizeRSS asks of a bundle, all
// its fields are finite (locb2 carries raw float bits). The server
// drops the rest unseen; a router drops them before grouping.
func Admissible(o fleet.Obs) bool {
	return o.Beacon != "" && isFinite(o.T) && isFinite(o.RSS) && isFinite(o.P) && isFinite(o.Q)
}

// handlePush runs one push exchange: scrub the batch in place, hand it
// to the fleet, write every beacon's result in one reply frame. Returns
// false when the connection should close.
func (s *Server) handlePush(conn net.Conn, w *wireWriter, batch []fleet.Obs) bool {
	s.mu.Lock()
	f := s.fleet
	s.mu.Unlock()
	if f == nil {
		w.writeError("no fleet attached")
		return false
	}
	kept := batch[:0]
	for _, o := range batch {
		if Admissible(o) {
			kept = append(kept, o)
		}
	}
	// The drain context releases a push waiting on a wedged fleet shard
	// when a forced shutdown fires — the exchange then reports context
	// errors instead of wedging the drain.
	res, err := f.PushBatchContext(s.drainCtx, kept)
	if err != nil {
		w.writeError(err.Error())
		return false
	}
	out := make([]PushResult, len(res))
	for i := range res {
		r := &res[i]
		out[i] = PushResult{Beacon: r.Beacon, Created: r.Created, Restored: r.Restored, Quarantined: r.Quarantined}
		if len(r.Points) > 0 {
			out[i].Fixes = make([]PushFix, len(r.Points))
			for j, pt := range r.Points {
				out[i].Fixes[j] = PushFix{
					T: pt.T, X: pt.Est.X, Y: pt.Est.H,
					N: pt.Est.N, Gamma: pt.Est.Gamma,
					Confidence: pt.Est.Confidence,
					Mode:       pt.Mode.String(),
					Samples:    pt.Samples,
				}
			}
		}
		if r.Err != nil {
			out[i].Err = r.Err.Error()
		}
	}
	// The fleet's work may have used up the deadline set when the
	// request arrived; the reply gets a fresh one.
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	return w.writePushReply(out) == nil
}

// drainReply answers a {"op":"drain"} exchange: how many resident
// sessions the fleet checkpointed and evicted to its store.
type drainReply struct {
	Drained int `json:"drained"`
}

// handleDrain serves one drain exchange: the attached fleet checkpoints
// every resident session to its store and evicts it, leaving the node
// empty but serving — the handoff half of a scale-out membership
// change (the router re-admits the drained beacons elsewhere, where
// they restore from the shared store). Returns false when the
// connection should close.
func (s *Server) handleDrain(conn net.Conn, w *wireWriter) bool {
	s.mu.Lock()
	f := s.fleet
	s.mu.Unlock()
	if f == nil {
		w.writeError("no fleet attached")
		return false
	}
	n, err := f.Drain()
	if err != nil {
		w.writeError(fmt.Sprintf("drain: %v (%d sessions drained)", err, n))
		return false
	}
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	return w.writeJSONy(drainReply{Drained: n}) == nil
}

// DefaultPushWindow is a FleetClient's pipelining window: how many
// push/drain exchanges may be in flight on the connection at once.
const DefaultPushWindow = 4

// ErrClientClosed is returned by exchanges on a closed FleetClient.
var ErrClientClosed = errors.New("netproto: fleet client closed")

// ErrPeerClosed is returned by exchanges on a FleetClient whose server
// closed the connection while no exchange was pending — servers drop
// connections that stay idle past FrameTimeout. Nothing of the failed
// exchange was written, so it is safe to resend on a fresh connection.
var ErrPeerClosed = errors.New("netproto: server closed the idle connection")

// errUnsolicited reports a frame that arrived with no exchange pending.
var errUnsolicited = errors.New("netproto: unsolicited frame from server")

// fleetExchange is one in-flight request awaiting its reply frame.
type fleetExchange struct {
	op   string            // "push" or "drain"
	done chan fleetOutcome // buffered: the reader never blocks delivering
}

type fleetOutcome struct {
	results []PushResult
	drained int
	err     error
}

// FleetClient is a locb2 client for a server's batched-ingest op. It
// holds one persistent connection and pipelines exchanges over it: Push
// and PushAsync are safe for concurrent use, and up to
// DefaultPushWindow exchanges overlap on the wire. A failed exchange
// poisons the pipeline (the frame position is unknown); every pending
// and later call reports the error, and the caller re-dials.
type FleetClient struct {
	conn net.Conn
	br   *bufio.Reader

	sem        chan struct{} // pipelining window slots
	readerDone chan struct{}

	wmu   sync.Mutex // serializes frame writes + pending appends
	wfb   *frameBuf
	names []string // binary encoder intern table, guarded by wmu

	mu      sync.Mutex
	pending []*fleetExchange
	dead    error
}

// DialFleet connects to a server's TCP address for batched tracking
// ingest and opens locb2 on the connection.
func DialFleet(ctx context.Context, addr string) (*FleetClient, error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &FleetClient{
		conn:       conn,
		br:         bufio.NewReader(conn),
		sem:        make(chan struct{}, DefaultPushWindow),
		readerDone: make(chan struct{}),
		wfb:        newFrameBuf(),
	}
	switch err := hello(ctx, conn, c.br); {
	case errors.Is(err, ErrOverloaded):
		// Shed at admission: the dial still succeeds and the first
		// exchange reports the overload, as it would had the shed frame
		// answered a push.
		c.dead = fmt.Errorf("netproto: %s: %w", addr, err)
	case err != nil:
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	go c.readLoop()
	return c, nil
}

// Close closes the connection and waits for the reader goroutine to
// deliver errors to any pending exchanges and exit.
func (c *FleetClient) Close() error {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = ErrClientClosed
	}
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// failed returns the pipeline's terminal error, if any.
func (c *FleetClient) failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// poison marks the client dead and closes the connection, which fails
// the reader's read. The reader owns failing the pending exchanges — it
// may be mid-frame on one.
func (c *FleetClient) poison(err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	c.mu.Unlock()
	c.conn.Close()
}

// enqueue acquires a pipeline slot, registers the exchange with the
// reader, and writes one request frame. Registration and write happen
// under one write lock, so pending order always matches wire order —
// the invariant FIFO response matching rests on. Registering before
// writing is what makes ErrPeerClosed safe to resend: the reader only
// reports it when nothing was pending, so nothing of this exchange can
// have been written.
func (c *FleetClient) enqueue(ctx context.Context, op string, write func() error) (*fleetExchange, error) {
	if err := c.failed(); err != nil {
		return nil, err
	}
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	ex := &fleetExchange{op: op, done: make(chan fleetOutcome, 1)}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	if err := c.dead; err != nil {
		c.mu.Unlock()
		<-c.sem
		return nil, err
	}
	c.pending = append(c.pending, ex)
	// The reader waits on an idle connection without a deadline; a
	// pending exchange must answer within FrameTimeout.
	c.conn.SetReadDeadline(time.Now().Add(FrameTimeout))
	c.mu.Unlock()
	metPipelineInflight.Add(1)
	c.setWriteDeadline(ctx)
	if err := write(); err != nil {
		// A failed (possibly half-written) frame leaves the wire position
		// unknown: no later exchange can be trusted. The reader fails
		// this exchange along with the rest.
		c.poison(err)
		return nil, err
	}
	return ex, nil
}

// readLoop is the pipeline's single reader: it completes pending
// exchanges in FIFO order and, on the first failure, delivers the
// terminal error to everything still queued before exiting. Between
// exchanges it blocks on the socket itself, so a server that closes the
// idle connection is noticed at once (ErrPeerClosed) instead of by the
// next exchange.
func (c *FleetClient) readLoop() {
	defer close(c.readerDone)
	fb := newFrameBuf()
	for {
		_, err := c.br.Peek(1)
		c.mu.Lock()
		if len(c.pending) == 0 {
			switch {
			case c.dead != nil: // closed or poisoned while idle
			case err != nil:
				c.dead = ErrPeerClosed
			default:
				c.dead = errUnsolicited
				c.conn.Close()
			}
			c.mu.Unlock()
			return
		}
		ex := c.pending[0]
		c.mu.Unlock()

		out := fleetOutcome{err: err}
		if err == nil {
			out = c.readReply(fb, ex.op)
		}

		c.mu.Lock()
		c.pending = c.pending[1:]
		if out.err != nil && c.dead == nil {
			// Any exchange-level failure is terminal: either the frame
			// broke, or the server wrote an error frame — after which it
			// closes the connection anyway.
			c.dead = out.err
		}
		dead := c.dead
		var rest []*fleetExchange
		if dead != nil {
			rest, c.pending = c.pending, nil
		} else if len(c.pending) == 0 {
			c.conn.SetReadDeadline(time.Time{}) // idle again
		}
		c.mu.Unlock()

		ex.done <- out
		<-c.sem
		metPipelineInflight.Add(-1)
		if dead != nil {
			for _, r := range rest {
				r.done <- fleetOutcome{err: dead}
				<-c.sem
				metPipelineInflight.Add(-1)
			}
			return
		}
	}
}

func (c *FleetClient) setWriteDeadline(ctx context.Context) {
	dl := time.Now().Add(FrameTimeout)
	if cdl, ok := ctx.Deadline(); ok && cdl.Before(dl) {
		dl = cdl
	}
	c.conn.SetWriteDeadline(dl)
}

// writePush writes one push request frame. Callers hold c.wmu.
func (c *FleetClient) writePush(obs []fleet.Obs) error {
	c.wfb.beginFrame()
	c.wfb.b = appendPushReq(c.wfb.b, obs, &c.names)
	return flushFrame(c.conn, c.wfb.b)
}

// writeDrain writes one drain request frame. Callers hold c.wmu.
func (c *FleetClient) writeDrain() error {
	return writeBinJSON(c.conn, c.wfb, map[string]string{"op": "drain"})
}

// exchangeError types an exchange-level error frame; "overloaded" maps
// to ErrOverloaded so the caller's retry policy or breaker
// can back off on it.
func exchangeError(op, msg string) error {
	if msg == "overloaded" {
		return fmt.Errorf("netproto: %s: %w", op, ErrOverloaded)
	}
	return fmt.Errorf("netproto: %s: server error: %s", op, msg)
}

// readReply reads the one frame that answers an op exchange: a push
// reply, a drain reply or a typed error.
func (c *FleetClient) readReply(fb *frameBuf, op string) fleetOutcome {
	c.conn.SetReadDeadline(time.Now().Add(FrameTimeout))
	body, err := readFrameBody(c.br, fb)
	if err != nil {
		return fleetOutcome{err: err}
	}
	var out fleetOutcome
	switch {
	case len(body) == 0:
		return fleetOutcome{err: errBinMalformed}
	case body[0] == bfError:
		return fleetOutcome{err: decodeError(op, body)}
	case body[0] == bfPushReply && op == "push":
		out.results, out.err = decodePushReply(body[1:])
	case body[0] == bfJSON && op == "drain":
		var resp drainReply
		out.err = json.Unmarshal(body[1:], &resp)
		out.drained = resp.Drained
	default:
		return fleetOutcome{err: errBinMalformed}
	}
	if out.err == nil {
		accountFrameIn(len(body))
	}
	return out
}

// PushPending is one pipelined push in flight. Wait collects its
// result; it is not safe for concurrent use (one waiter per pending).
type PushPending struct {
	ex  *fleetExchange
	res fleetOutcome
	got bool
}

// Wait blocks until the exchange completes or ctx ends. A canceled
// Wait abandons the result but the exchange still completes on the
// wire (the reader consumes its reply frame to keep the pipeline
// frame-aligned); calling Wait again re-collects it.
func (p *PushPending) Wait(ctx context.Context) ([]PushResult, error) {
	if !p.got {
		select {
		case r := <-p.ex.done:
			p.res, p.got = r, true
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return p.res.results, p.res.err
}

// PushAsync sends one observation batch without waiting for its
// results: it blocks only while the pipeline window is full. Safe for
// concurrent use; responses match requests in send order.
func (c *FleetClient) PushAsync(ctx context.Context, obs []fleet.Obs) (*PushPending, error) {
	ex, err := c.enqueue(ctx, "push", func() error { return c.writePush(obs) })
	if err != nil {
		return nil, err
	}
	return &PushPending{ex: ex}, nil
}

// Push sends one observation batch and returns the per-beacon results
// of the server's reply: one per distinct beacon that survives the
// boundary scrub (Admissible), in first-appearance order. Per-beacon
// ingest failures are reported in each PushResult.Err; the error return
// is for exchange-level failures (overload shed, no fleet attached, a
// dropped connection, a malformed reply). Safe for concurrent use:
// concurrent pushes pipeline onto the shared connection.
func (c *FleetClient) Push(ctx context.Context, obs []fleet.Obs) ([]PushResult, error) {
	p, err := c.PushAsync(ctx, obs)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// Drain asks the server's fleet to checkpoint every resident session to
// its store and evict it, returning how many sessions were drained. The
// node keeps serving afterwards (an empty fleet); the caller owns
// re-routing the drained beacons somewhere their checkpoints can be
// restored from. A drain rides the pipeline like any exchange: it
// completes after the pushes written before it.
func (c *FleetClient) Drain(ctx context.Context) (int, error) {
	ex, err := c.enqueue(ctx, "drain", c.writeDrain)
	if err != nil {
		return 0, err
	}
	select {
	case r := <-ex.done:
		return r.drained, r.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}
