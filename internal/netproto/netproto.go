// Package netproto implements the device-to-device exchange LocBLE's
// moving-target mode needs (paper Secs. 5 and 7.1): after the measurement
// the target sends its RSS and motion traces to the observer for
// processing. The paper used UPnP; this package provides the same
// semantics with a small, self-contained protocol: UDP discovery
// (request/offer, like SSDP's M-SEARCH) plus length-prefixed frames over
// TCP. One Server answers every TCP op: the trace bundle (fetch) and
// metrics in plain JSON, and — after a locb1 hello — fleet ingest (push,
// drain) and the live trace stream (subscribe); see codec.go.
//
// The server is built for long-running serving, with one mechanism per
// job: per-frame read and write deadlines bound every connection, a
// connection cap admits (excess connections are shed with an
// "overloaded" frame), the listener loops back off errors on
// DefaultRetry's schedule, per-connection handlers are panic-isolated
// (a poisoned frame closes one connection, not the process), and
// Shutdown drains in-flight exchanges before closing.
package netproto

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"time"

	"locble/internal/fleet"
	"locble/internal/obs"
)

// Protocol constants.
const (
	// DiscoverMagic opens every discovery datagram.
	DiscoverMagic = "LOCBLE-DISCOVER/1"
	// OfferMagic opens every discovery response.
	OfferMagic = "LOCBLE-OFFER/1"
	// MaxFrameSize bounds a trace frame (guards against corrupt length
	// prefixes).
	MaxFrameSize = 16 << 20
	// FrameTimeout is the per-frame read/write deadline. Deadlines are
	// refreshed before every frame, not set once per connection, so a
	// long multi-frame exchange never times out in the middle as long as
	// each individual frame keeps moving.
	FrameTimeout = 5 * time.Second
)

// Errors.
var (
	ErrFrameTooLarge = errors.New("netproto: frame exceeds maximum size")
	ErrBadMagic      = errors.New("netproto: bad protocol magic")
	// ErrOverloaded reports a connection shed by the connection cap: the
	// server answered "overloaded" before starting the request, so it is
	// safe to retry later or elsewhere.
	ErrOverloaded = errors.New("netproto: overloaded")
)

// TimedRSS is one RSS reading in a trace bundle.
type TimedRSS struct {
	T    float64 `json:"t"`
	RSS  float64 `json:"rss"`
	Chan int     `json:"chan,omitempty"`
}

// MotionPoint is one dead-reckoned displacement sample.
type MotionPoint struct {
	T float64 `json:"t"`
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// TraceBundle is the payload the target ships to the observer after a
// measurement: its RSS observations and its own motion track.
type TraceBundle struct {
	Device string        `json:"device"`
	RSS    []TimedRSS    `json:"rss"`
	Motion []MotionPoint `json:"motion"`
}

// sanitizeRSS drops entries with non-finite fields: JSON cannot carry
// NaN/Inf, and a degraded sensor feed must lose its poisoned readings at
// the wire boundary rather than poison the whole frame.
func sanitizeRSS(in []TimedRSS) []TimedRSS {
	clean := true
	for _, r := range in {
		if !isFinite(r.T) || !isFinite(r.RSS) {
			clean = false
			break
		}
	}
	if clean {
		return in
	}
	out := make([]TimedRSS, 0, len(in))
	for _, r := range in {
		if isFinite(r.T) && isFinite(r.RSS) {
			out = append(out, r)
		}
	}
	return out
}

func sanitizeMotion(in []MotionPoint) []MotionPoint {
	clean := true
	for _, m := range in {
		if !isFinite(m.T) || !isFinite(m.X) || !isFinite(m.Y) {
			clean = false
			break
		}
	}
	if clean {
		return in
	}
	out := make([]MotionPoint, 0, len(in))
	for _, m := range in {
		if isFinite(m.T) && isFinite(m.X) && isFinite(m.Y) {
			out = append(out, m)
		}
	}
	return out
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Sanitize returns the bundle with non-finite RSS and motion entries
// removed (see sanitizeRSS). The server applies it on SetBundle and the
// stream publisher per batch.
func (b *TraceBundle) Sanitize() *TraceBundle {
	if b == nil {
		return nil
	}
	out := *b
	out.RSS = sanitizeRSS(b.RSS)
	out.Motion = sanitizeMotion(b.Motion)
	return &out
}

// WriteFrame writes one length-prefixed JSON frame. The frame is built
// in a pooled buffer with the header prepended, so each frame costs a
// single Write call and no per-frame allocation beyond what the JSON
// encoder itself needs.
func WriteFrame(w io.Writer, v any) error {
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	fb.beginFrame()
	if err := fb.encodeJSONBody(v); err != nil {
		return err
	}
	return flushFrame(w, fb.b)
}

// ReadFrame reads one length-prefixed JSON frame into v. The body is
// read into a pooled buffer (json.Unmarshal copies everything it
// keeps, so the buffer is safe to reuse immediately).
func ReadFrame(r io.Reader, v any) error {
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	body, err := readFrameBody(r, fb)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return err
	}
	accountFrameIn(len(body))
	return nil
}

// ServerConfig tunes a Server's lifecycle and overload behaviour. The
// zero value takes the defaults. A connection's life is bounded by its
// per-frame deadlines alone: every read waits at most FrameTimeout for
// a whole frame, and every write at most WriteTimeout.
type ServerConfig struct {
	// MaxConns caps concurrently served connections (default 64,
	// negative for unlimited). Connections over the cap are shed with an
	// "overloaded" error frame and closed.
	MaxConns int
	// WriteTimeout is the per-frame write deadline (default
	// FrameTimeout). Lower it to evict slow-reading clients faster; a
	// stream subscriber that stops reading is evicted by it too.
	WriteTimeout time.Duration
	// Logf receives listener-error and panic-recovery reports (default
	// log.Printf).
	Logf func(format string, args ...any)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConns == 0 {
		c.MaxConns = 64
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = FrameTimeout
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// connTable tracks a server's live connections so lifecycle control can
// reach them: admission capping, drain wake-ups, and force-close.
type connTable struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newConnTable() *connTable {
	return &connTable{conns: make(map[net.Conn]struct{})}
}

// tryAdd registers conn unless the cap (when positive) is reached.
func (t *connTable) tryAdd(conn net.Conn, max int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if max > 0 && len(t.conns) >= max {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *connTable) drop(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// expireReads wakes handlers parked in a blocking read so they can
// observe a drain in progress.
func (t *connTable) expireReads() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for c := range t.conns {
		c.SetReadDeadline(time.Now())
	}
}

func (t *connTable) closeAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for c := range t.conns {
		c.Close()
	}
}

// shedConn rejects a connection under overload in a short-lived
// goroutine tracked in wg (so drain waits for it): it first reads the
// client's request — closing with unread data would turn into a TCP
// reset that destroys the reply — then answers with one "overloaded"
// frame and closes. Both deadlines are bounded by timeout, so a shed
// lives at most ~2×timeout. The client's fetch surfaces the frame as
// ErrOverloaded, which its retry policy backs off on.
func shedConn(conn net.Conn, timeout time.Duration, wg *sync.WaitGroup) {
	metConnsShed.Inc()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(timeout))
		var req struct {
			Op string `json:"op"`
		}
		ReadFrame(bufio.NewReader(conn), &req)
		conn.SetWriteDeadline(time.Now().Add(timeout))
		WriteFrame(conn, map[string]string{"error": "overloaded"})
	}()
}

// Server announces a device and serves it: discovery datagrams on UDP,
// and on TCP the trace bundle, fleet ingest, the live trace stream and
// metrics.
type Server struct {
	DeviceName string

	cfg ServerConfig

	mu     sync.Mutex
	bundle *TraceBundle
	fleet  *fleet.Fleet // attached via SetFleet; nil refuses "push"
	// The live stream session (stream.go): the history every subscriber
	// reads through its own cursor, the channel publishLocked closes
	// (and replaces) to wake cursors that have caught up, the count of
	// live cursors, and whether a final batch ended the session.
	history []StreamBatch
	grown   chan struct{}
	subs    int
	ended   bool

	// drainCtx is canceled when a forced shutdown fires, releasing push
	// exchanges waiting on a busy fleet shard so the drain can't wedge
	// on work that is no longer wanted.
	drainCtx    context.Context
	drainCancel context.CancelFunc

	tcp net.Listener
	udp net.PacketConn

	conns *connTable

	wg       sync.WaitGroup
	stopOnce sync.Once
	closed   chan struct{}

	// handlerHook, if set, observes every decoded op (subscribe
	// included) before dispatch. Tests inject panics and stalls through
	// it; it must be set before the first connection arrives.
	handlerHook func(op string)
}

// SetBundle publishes the bundle served to clients (replacing any prior
// one). Non-finite entries are dropped at this boundary (the fetch reply
// is JSON, which cannot carry them). Safe for concurrent use.
func (s *Server) SetBundle(b *TraceBundle) {
	b = b.Sanitize()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bundle = b
}

// NewServer starts a server for the named device on loopback with the
// default lifecycle config. Pass port 0 for an ephemeral port; the
// chosen addresses are available via Addr and DiscoveryAddr.
func NewServer(device string, port int) (*Server, error) {
	return NewServerWithConfig(device, port, ServerConfig{})
}

// NewServerWithConfig is NewServer with explicit lifecycle and overload
// controls.
func NewServerWithConfig(device string, port int, cfg ServerConfig) (*Server, error) {
	tcp, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, fmt.Errorf("netproto: listen tcp: %w", err)
	}
	udp, err := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		// Ephemeral UDP port independent of the TCP one is fine.
		udp, err = net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			tcp.Close()
			return nil, fmt.Errorf("netproto: listen udp: %w", err)
		}
	}
	s := &Server{
		DeviceName: device,
		cfg:        cfg.withDefaults(),
		tcp:        tcp,
		udp:        udp,
		conns:      newConnTable(),
		closed:     make(chan struct{}),
		grown:      make(chan struct{}),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.wg.Add(2)
	go s.serveTCP()
	go s.serveUDP()
	return s, nil
}

// Addr returns the TCP trace-exchange address.
func (s *Server) Addr() string { return s.tcp.Addr().String() }

// DiscoveryAddr returns the UDP discovery address.
func (s *Server) DiscoveryAddr() string { return s.udp.LocalAddr().String() }

// Close force-stops the server: listeners close, live connections are
// closed immediately, and all goroutines are waited for. Use Shutdown
// to drain in-flight exchanges instead.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}

// Shutdown gracefully stops the server: it stops accepting, lets each
// in-flight frame exchange complete, and waits for the per-connection
// handlers to drain. If the stream session is still live, a terminal
// batch with Final and Draining set is published first, so subscribers
// learn the stream ended because of shutdown, not measurement end. If
// ctx ends first, the remaining connections are force-closed and the
// context's error is returned; a clean drain returns nil. Safe to call
// multiple times and concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	first := false
	s.stopOnce.Do(func() { close(s.closed); first = true })
	s.tcp.Close()
	s.udp.Close()
	start := time.Now()
	if first {
		s.mu.Lock()
		if !s.ended {
			s.publishLocked(StreamBatch{Final: true, Draining: true})
		}
		s.mu.Unlock()
	}
	// Handlers parked between frames wake via an expired read and then
	// observe the drain; handlers mid-exchange finish their frame.
	s.conns.expireReads()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		// Release push exchanges waiting on a busy fleet shard before
		// force-closing: their handlers block in the fleet, not in conn
		// I/O, so closing the sockets alone would not unwedge them.
		s.drainCancel()
		s.conns.closeAll()
		<-done
	}
	s.drainCancel()
	if first {
		metDrainSeconds.Observe(time.Since(start).Seconds())
	}
	return forced
}

func (s *Server) serveUDP() {
	defer s.wg.Done()
	buf := make([]byte, 512)
	for fails := 0; ; {
		n, addr, err := s.udp.ReadFrom(buf)
		if err != nil {
			fails++
			if !s.backOff("discovery", err, fails) {
				return
			}
			continue
		}
		fails = 0
		if string(buf[:n]) != DiscoverMagic {
			continue
		}
		offer := fmt.Sprintf("%s %s %s", OfferMagic, s.DeviceName, s.Addr())
		s.udp.WriteTo([]byte(offer), addr)
	}
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for fails := 0; ; {
		conn, err := s.tcp.Accept()
		if err != nil {
			fails++
			if !s.backOff("accept", err, fails) {
				return
			}
			continue
		}
		fails = 0
		if s.admit(conn) {
			s.wg.Add(1)
			go s.handleConn(conn)
		}
	}
}

// backOff handles the n-th consecutive error of a listener loop. While
// the server is closing the error is the listener's own close, and
// backOff reports false at once. Otherwise it logs the error and sleeps
// DefaultRetry's delay for attempt n, waking early (and reporting
// false) if the server closes meanwhile.
func (s *Server) backOff(loop string, err error, n int) bool {
	select {
	case <-s.closed:
		return false
	default:
	}
	d := DefaultRetry().Delay(n)
	s.cfg.Logf("netproto: %s: %v (failure %d, retrying in %v)", loop, err, n, d)
	select {
	case <-time.After(d):
		return true
	case <-s.closed:
		return false
	}
}

// admit applies the connection cap, shedding the connection when the
// server is full.
func (s *Server) admit(conn net.Conn) bool {
	if !s.conns.tryAdd(conn, s.cfg.MaxConns) {
		shedConn(conn, s.cfg.WriteTimeout, &s.wg)
		return false
	}
	metConnsActive.Add(1)
	return true
}

// handleConn serves one connection. It is panic-isolated (a handler
// panic closes this connection only), bounded by per-frame deadlines (a
// frame must arrive whole within FrameTimeout and leave within
// WriteTimeout), and drain-aware (between frames it observes shutdown
// and exits). A subscribe turns the connection into a live stream for
// the rest of its life.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.conns.drop(conn)
		metConnsActive.Add(-1)
	}()
	defer func() {
		if v := recover(); v != nil {
			metPanicsRecovered.Inc()
			s.cfg.Logf("netproto: recovered panic in connection handler: %v", v)
		}
	}()

	// Deadlines are per frame, refreshed before each read and write: a
	// connection-scoped deadline would expire in the middle of a long
	// multi-frame exchange.
	rd := &connReader{br: bufio.NewReader(conn), fb: getFrameBuf()}
	defer putFrameBuf(rd.fb)
	w := &wireWriter{w: conn, fb: getFrameBuf()}
	defer putFrameBuf(w.fb)
	var req wireReq
	first := true
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		conn.SetReadDeadline(time.Now().Add(FrameTimeout))
		if err := rd.read(w.binary, &req); err != nil {
			return
		}
		if hook := s.handlerHook; hook != nil {
			hook(req.Op)
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if req.Op == "hello" {
			// Codec negotiation is valid only as a connection's first
			// frame; a hello mid-stream means the peer lost frame sync,
			// and the connection is shed with a typed error frame.
			if !first {
				metCodecRejected.Inc()
				w.writeError("unexpected hello mid-stream")
				return
			}
			first = false
			if !negotiateHello(w, req.Codec) {
				return
			}
			continue
		}
		first = false
		if !w.binary && (req.Op == "push" || req.Op == "subscribe") {
			// The hot frames exist only in locb1: a connection that never
			// said hello cannot carry them.
			metCodecRejected.Inc()
			w.writeError(req.Op + " requires the " + CodecBinary + " codec: open with a hello")
			return
		}
		switch req.Op {
		case "fetch":
			s.mu.Lock()
			b := s.bundle
			s.mu.Unlock()
			if b == nil {
				b = &TraceBundle{Device: s.DeviceName}
			}
			if err := w.writeJSONy(b); err != nil {
				return
			}
		case "push":
			if !s.handlePush(conn, w, req.Obs) {
				return
			}
		case "drain":
			// Scale-out handoff: checkpoint-and-evict every resident
			// fleet session so a router can re-admit the beacons on the
			// surviving nodes (see fleetserve.go).
			if !s.handleDrain(conn, w) {
				return
			}
		case "subscribe":
			// A stream reads nothing more from its subscriber; the
			// per-batch write deadlines police it.
			s.serveStream(conn, w, req.From)
			return
		case "metrics":
			// Expvar-style introspection: the process-wide metric
			// snapshot as one JSON frame, so an operator (or test)
			// can scrape transport and pipeline counters over the
			// same trace-exchange port.
			if err := w.writeJSONy(obs.Default.Snapshot()); err != nil {
				return
			}
		default:
			w.writeError("unknown op")
			return
		}
	}
}

// ServiceInfo describes a discovered device.
type ServiceInfo struct {
	Device string
	Addr   string // TCP trace-exchange address
}

// Discover probes a list of UDP discovery addresses and returns the
// devices that answered within the context deadline. Probes are re-sent
// with growing intervals to unanswered addresses — UDP datagrams are
// fire-and-forget, so a single lost probe must not hide a device for the
// whole discovery window. (On a real phone deployment this would be a
// broadcast; loopback simulations enumerate candidate ports.)
func Discover(ctx context.Context, addrs []string) ([]ServiceInfo, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	if dl, ok := ctx.Deadline(); ok {
		deadline = dl
	}

	targets := make([]*net.UDPAddr, 0, len(addrs))
	for _, a := range addrs {
		if ua, err := net.ResolveUDPAddr("udp", a); err == nil {
			targets = append(targets, ua)
		}
	}
	probe := func() {
		for _, ua := range targets {
			conn.WriteTo([]byte(DiscoverMagic), ua)
		}
	}
	probe()

	policy := DefaultRetry()
	var found []ServiceInfo
	seen := make(map[string]bool)
	buf := make([]byte, 512)
	reprobe := 1
	next := time.Now().Add(policy.Delay(reprobe))
	for len(found) < len(targets) {
		// Read in short slices so probes can be re-sent between reads.
		slice := time.Now().Add(150 * time.Millisecond)
		if slice.After(deadline) {
			slice = deadline
		}
		conn.SetReadDeadline(slice)
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			if time.Now().After(deadline) {
				break
			}
			if time.Now().After(next) {
				probe()
				reprobe++
				next = time.Now().Add(policy.Delay(reprobe))
			}
			continue
		}
		var magic, device, addr string
		if _, err := fmt.Sscanf(string(buf[:n]), "%s %s %s", &magic, &device, &addr); err != nil {
			continue
		}
		if magic != OfferMagic || seen[device+"|"+addr] {
			continue
		}
		seen[device+"|"+addr] = true
		found = append(found, ServiceInfo{Device: device, Addr: addr})
	}
	return found, nil
}

// Fetch retrieves the trace bundle from a device's TCP address, retrying
// refused or mid-frame-dropped connections with the default backoff
// policy until the context deadline.
func Fetch(ctx context.Context, addr string) (*TraceBundle, error) {
	return FetchWithRetry(ctx, addr, DefaultRetry())
}

// FetchWithRetry is Fetch under an explicit retry policy. A
// Retry{MaxAttempts: 1} makes it single-shot.
func FetchWithRetry(ctx context.Context, addr string, policy Retry) (*TraceBundle, error) {
	var b *TraceBundle
	err := policy.Do(ctx, func() error {
		var ferr error
		b, ferr = fetchOnce(ctx, addr)
		return ferr
	})
	return b, err
}

// FetchMetrics retrieves a server's process-wide metric snapshot (the
// "metrics" op) from its TCP trace-exchange address.
func FetchMetrics(ctx context.Context, addr string) (*obs.Snapshot, error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	dl := time.Now().Add(FrameTimeout)
	if cdl, ok := ctx.Deadline(); ok && cdl.Before(dl) {
		dl = cdl
	}
	conn.SetWriteDeadline(dl)
	if err := WriteFrame(conn, map[string]string{"op": "metrics"}); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(dl)
	var snap obs.Snapshot
	if err := ReadFrame(bufio.NewReader(conn), &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// fetchOnce performs one fetch exchange with per-frame deadlines.
func fetchOnce(ctx context.Context, addr string) (*TraceBundle, error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	frameDeadline := func() time.Time {
		dl := time.Now().Add(FrameTimeout)
		if cdl, ok := ctx.Deadline(); ok && cdl.Before(dl) {
			dl = cdl
		}
		return dl
	}
	conn.SetWriteDeadline(frameDeadline())
	if err := WriteFrame(conn, map[string]string{"op": "fetch"}); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(frameDeadline())
	var resp struct {
		TraceBundle
		Err string `json:"error"`
	}
	if err := ReadFrame(bufio.NewReader(conn), &resp); err != nil {
		return nil, err
	}
	switch resp.Err {
	case "":
		return &resp.TraceBundle, nil
	case "overloaded":
		// A shed connection: typed so the retry policy (or the caller's
		// breaker) can back off and try again once load clears.
		return nil, fmt.Errorf("netproto: fetch %s: %w", addr, ErrOverloaded)
	default:
		return nil, fmt.Errorf("netproto: fetch %s: server error: %s", addr, resp.Err)
	}
}
