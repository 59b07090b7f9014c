package netproto

import (
	"bufio"
	"context"
	"errors"
	"net"
	"time"
)

// Streaming extends the bundle exchange with a live mode: during a
// continuous tracking session the target pushes (RSS, motion) batches as
// they are produced instead of one bundle at the end — what the
// observer's sliding-window tracker consumes. It is the Server's
// subscribe op: after the locb1 hello, a subscriber sends
// {"op":"subscribe","from":N} (bfJSON-wrapped) and the connection
// becomes a one-way stream of bfStreamBatch frames.
//
// Every batch carries a sequence number and the server retains the
// session's history, so the stream is resumable: the server replays
// everything after batch N before going live. Subscribe reconnects
// automatically when the TCP connection drops mid-session, resuming from
// the last batch it delivered instead of losing the measurement.

// StreamBatch is one live update from the target.
type StreamBatch struct {
	Seq    int           `json:"seq"`
	RSS    []TimedRSS    `json:"rss,omitempty"`
	Motion []MotionPoint `json:"motion,omitempty"`
	// Final marks the last batch of the session.
	Final bool `json:"final,omitempty"`
	// Draining marks a terminal batch emitted because the server is
	// shutting down rather than because the measurement ended. A
	// consumer that sees it can checkpoint and re-subscribe to the
	// restarted server with its last sequence number.
	Draining bool `json:"draining,omitempty"`
}

// subscribeReq is the frame a subscriber sends after its hello. From is
// the last sequence number it already holds (0 for a fresh session).
type subscribeReq struct {
	Op   string `json:"op"`
	From int    `json:"from"`
}

// ErrStreamClosed is returned after the stream has been closed.
var ErrStreamClosed = errors.New("netproto: stream closed")

// StreamIdleTimeout is how long a subscriber waits for the next batch
// before treating the connection as dead (and reconnecting).
var StreamIdleTimeout = 30 * time.Second

// SubscriberSkips returns how many live batches were skipped because a
// subscriber's buffer was full. Skipped batches stay in the history, so
// the subscriber recovers them on resume.
func (s *Server) SubscriberSkips() int64 { return s.skips.Load() }

// Subscribers returns how many subscribers are currently registered for
// live batches. A subscriber counts from the moment its subscribe frame
// has been accepted, so a publisher can wait for listeners before
// pushing data it does not want replayed from history.
func (s *Server) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Publish sends one batch to every current subscriber and appends it to
// the session history for resumption. Non-finite RSS/motion values are
// dropped at this boundary, so a degraded sensor feed never reaches the
// observer's tracker. Slow subscribers whose buffers are full are
// skipped live — they recover the batch on reconnect, since it stays in
// the history. A final batch ends the session; Publish then reports
// ErrStreamClosed.
func (s *Server) Publish(rss []TimedRSS, motion []MotionPoint, final bool) error {
	rss, motion = sanitizeRSS(rss), sanitizeMotion(motion)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return ErrStreamClosed
	}
	s.publishLocked(StreamBatch{RSS: rss, Motion: motion, Final: final})
	return nil
}

// publishLocked numbers b, appends it to the history and offers it to
// every live subscriber, skipping (and counting) those whose buffers are
// full. A final batch closes every subscriber channel and ends live
// registration; later subscribers are served the history only.
func (s *Server) publishLocked(b StreamBatch) {
	b.Seq = len(s.history) + 1
	s.history = append(s.history, b)
	for _, ch := range s.subs {
		select {
		case ch <- b:
		default: // drop for this subscriber; history covers it
			s.skips.Add(1)
			metSubSkips.Inc()
		}
	}
	if b.Final {
		s.ended = true
		for conn, ch := range s.subs {
			close(ch)
			delete(s.subs, conn)
		}
	}
}

// serveStream runs a subscribe exchange to its end: replay the history
// after batch from, then forward live batches until the session ends or
// a write fails.
func (s *Server) serveStream(conn net.Conn, w *wireWriter, from int) {
	// Snapshot the history and register for live batches under one lock
	// acquisition, so no batch can fall between replay and live. The
	// history is append-only, so the snapshot stays valid unlocked.
	s.mu.Lock()
	replay := s.history
	var ch chan StreamBatch
	if !s.ended {
		ch = make(chan StreamBatch, s.cfg.SubBuffer)
		s.subs[conn] = ch
	}
	s.mu.Unlock()
	if from > 0 {
		// A resuming subscriber: how much history it had to recover.
		metResumeDepth.Observe(float64(max(len(replay)-from, 0)))
	}
	if ch != nil {
		metSubsActive.Add(1)
		defer func() {
			s.mu.Lock()
			delete(s.subs, conn)
			s.mu.Unlock()
			metSubsActive.Add(-1)
		}()
	}

	lastSent := from
	send := func(b StreamBatch) bool {
		if b.Seq <= lastSent {
			return true // already delivered (replay/live overlap)
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := w.writeStreamBatch(&b); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// A slow reader stalled the write past its deadline:
				// evicted, not merely disconnected.
				metConnsEvicted.Inc()
			}
			return false
		}
		lastSent = b.Seq
		return !b.Final
	}
	for _, b := range replay {
		if !send(b) {
			return
		}
	}
	if ch == nil {
		return // session over: replay-only subscriber
	}
	for b := range ch {
		if !send(b) {
			return
		}
	}
}

// Subscribe dials a Server and delivers its live stream in order on the
// returned channel until the stream ends or the context is cancelled. A
// dropped connection is re-dialled with backoff and the stream resumed
// from the last delivered batch; duplicates are filtered by sequence
// number, so the consumer sees each batch exactly once. The channel is
// closed when the subscription ends.
func Subscribe(ctx context.Context, addr string) (<-chan StreamBatch, error) {
	sc, err := dialSubscribe(ctx, addr, 0)
	if err != nil {
		return nil, err
	}
	out := make(chan StreamBatch, 16)
	go func() {
		defer close(out)
		last := 0
		policy := DefaultRetry()
		for {
			last, err = pump(ctx, sc, last, out)
			sc.conn.Close()
			if err == nil || ctx.Err() != nil {
				return // clean end of stream, or caller gave up
			}
			// Connection died mid-session: reconnect and resume.
			reErr := policy.Do(ctx, func() error {
				var dErr error
				sc, dErr = dialSubscribe(ctx, addr, last)
				return dErr
			})
			if reErr != nil {
				return
			}
			metReconnects.Inc()
		}
	}()
	return out, nil
}

// subConn is one subscriber connection.
type subConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// dialSubscribe opens a locb1 connection and sends the subscribe frame.
func dialSubscribe(ctx context.Context, addr string, from int) (*subConn, error) {
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	sc := &subConn{conn: conn, br: bufio.NewReader(conn)}
	if err := hello(ctx, conn, sc.br); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Now().Add(FrameTimeout))
	fb := getFrameBuf()
	err = writeBinJSON(conn, fb, subscribeReq{Op: "subscribe", From: from})
	putFrameBuf(fb)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return sc, nil
}

// pump reads batches from one connection into out until the stream ends
// (nil error), the context is cancelled (nil), or the connection fails
// (the read error). It returns the last sequence number delivered.
func pump(ctx context.Context, sc *subConn, last int, out chan<- StreamBatch) (int, error) {
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	for {
		dl := time.Now().Add(StreamIdleTimeout)
		if cdl, ok := ctx.Deadline(); ok && cdl.Before(dl) {
			dl = cdl
		}
		sc.conn.SetReadDeadline(dl)
		var b StreamBatch
		body, err := readFrameBody(sc.br, fb)
		if err == nil {
			err = decodeSubFrame(body, &b)
		}
		if err != nil {
			if ctx.Err() != nil {
				return last, nil
			}
			return last, err
		}
		accountFrameIn(len(body))
		if b.Seq <= last {
			continue // duplicate from a replay overlap
		}
		select {
		case out <- b:
			last = b.Seq
		case <-ctx.Done():
			return last, nil
		}
		if b.Final {
			return last, nil
		}
	}
}

// decodeSubFrame decodes one stream frame: a batch or a typed error.
func decodeSubFrame(body []byte, b *StreamBatch) error {
	if len(body) == 0 {
		return errBinMalformed
	}
	switch body[0] {
	case bfStreamBatch:
		return decodeStreamBatch(body[1:], b)
	case bfError:
		return decodeError("stream", body)
	default:
		return errBinMalformed
	}
}
