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
// subscribe op: after the locb2 hello, a subscriber sends
// {"op":"subscribe","from":N} (bfJSON-wrapped) and the connection
// becomes a one-way stream of bfStreamBatch frames.
//
// Every batch carries a sequence number and the server retains the
// session's history. The history is the only delivery path: each
// subscriber reads it through its own cursor, starting after batch N,
// so a live subscriber gets every batch exactly once and in order no
// matter how fast the target publishes, and a resumed one gets the rest
// of the session the same way. Subscribe reconnects automatically when
// the TCP connection drops mid-session, resuming from the last batch it
// delivered instead of losing the measurement.

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
const StreamIdleTimeout = 30 * time.Second

// Subscribers returns how many subscribers are reading the session
// history through their cursors. A subscriber counts from the moment
// its subscribe frame has been accepted until its stream ends, so a
// publisher can wait for listeners before pushing data.
func (s *Server) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.subs
}

// Publish appends one batch to the session history, which every
// subscriber reads through its own cursor. Non-finite RSS/motion values
// are dropped at this boundary, so a degraded sensor feed never reaches
// the observer's tracker. Publish never blocks on a subscriber: a slow
// one falls behind in the history, and one that stops reading is
// evicted by the write deadline. A final batch ends the session;
// Publish then reports ErrStreamClosed.
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

// publishLocked numbers b, appends it to the history and wakes every
// cursor waiting for it by closing s.grown, which it replaces for the
// next batch. A final batch ends the session.
func (s *Server) publishLocked(b StreamBatch) {
	b.Seq = len(s.history) + 1
	s.history = append(s.history, b)
	close(s.grown)
	s.grown = make(chan struct{})
	if b.Final {
		s.ended = true
	}
}

// serveStream runs a subscribe exchange to its end. Its cursor sends
// history[next] for next = from, from+1, …, waits for the next publish
// once it has caught up, and returns after sending the final batch or
// when a write fails. The history is append-only, so a snapshot of it
// stays valid unlocked; the wake channel is read under the same lock as
// the snapshot, so no publish can fall between them.
func (s *Server) serveStream(conn net.Conn, w *wireWriter, from int) {
	s.mu.Lock()
	if from > 0 {
		// A resuming subscriber: how much history it had to recover.
		metResumeDepth.Observe(float64(max(len(s.history)-from, 0)))
	}
	s.subs++
	s.mu.Unlock()
	metSubsActive.Add(1)
	defer func() {
		s.mu.Lock()
		s.subs--
		s.mu.Unlock()
		metSubsActive.Add(-1)
	}()

	next := max(from, 0) // from comes off the wire
	for {
		s.mu.Lock()
		history, grown, ended := s.history, s.grown, s.ended
		s.mu.Unlock()
		for ; next < len(history); next++ {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			if err := w.writeStreamBatch(&history[next]); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					// A slow reader stalled the write past its deadline:
					// evicted, not merely disconnected.
					metConnsEvicted.Inc()
				}
				return
			}
			if history[next].Final {
				return
			}
		}
		if ended {
			return // resumed past the final batch
		}
		// Not s.closed: Shutdown publishes the terminal draining batch
		// after closing it, and that batch is what ends the cursor.
		<-grown
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

// dialSubscribe opens a locb2 connection and sends the subscribe frame.
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
