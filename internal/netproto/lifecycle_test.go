package netproto

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locble/internal/fleet"
	"locble/internal/obs"
	"locble/internal/testutil"
)

// quietLogf silences listener-error and panic reports in tests that
// inject failures on purpose.
func quietLogf(string, ...any) {}

// rawFetch drives one fetch exchange over an already-open connection.
func rawFetch(t *testing.T, conn net.Conn, br *bufio.Reader) TraceBundle {
	t.Helper()
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if err := WriteFrame(conn, map[string]string{"op": "fetch"}); err != nil {
		t.Fatalf("write fetch: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b TraceBundle
	if err := ReadFrame(br, &b); err != nil {
		t.Fatalf("read bundle: %v", err)
	}
	return b
}

// waitSubscribers waits until srv has n live subscribers registered:
// Subscribe returns before the server has read the subscribe frame.
func waitSubscribers(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Subscribers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d subscribers registered", srv.Subscribers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// subscribeAll subscribes to srv and collects the whole stream.
func subscribeAll(ctx context.Context, srv *Server) ([]StreamBatch, error) {
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		return nil, err
	}
	var got []StreamBatch
	for b := range ch {
		got = append(got, b)
	}
	return got, nil
}

// TestServerRecoversHandlerPanic: a panic inside a connection handler
// must close only that connection — the server keeps serving, the
// client's retry (Fetch's policy, Subscribe's reconnect) gets a healthy
// handler, and the process-wide panic counter records the recovery.
func TestServerRecoversHandlerPanic(t *testing.T) {
	for _, op := range []string{"fetch", "subscribe"} {
		t.Run(op, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			srv, err := NewServerWithConfig("tgt", 0, ServerConfig{Logf: quietLogf})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.SetBundle(testBundle())
			srv.Publish([]TimedRSS{{T: 1, RSS: -60}}, nil, true)

			var calls atomic.Int32
			srv.handlerHook = func(got string) {
				if got == op && calls.Add(1) == 1 {
					panic("poisoned frame")
				}
			}

			before := metPanicsRecovered.Value()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if op == "fetch" {
				b, err := FetchWithRetry(ctx, srv.Addr(), Retry{
					MaxAttempts: 4, BaseDelay: 10 * time.Millisecond,
				})
				if err != nil {
					t.Fatalf("Fetch after handler panic: %v", err)
				}
				if b.Device != "target-phone" {
					t.Errorf("fetched %+v", b)
				}
			} else {
				got, err := subscribeAll(ctx, srv)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0].Seq != 1 {
					t.Fatalf("batches after panic recovery = %+v, want the one published", got)
				}
			}
			if calls.Load() < 2 {
				t.Errorf("%s exchanges = %d, want ≥2 (one panicked)", op, calls.Load())
			}
			if got := metPanicsRecovered.Value() - before; got < 1 {
				t.Errorf("panics.recovered delta = %d, want ≥1", got)
			}
			// One recovery, one counter: the process snapshot holds no
			// second panics counter to double-count it.
			var counters []string
			for name := range obs.Default.Snapshot().Counters {
				if strings.HasSuffix(name, "panics.recovered") {
					counters = append(counters, name)
				}
			}
			if len(counters) != 1 {
				t.Errorf("process-wide panic counters = %v, want exactly one", counters)
			}
		})
	}
}

// TestServerShedsOverConnCap: connections beyond MaxConns are rejected
// with a typed overload error — a fetch's reply or a subscriber's hello
// answer — and the slot frees once the holder leaves.
func TestServerShedsOverConnCap(t *testing.T) {
	for _, op := range []string{"fetch", "subscribe"} {
		t.Run(op, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			srv, err := NewServerWithConfig("tgt", 0, ServerConfig{MaxConns: 1, Logf: quietLogf})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.SetBundle(testBundle())
			srv.Publish([]TimedRSS{{T: 1, RSS: -60}}, nil, true)
			run := func(ctx context.Context) error {
				if op == "fetch" {
					_, err := FetchWithRetry(ctx, srv.Addr(), Retry{MaxAttempts: 1})
					return err
				}
				got, err := subscribeAll(ctx, srv)
				if err == nil && len(got) != 1 {
					err = fmt.Errorf("stream delivered %d batches, want 1", len(got))
				}
				return err
			}

			// Occupy the single slot with a live exchange.
			hold, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer hold.Close()
			rawFetch(t, hold, bufio.NewReader(hold))

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			shedBefore := metConnsShed.Value()
			if err := run(ctx); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("%s over cap = %v, want ErrOverloaded", op, err)
			}
			if metConnsShed.Value() <= shedBefore {
				t.Error("conns.shed did not increase")
			}

			// Freeing the slot restores service.
			hold.Close()
			ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel2()
			retry := Retry{MaxAttempts: 8, BaseDelay: 20 * time.Millisecond}
			if err := retry.Do(ctx2, func() error { return run(ctx2) }); err != nil {
				t.Fatalf("%s after slot freed: %v", op, err)
			}
		})
	}
}

// TestServerShutdownDrains: a graceful shutdown completes the in-flight
// exchange, wakes parked handlers, refuses new connections, and is
// idempotent.
func TestServerShutdownDrains(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetBundle(testBundle())

	// A client with a completed exchange keeps its connection open: its
	// handler is parked in the next frame read.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawFetch(t, conn, bufio.NewReader(conn))

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want nil (clean drain)", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("clean drain took %v; parked handler was not woken", d)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown = %v, want nil", err)
	}
	if _, err := net.DialTimeout("tcp", srv.Addr(), 500*time.Millisecond); err == nil {
		t.Error("dial after Shutdown succeeded, want refused")
	}
}

// TestServerShutdownForcesOnDeadline: when the drain deadline passes,
// Shutdown force-closes the stragglers and reports the context error.
func TestServerShutdownForcesOnDeadline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetBundle(testBundle())
	release := make(chan struct{})
	srv.handlerHook = func(string) {
		select {
		case <-release:
		case <-time.After(3 * time.Second):
		}
	}
	defer close(release)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	if err := WriteFrame(conn, map[string]string{"op": "fetch"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the handler enter the stall

	// Release the stalled handler shortly after the drain deadline so
	// the forced shutdown can finish waiting for it.
	go func() {
		time.Sleep(300 * time.Millisecond)
		select {
		case release <- struct{}{}:
		default:
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown past deadline = %v, want DeadlineExceeded", err)
	}
}

// TestStreamShutdownSendsDrainingFrame: a live subscriber receives a
// terminal Final+Draining batch when the server shuts down mid-session,
// then a clean channel close.
func TestStreamShutdownSendsDrainingFrame(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Publish([]TimedRSS{{T: 1, RSS: -60}}, nil, false); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	first := <-ch
	if first.Seq != 1 {
		t.Fatalf("first batch = %+v", first)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
	term, ok := <-ch
	if !ok {
		t.Fatal("stream closed without a terminal batch")
	}
	if !term.Final || !term.Draining || term.Seq != 2 {
		t.Fatalf("terminal batch = %+v, want Final+Draining seq 2", term)
	}
	if _, ok := <-ch; ok {
		t.Error("batches after the terminal draining frame")
	}
	if err := srv.Publish(nil, nil, false); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("Publish after Shutdown = %v, want ErrStreamClosed", err)
	}
}

// TestServerServesEveryOpAtOnce: one Server carries a locb1 push
// client, a plain-JSON fetch and a live subscriber at the same time, and
// one Shutdown drains all three — the subscriber's last batch is the
// draining one, and the push client finds its connection closed.
func TestServerServesEveryOpAtOnce(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, _ := newPushServer(t, ServerConfig{Logf: quietLogf})
	srv.SetBundle(testBundle())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	waitSubscribers(t, srv, 1)
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer cl.Close()
	// The fetch connection stays open after its exchange, so its handler
	// is parked in the next read when Shutdown comes.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if b := rawFetch(t, conn, bufio.NewReader(conn)); b.Device != "target-phone" {
		t.Fatalf("fetched %+v", b)
	}

	const slice = 16
	stream := fleet.SynthStream("all-ops", 3*slice, 0)
	for i := 0; i < 3; i++ {
		if err := srv.Publish([]TimedRSS{{T: float64(i), RSS: -60}}, nil, false); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
		res, err := cl.Push(ctx, stream[i*slice:(i+1)*slice])
		if err != nil || len(res) != 1 || res[0].Err != "" {
			t.Fatalf("Push %d = %+v, %v", i, res, err)
		}
		if b := <-ch; b.Seq != i+1 {
			t.Fatalf("stream batch %+v, want seq %d", b, i+1)
		}
	}

	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want a clean drain", err)
	}
	if term, ok := <-ch; !ok || !term.Final || !term.Draining || term.Seq != 4 {
		t.Fatalf("terminal batch = %+v (open %v), want Final+Draining seq 4", term, ok)
	}
	if _, ok := <-ch; ok {
		t.Error("batches after the terminal draining frame")
	}
	if _, err := cl.Push(ctx, stream[:slice]); err == nil {
		t.Error("Push after Shutdown succeeded")
	}
}

// TestStreamSlowSubscriberSkipsAndResumes: a subscriber that stops
// reading never holds up the publisher, is evicted by the write
// deadline once its socket buffers are full, and loses nothing — a
// later subscription replays every batch from the history.
func TestStreamSlowSubscriberSkipsAndResumes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{
		WriteTimeout: 150 * time.Millisecond, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The slow subscriber: says hello, subscribes, then never reads.
	// Batches are bulky so the socket buffers fill and the server's
	// writes stall.
	slow, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if err := hello(context.Background(), slow, bufio.NewReader(slow)); err != nil {
		t.Fatal(err)
	}
	if err := writeBinJSON(slow, newFrameBuf(), subscribeReq{Op: "subscribe"}); err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, srv, 1)

	evicted := metConnsEvicted.Value()
	bulk := make([]TimedRSS, 8192)
	for i := range bulk {
		bulk[i] = TimedRSS{T: float64(i), RSS: -60}
	}
	const published = 64
	start := time.Now()
	for i := 0; i < published; i++ {
		if err := srv.Publish(bulk, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("%d publishes to a stuck subscriber took %v; Publish blocked", published, d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Subscribers() != 0 || metConnsEvicted.Value() == evicted {
		if time.Now().After(deadline) {
			t.Fatalf("stuck subscriber not evicted: %d subscribers, conns.evicted delta %d",
				srv.Subscribers(), metConnsEvicted.Value()-evicted)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Publish(nil, nil, true); err != nil {
		t.Fatal(err)
	}

	// A fresh subscription replays the history: nothing was lost.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	next := 1
	for b := range ch {
		if b.Seq != next {
			t.Fatalf("replay seq %d, want %d", b.Seq, next)
		}
		next++
	}
	if next-1 != published+1 {
		t.Fatalf("replayed %d batches, want %d", next-1, published+1)
	}
}

// TestServerBackOffOnListenerError: a listener error other than the
// server's own close is logged and backed off, and the loop goes on; a
// server that closes during the backoff ends the loop at once.
func TestServerBackOffOnListenerError(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var logged atomic.Int32
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{
		Logf: func(string, ...any) { logged.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	errAccept := errors.New("accept: too many open files")
	if !srv.backOff("accept", errAccept, 1) {
		t.Fatal("backOff ended the loop of a live server")
	}
	if logged.Load() != 1 {
		t.Fatalf("listener error logged %d times, want 1", logged.Load())
	}

	// The 6th consecutive failure sleeps at least 0.8 s; Close must cut it.
	done := make(chan bool, 1)
	go func() { done <- srv.backOff("accept", errAccept, 6) }()
	for logged.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	srv.Close()
	if <-done {
		t.Fatal("backOff went on after Close")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("backOff returned %v after Close", d)
	}
}

// TestServerCutsTricklingFrame: a frame must arrive whole within
// FrameTimeout. A client that announces a 64-byte body and then sends
// it one byte every 500 ms keeps making progress, yet the server closes
// it at the frame's read deadline and frees its connection slot.
func TestServerCutsTricklingFrame(t *testing.T) {
	t.Parallel()
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	active := metConnsActive.Value()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte{0, 0, 0, 64}); err != nil {
		t.Fatal(err)
	}
	// The server sends nothing on this connection, so a read returns
	// only when the server closes it.
	cut := make(chan time.Duration, 1)
	go func() {
		conn.Read(make([]byte, 1))
		cut <- time.Since(start)
	}()
	limit := FrameTimeout + time.Second
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	timeout := time.After(limit)
trickle:
	for {
		select {
		case d := <-cut:
			t.Logf("trickling connection closed after %v", d)
			break trickle
		case <-tick.C:
			conn.Write([]byte{'x'})
		case <-timeout:
			t.Fatalf("trickling connection still open after %v", limit)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for metConnsActive.Value() != active {
		if time.Now().After(deadline) {
			t.Fatalf("conns.active = %d after the cut, want %d", metConnsActive.Value(), active)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
