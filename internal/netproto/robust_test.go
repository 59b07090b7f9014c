package netproto

import (
	"context"
	"encoding/binary"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestFetchFlakyListener: the target's server is slow to come up — the
// first connections are accepted and dropped on the floor. Fetch must
// ride it out with backoff and still return the bundle within the
// context deadline.
func TestFetchFlakyListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var conns atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if conns.Add(1) <= 2 {
				conn.Close() // flaky phase: drop without answering
				continue
			}
			go func() {
				defer conn.Close()
				var req struct {
					Op string `json:"op"`
				}
				if err := ReadFrame(conn, &req); err != nil || req.Op != "fetch" {
					return
				}
				WriteFrame(conn, testBundle())
			}()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b, err := Fetch(ctx, ln.Addr().String())
	if err != nil {
		t.Fatalf("Fetch through flaky listener: %v", err)
	}
	if b.Device != "target-phone" || len(b.RSS) != 2 {
		t.Errorf("fetched %+v", b)
	}
	if n := conns.Load(); n < 3 {
		t.Errorf("listener saw %d connections, want ≥3 (two dropped)", n)
	}
}

func TestFetchRetryExhaustion(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err := FetchWithRetry(ctx, "127.0.0.1:1", Retry{
		MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("want error after exhausting attempts")
	}
	if time.Since(start) > time.Second {
		t.Errorf("3 short-backoff attempts took %v", time.Since(start))
	}
}

func TestRetryDelayBounds(t *testing.T) {
	r := Retry{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second,
		Multiplier: 2, Jitter: 0.5, Rand: func() float64 { return 1 }}
	for n, want := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		4: 800 * time.Millisecond,
		9: time.Second, // capped
	} {
		if got := r.Delay(n); got != want {
			t.Errorf("Delay(%d) = %v, want %v", n, got, want)
		}
	}
	// Jitter = 0.5 with Rand → 0 halves each delay.
	r.Rand = func() float64 { return 0 }
	if got := r.Delay(1); got != 50*time.Millisecond {
		t.Errorf("fully jittered-down Delay(1) = %v", got)
	}
}

// flakyStreamProxy fronts a stream server. The first connection is
// killed after forwarding the hello ack and exactly one batch
// (simulating a link drop mid-stream); later connections forward
// transparently.
type flakyStreamProxy struct {
	ln     net.Listener
	target string
	conns  atomic.Int32
}

func newFlakyStreamProxy(t *testing.T, target string) *flakyStreamProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyStreamProxy{ln: ln, target: target}
	go p.serve()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *flakyStreamProxy) Addr() string { return p.ln.Addr().String() }

func (p *flakyStreamProxy) serve() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		n := p.conns.Add(1)
		go p.forward(client, n == 1)
	}
}

func (p *flakyStreamProxy) forward(client net.Conn, flaky bool) {
	defer client.Close()
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer server.Close()
	go io.Copy(server, client) // hello and subscribe frames upstream
	if !flaky {
		io.Copy(client, server)
		return
	}
	// Forward two length-prefixed frames (ack, first batch), then cut
	// the link.
	for i := 0; i < 2; i++ {
		var hdr [4]byte
		if _, err := io.ReadFull(server, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(server, body); err != nil {
			return
		}
		client.Write(hdr[:])
		client.Write(body)
	}
}

// TestStreamReconnectResume: the link drops after the first batch. The
// subscriber must reconnect, resume from the last sequence number it
// holds, and deliver the rest of the session exactly once.
func TestStreamReconnectResume(t *testing.T) {
	srv, err := NewServer("tgt", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Two batches already in the session history before the subscriber
	// arrives: resumption replays them.
	for i := 1; i <= 2; i++ {
		if err := srv.Publish([]TimedRSS{{T: float64(i), RSS: -60 - float64(i)}}, nil, false); err != nil {
			t.Fatal(err)
		}
	}

	proxy := newFlakyStreamProxy(t, srv.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch, err := Subscribe(ctx, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}

	var got []StreamBatch
	for b := range ch {
		got = append(got, b)
		if b.Seq == 2 {
			// The subscriber is live on the reconnected link; finish the
			// session.
			if err := srv.Publish([]TimedRSS{{T: 3, RSS: -63}}, nil, true); err != nil {
				t.Fatal(err)
			}
		}
	}

	if len(got) != 3 {
		t.Fatalf("received %d batches, want 3: %+v", len(got), got)
	}
	for i, b := range got {
		if b.Seq != i+1 {
			t.Errorf("batch %d has seq %d (duplicate or gap after resume)", i, b.Seq)
		}
	}
	if !got[2].Final {
		t.Error("last batch should be final")
	}
	if n := proxy.conns.Load(); n < 2 {
		t.Errorf("proxy saw %d connections, want ≥2 (one reconnect)", n)
	}
}

// TestStreamReplayAfterFinal: a subscriber arriving after the session
// ended still receives the full history (replay-only serving).
func TestStreamReplayAfterFinal(t *testing.T) {
	srv, err := NewServer("tgt", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Publish([]TimedRSS{{T: 1, RSS: -61}}, nil, false)
	srv.Publish([]TimedRSS{{T: 2, RSS: -62}}, nil, true)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	for b := range ch {
		seqs = append(seqs, b.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Errorf("late subscriber replay = %v, want [1 2]", seqs)
	}
}

// TestStreamPublishSanitizesNonFinite: NaN/Inf readings must be dropped
// at the publish boundary — a subscriber must never see one.
func TestStreamPublishSanitizesNonFinite(t *testing.T) {
	srv, err := NewServer("tgt", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nan := math.NaN()
	srv.Publish([]TimedRSS{
		{T: 1, RSS: -61},
		{T: 2, RSS: nan},
		{T: nan, RSS: -63},
	}, []MotionPoint{{T: 1, X: nan, Y: 0}, {T: 2, X: 1, Y: 0}}, true)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b, ok := <-ch
	if !ok {
		t.Fatal("no batch delivered")
	}
	if len(b.RSS) != 1 || b.RSS[0].RSS != -61 {
		t.Errorf("poisoned RSS survived the wire: %+v", b.RSS)
	}
	if len(b.Motion) != 1 || b.Motion[0].X != 1 {
		t.Errorf("poisoned motion survived the wire: %+v", b.Motion)
	}
	for range ch {
	}
}
