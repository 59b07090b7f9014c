package netproto

import (
	"context"
	"errors"
	"testing"
	"time"

	"locble/internal/testutil"
)

func TestStreamPublishSubscribe(t *testing.T) {
	srv, err := NewServer("tgt", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Give the subscriber a moment to register.
	time.Sleep(50 * time.Millisecond)

	for i := 0; i < 3; i++ {
		err := srv.Publish(
			[]TimedRSS{{T: float64(i), RSS: -70 - float64(i)}},
			[]MotionPoint{{T: float64(i), X: float64(i) * 0.7}},
			i == 2,
		)
		if err != nil {
			t.Fatal(err)
		}
	}

	var got []StreamBatch
	for b := range ch {
		got = append(got, b)
	}
	if len(got) != 3 {
		t.Fatalf("received %d batches, want 3", len(got))
	}
	for i, b := range got {
		if b.Seq != i+1 {
			t.Errorf("batch %d has seq %d", i, b.Seq)
		}
		if len(b.RSS) != 1 || b.RSS[0].RSS != -70-float64(i) {
			t.Errorf("batch %d payload %+v", i, b.RSS)
		}
	}
	if !got[2].Final {
		t.Error("last batch should be final")
	}
	// Publishing after final fails.
	if err := srv.Publish(nil, nil, false); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("publish after final: %v", err)
	}
}

func TestStreamMultipleSubscribers(t *testing.T) {
	srv, err := NewServer("tgt", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ch1, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	srv.Publish([]TimedRSS{{T: 1, RSS: -70}}, nil, true)

	for name, ch := range map[string]<-chan StreamBatch{"a": ch1, "b": ch2} {
		n := 0
		for range ch {
			n++
		}
		if n != 1 {
			t.Errorf("subscriber %s got %d batches", name, n)
		}
	}
}

func TestServerCloseUnblocksSubscribers(t *testing.T) {
	srv, err := NewServer("tgt", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		for range ch {
		}
		close(done)
	}()
	srv.Close()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("subscriber not unblocked by Close")
	}
}

func TestSubscribeConnectionRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := Subscribe(ctx, "127.0.0.1:1"); err == nil {
		t.Error("want connection error")
	}
}

// TestStreamIdleSubscriberKept: a subscriber waiting longer than
// IdleTimeout for the next batch is a healthy stream, not a stalled
// exchange — the server neither evicts it nor makes it reconnect.
func TestStreamIdleSubscriberKept(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, err := NewServerWithConfig("tgt", 0, ServerConfig{
		IdleTimeout: 200 * time.Millisecond, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	evicted, reconnects := metConnsEvicted.Value(), metReconnects.Value()
	ch, err := Subscribe(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, srv, 1)
	time.Sleep(600 * time.Millisecond) // three IdleTimeouts without a batch
	if err := srv.Publish([]TimedRSS{{T: 1, RSS: -60}}, nil, true); err != nil {
		t.Fatal(err)
	}
	n := 0
	for range ch {
		n++
	}
	if n != 1 {
		t.Fatalf("received %d batches, want 1", n)
	}
	if d := metConnsEvicted.Value() - evicted; d != 0 {
		t.Errorf("conns.evicted delta = %d, want 0 (idle subscriber evicted)", d)
	}
	if d := metReconnects.Value() - reconnects; d != 0 {
		t.Errorf("stream.reconnects delta = %d, want 0", d)
	}
}
