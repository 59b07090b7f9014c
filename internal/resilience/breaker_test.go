package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// stepClock is a manually advanced time source.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBreaker(clk *stepClock, transitions *[]string) *Breaker {
	return NewBreaker(BreakerConfig{
		Window:         10,
		MinSamples:     4,
		FailureRate:    0.5,
		OpenTimeout:    time.Second,
		HalfOpenProbes: 2,
		Clock:          clk.Now,
		OnTransition: func(from, to BreakerState) {
			if transitions != nil {
				*transitions = append(*transitions, from.String()+">"+to.String())
			}
		},
	})
}

func TestBreakerOpensOnFailureRate(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0)}
	b := testBreaker(clk, nil)

	// Below MinSamples: failures alone cannot trip it.
	b.RecordFailure()
	b.RecordFailure()
	b.RecordFailure()
	if got := b.State(); got != Closed {
		t.Fatalf("state after 3 failures = %v, want closed (min samples)", got)
	}
	b.RecordFailure() // 4 samples, 100% failure
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Allow while open = %v, want ErrCircuitOpen", err)
	}
	if b.Opens() != 1 {
		t.Fatalf("Opens = %d, want 1", b.Opens())
	}
}

func TestBreakerStaysClosedUnderLowFailureRate(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0)}
	b := testBreaker(clk, nil)
	for i := 0; i < 50; i++ {
		if i%4 == 0 {
			b.RecordFailure() // 25% < 50% threshold
		} else {
			b.RecordSuccess()
		}
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed at 25%% failures", got)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	var trans []string
	clk := &stepClock{t: time.Unix(0, 0)}
	b := testBreaker(clk, &trans)
	for i := 0; i < 4; i++ {
		b.RecordFailure()
	}
	if b.State() != Open {
		t.Fatal("not open")
	}
	// Before the timeout: still failing fast.
	clk.Advance(999 * time.Millisecond)
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Allow before timeout = %v", err)
	}
	// After the timeout: exactly HalfOpenProbes probes admitted.
	clk.Advance(2 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe 1 not admitted: %v", err)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("probe 2 not admitted: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe 3 should be rejected, got %v", err)
	}
	b.RecordSuccess()
	b.RecordSuccess()
	if got := b.State(); got != Closed {
		t.Fatalf("state after probes = %v, want closed", got)
	}
	// The recovered breaker starts with a clean window.
	b.RecordFailure()
	b.RecordFailure()
	b.RecordFailure()
	if got := b.State(); got != Closed {
		t.Fatalf("fresh window tripped early: %v", got)
	}
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(trans) != len(want) {
		t.Fatalf("transitions = %v, want %v", trans, want)
	}
	for i := range want {
		if trans[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", trans, want)
		}
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0)}
	b := testBreaker(clk, nil)
	for i := 0; i < 4; i++ {
		b.RecordFailure()
	}
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe not admitted: %v", err)
	}
	b.RecordFailure()
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.Opens() != 2 {
		t.Fatalf("Opens = %d, want 2", b.Opens())
	}
}

func TestBreakerConcurrentRecords(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Clock: clk.Now})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() == nil {
					if i%2 == 0 {
						b.RecordSuccess()
					} else {
						b.RecordFailure()
					}
				}
				b.State()
			}
		}(g)
	}
	wg.Wait()
}
