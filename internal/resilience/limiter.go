package resilience

import (
	"sync"
	"time"
)

// TokenBucket is an admission limiter: work is admitted while tokens
// remain, and tokens refill continuously at Rate per second up to
// Burst. A connection-accept loop calls Allow once per connection;
// denials are shed (counted in "resilience.limiter.denied"), never
// queued — the bucket bounds *rate*. Safe for concurrent use.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 means unlimited
	burst  float64
	tokens float64
	last   time.Time
	clock  func() time.Time
}

// NewTokenBucket builds a limiter admitting rate events/second with the
// given burst capacity (minimum 1). rate <= 0 disables limiting —
// Allow always admits.
func NewTokenBucket(rate float64, burst int) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		clock:  time.Now,
	}
}

// SetClock replaces the time source (tests inject a stepping fake).
// Call before use; not synchronized with concurrent Allow.
func (tb *TokenBucket) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	tb.clock = now
	tb.last = time.Time{}
}

// Allow admits one event if a token is available, consuming it.
// A denial is counted in "resilience.limiter.denied".
func (tb *TokenBucket) Allow() bool {
	if tb == nil || tb.rate <= 0 {
		return true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.clock()
	if !tb.last.IsZero() {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	if tb.tokens < 1 {
		metLimiterDenied.Inc()
		return false
	}
	tb.tokens--
	return true
}

// Tokens returns the current token count (diagnostics and tests).
func (tb *TokenBucket) Tokens() float64 {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.tokens
}
