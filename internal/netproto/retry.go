package netproto

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Retry is an exponential-backoff policy with randomized jitter, used by
// Fetch and the stream subscriber to ride out flaky peers: refused
// connections while the target's server is still coming up, and
// connections dropped mid-frame on a lossy link. Jitter desynchronises
// the retry storms of many observers discovering the same target. The
// server's listener loops back off repeated Accept/ReadFrom errors on
// DefaultRetry's schedule too, so the package has one backoff policy.
type Retry struct {
	// MaxAttempts bounds the number of tries (including the first).
	// Zero means retry until the context deadline.
	MaxAttempts int
	// BaseDelay is the wait after the first failure.
	BaseDelay time.Duration
	// MaxDelay caps the exponentially growing wait.
	MaxDelay time.Duration
	// Multiplier grows the wait per attempt (≥ 1).
	Multiplier float64
	// Jitter in [0, 1] is the fraction of each wait that is randomized:
	// wait = d·(1−Jitter) + d·Jitter·U[0,1).
	Jitter float64
	// Rand overrides the jitter source (tests); nil uses math/rand.
	Rand func() float64
}

// DefaultRetry returns the policy the package-level helpers use: six
// attempts, 50 ms base delay doubling to a 2 s cap, half-jittered.
func DefaultRetry() Retry {
	return Retry{
		MaxAttempts: 6,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Multiplier:  2,
		Jitter:      0.5,
	}
}

// withDefaults fills zero fields so Retry{} behaves like DefaultRetry
// with unlimited attempts left at the caller's choice.
func (r Retry) withDefaults() Retry {
	d := DefaultRetry()
	if r.BaseDelay <= 0 {
		r.BaseDelay = d.BaseDelay
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = d.MaxDelay
	}
	if r.Multiplier < 1 {
		r.Multiplier = d.Multiplier
	}
	if r.Jitter < 0 || r.Jitter > 1 {
		r.Jitter = d.Jitter
	}
	return r
}

// Delay returns the backoff before attempt n (n = 1 is the wait after
// the first failure), jittered.
func (r Retry) Delay(n int) time.Duration {
	r = r.withDefaults()
	d := float64(r.BaseDelay)
	for i := 1; i < n; i++ {
		d *= r.Multiplier
		if d >= float64(r.MaxDelay) {
			d = float64(r.MaxDelay)
			break
		}
	}
	rnd := r.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	d = d*(1-r.Jitter) + d*r.Jitter*rnd()
	return time.Duration(d)
}

// Do runs op until it succeeds, the attempt budget is spent, or the
// context ends. The last error is returned, annotated with the attempt
// count; a context error wins if the deadline expired while waiting.
func (r Retry) Do(ctx context.Context, op func() error) error {
	r = r.withDefaults()
	var last error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return fmt.Errorf("netproto: %d attempts: %w (then %v)", attempt-1, last, err)
			}
			return err
		}
		if last = op(); last == nil {
			return nil
		}
		if r.MaxAttempts > 0 && attempt >= r.MaxAttempts {
			return fmt.Errorf("netproto: %d attempts: %w", attempt, last)
		}
		metRetries.Inc()
		select {
		case <-time.After(r.Delay(attempt)):
		case <-ctx.Done():
			return fmt.Errorf("netproto: %d attempts: %w (then %v)", attempt, last, ctx.Err())
		}
	}
}
