package resilience

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's lifecycle state.
type BreakerState int

const (
	// Closed: requests flow; outcomes are recorded into the window.
	Closed BreakerState = iota
	// Open: requests fail fast until OpenTimeout elapses.
	Open
	// HalfOpen: a limited number of probe requests test the dependency.
	HalfOpen
)

// String names the state for logs and tests.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker. Zero fields take the defaults.
type BreakerConfig struct {
	// Window is the number of recent outcomes the failure rate is
	// computed over (default 20).
	Window int
	// MinSamples is the minimum number of recorded outcomes before the
	// breaker may trip — a single early failure must not open a cold
	// breaker (default 10).
	MinSamples int
	// FailureRate in (0, 1]: the windowed failure fraction at which the
	// breaker opens (default 0.5).
	FailureRate float64
	// OpenTimeout is how long the breaker fails fast before letting
	// half-open probes through (default 1 s).
	OpenTimeout time.Duration
	// HalfOpenProbes is how many consecutive probe successes close the
	// breaker again (default 3). Any probe failure re-opens it.
	HalfOpenProbes int
	// Clock is the time source (default time.Now) — tests inject a
	// stepping fake so open→half-open transitions are deterministic.
	Clock func() time.Time
	// OnTransition, if set, observes every state change (called outside
	// the breaker's lock).
	OnTransition func(from, to BreakerState)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.FailureRate <= 0 || c.FailureRate > 1 {
		c.FailureRate = 0.5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is a failure-rate circuit breaker over a sliding outcome
// window. Closed → Open when the windowed failure rate crosses the
// threshold; Open → HalfOpen after OpenTimeout; HalfOpen → Closed after
// HalfOpenProbes consecutive successes, or back to Open on any probe
// failure. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	ring      []bool // true = failure
	idx       int
	filled    int
	fails     int
	openedAt  time.Time
	probes    int // half-open: in-flight + finished probes this episode
	probeOKs  int
	openCount int64
}

// NewBreaker builds a breaker from cfg (zero-value cfg is fine).
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, ring: make([]bool, cfg.Window)}
}

// State returns the current state (advancing Open → HalfOpen when the
// open timeout has elapsed).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	trans := b.maybeHalfOpenLocked()
	st := b.state
	b.mu.Unlock()
	if trans != nil {
		trans()
	}
	return st
}

// Opens returns how many times the breaker has opened over its lifetime
// (monotone; soak assertions compare it against injected failure load).
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openCount
}

// Allow reports whether a request may proceed now. ErrCircuitOpen means
// fail fast; nil means proceed — the caller must then report the
// outcome with RecordSuccess or RecordFailure.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	trans := b.maybeHalfOpenLocked()
	defer func() {
		b.mu.Unlock()
		if trans != nil {
			trans()
		}
	}()
	switch b.state {
	case Closed:
		return nil
	case Open:
		return ErrCircuitOpen
	default: // HalfOpen: admit only as many probes as can close the loop
		if b.probes >= b.cfg.HalfOpenProbes {
			return ErrCircuitOpen
		}
		b.probes++
		return nil
	}
}

// RecordSuccess reports a successful outcome for a request Allow let
// through.
func (b *Breaker) RecordSuccess() { b.record(false) }

// RecordFailure reports a failed outcome for a request Allow let
// through.
func (b *Breaker) RecordFailure() { b.record(true) }

func (b *Breaker) record(failed bool) {
	b.mu.Lock()
	var trans func()
	defer func() {
		b.mu.Unlock()
		if trans != nil {
			trans()
		}
	}()
	switch b.state {
	case HalfOpen:
		if failed {
			trans = b.transitionLocked(Open)
			return
		}
		b.probeOKs++
		if b.probeOKs >= b.cfg.HalfOpenProbes {
			trans = b.transitionLocked(Closed)
		}
	case Open:
		// A straggler from before the trip; the window is already moot.
	default: // Closed
		if b.ring[b.idx] {
			b.fails--
		}
		b.ring[b.idx] = failed
		if failed {
			b.fails++
		}
		b.idx = (b.idx + 1) % len(b.ring)
		if b.filled < len(b.ring) {
			b.filled++
		}
		if b.filled >= b.cfg.MinSamples &&
			float64(b.fails)/float64(b.filled) >= b.cfg.FailureRate {
			trans = b.transitionLocked(Open)
		}
	}
}

// maybeHalfOpenLocked advances Open → HalfOpen once the timeout passed,
// returning the OnTransition hook for the caller to run after unlock.
func (b *Breaker) maybeHalfOpenLocked() func() {
	if b.state == Open && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.OpenTimeout {
		return b.transitionLocked(HalfOpen)
	}
	return nil
}

// transitionLocked switches state, resets episode bookkeeping, bumps the
// obs counters, and returns the caller-run OnTransition hook (run it
// after releasing the lock).
func (b *Breaker) transitionLocked(to BreakerState) func() {
	from := b.state
	if from == to {
		return nil
	}
	b.state = to
	switch to {
	case Open:
		b.openedAt = b.cfg.Clock()
		b.openCount++
		metBreakerToOpen.Inc()
	case HalfOpen:
		b.probes = 0
		b.probeOKs = 0
		metBreakerToHalfOpen.Inc()
	case Closed:
		for i := range b.ring {
			b.ring[i] = false
		}
		b.idx, b.filled, b.fails = 0, 0, 0
		metBreakerToClosed.Inc()
	}
	if hook := b.cfg.OnTransition; hook != nil {
		return func() { hook(from, to) }
	}
	return nil
}
