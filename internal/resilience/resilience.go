// Package resilience provides the lifecycle and overload-control
// primitives LocBLE's long-running serving path is built on: a
// failure-rate circuit breaker, a token-bucket admission limiter,
// watchdog timers, and a panic-isolating supervisor with restart
// backoff.
//
// The primitives are deliberately dependency-free (stdlib + the obs
// metrics layer) and clock-injectable, so overload and recovery
// behaviour is testable deterministically. netproto threads them
// through its server and clients; anything long-running
// (a soak harness, a daemonized CLI) can reuse them directly.
package resilience

import (
	"errors"

	"locble/internal/obs"
)

// Typed errors. Callers branch on these to tell "shed under load" apart
// from "dependency failing".
var (
	// ErrOverloaded reports work shed by admission control: a server at
	// its connection cap or out of TokenBucket tokens answers
	// "overloaded", and clients surface that as this error. The request
	// was never started — safe to retry elsewhere or later.
	ErrOverloaded = errors.New("resilience: overloaded")
	// ErrCircuitOpen is returned by a Breaker while it is failing fast.
	ErrCircuitOpen = errors.New("resilience: circuit open")
)

// Package-wide instrumentation, recorded into obs.Default (the
// primitives are process infrastructure, like netproto's transport).
var (
	metBreakerToOpen     = obs.Default.Counter("resilience.breaker.to_open")
	metBreakerToHalfOpen = obs.Default.Counter("resilience.breaker.to_halfopen")
	metBreakerToClosed   = obs.Default.Counter("resilience.breaker.to_closed")
	metLimiterDenied     = obs.Default.Counter("resilience.limiter.denied")
	metWatchdogExpired   = obs.Default.Counter("resilience.watchdog.expired")
	metSupervisorPanics  = obs.Default.Counter("resilience.supervisor.panics")
	metSupervisorRestart = obs.Default.Counter("resilience.supervisor.restarts")
	metPanicsRecovered   = obs.Default.Counter("resilience.panics.recovered")
)

// CatchPanic returns a function to defer at the top of a goroutine that
// must never take the process down (e.g. a per-connection handler): a
// panic is recovered, counted in obs.Default
// ("resilience.panics.recovered"), reported through logf (if non-nil),
// and handed to onPanic (if non-nil) for cleanup scoped to that
// goroutine — closing one connection instead of crashing the server.
func CatchPanic(name string, logf func(format string, args ...any), onPanic func(v any)) func() {
	return func() {
		v := recover()
		if v == nil {
			return
		}
		metPanicsRecovered.Inc()
		if logf != nil {
			logf("resilience: recovered panic in %s: %v", name, v)
		}
		if onPanic != nil {
			onPanic(v)
		}
	}
}
