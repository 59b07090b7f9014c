// Package resilience provides the failure primitives LocBLE's
// long-running serving path shares: a failure-rate circuit breaker
// (the router's per-node failover gate), the typed errors callers
// branch on, and CatchPanic, which confines a panic to the goroutine
// it happened in.
//
// Everything else a server needs is one mechanism each in netproto:
// per-frame deadlines bound a connection's life, a connection cap
// admits, and netproto.Retry backs off listener errors.
//
// The primitives are deliberately dependency-free (stdlib + the obs
// metrics layer) and clock-injectable, so overload and recovery
// behaviour is testable deterministically.
package resilience

import (
	"errors"

	"locble/internal/obs"
)

// Typed errors. Callers branch on these to tell "shed under load" apart
// from "dependency failing".
var (
	// ErrOverloaded reports work shed by admission control: a server at
	// its connection cap answers "overloaded", and clients surface that
	// as this error. The request was never started — safe to retry
	// elsewhere or later.
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
