package router

import (
	"sync"
	"time"
)

// The per-node breaker's policy. A breaker trips once at least
// breakerMinSamples of its node's last breakerWindow exchanges are on
// record and half or more of them failed, so one success followed by
// one failure trips it. After breakerOpenTimeout it admits up to
// breakerProbes probe exchanges at a time, and that many successes
// close it again.
const (
	breakerWindow      = 6
	breakerMinSamples  = 2
	breakerFailureRate = 0.5
	breakerOpenTimeout = time.Second
	breakerProbes      = 3
)

type breakerState int

const (
	// breakerClosed: exchanges flow and their outcomes fill the window.
	breakerClosed breakerState = iota
	// breakerOpen: the node is skipped until breakerOpenTimeout passes.
	breakerOpen
	// breakerHalfOpen: a limited number of probe exchanges test the node.
	breakerHalfOpen
)

// outcome is how an admitted exchange ended.
type outcome int

const (
	succeeded outcome = iota
	failed
	// canceled: the caller gave up, so the node is not to blame. A probe
	// gives its slot back.
	canceled
)

// breaker is a node's failure-rate circuit breaker. Closed → open when
// the windowed failure rate reaches breakerFailureRate; open →
// half-open after breakerOpenTimeout; half-open → closed after
// breakerProbes probe successes, or back to open on any probe failure.
// Every admission carries the breaker's epoch, which each transition
// bumps, so an exchange settles only the state that admitted it. Safe
// for concurrent use: overlapping PushBatch calls share it.
type breaker struct {
	now func() time.Time // time.Now; tests freeze or step it
	met *metrics

	mu       sync.Mutex
	state    breakerState
	epoch    uint64
	window   [breakerWindow]bool // true = failure
	idx      int
	filled   int
	fails    int
	openedAt time.Time
	probes   int // half-open: admitted probes not yet given back
	probeOKs int
}

func newBreaker(met *metrics) *breaker {
	return &breaker{now: time.Now, met: met}
}

// current returns the breaker's state, moving open → half-open once
// the open timeout has passed.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	return b.state
}

// allow admits one exchange to the node, or refuses it while the
// breaker is open or every probe slot is taken. The caller settles an
// admission exactly once, with the epoch it was given.
func (b *breaker) allow() (epoch uint64, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	switch b.state {
	case breakerOpen:
		return 0, false
	case breakerHalfOpen:
		if b.probes >= breakerProbes {
			return 0, false
		}
		b.probes++
	}
	return b.epoch, true
}

// settle records how an exchange admitted at epoch ended. An outcome
// from an earlier epoch is dropped: the state that admitted it is over.
// A matching epoch means the breaker is still closed or half-open, as
// it was at admission.
func (b *breaker) settle(epoch uint64, o outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if epoch != b.epoch || (o == canceled && b.state == breakerClosed) {
		return
	}
	if b.state == breakerHalfOpen {
		switch o {
		case canceled:
			b.probes--
		case failed:
			b.toLocked(breakerOpen)
		default:
			if b.probeOKs++; b.probeOKs >= breakerProbes {
				b.toLocked(breakerClosed)
			}
		}
		return
	}
	// Closed: the outcome joins the window.
	if b.window[b.idx] {
		b.fails--
	}
	b.window[b.idx] = o == failed
	if o == failed {
		b.fails++
	}
	b.idx = (b.idx + 1) % breakerWindow
	b.filled = min(b.filled+1, breakerWindow)
	if b.filled >= breakerMinSamples && float64(b.fails)/float64(b.filled) >= breakerFailureRate {
		b.toLocked(breakerOpen)
	}
}

// advanceLocked moves open → half-open once the open timeout has passed.
func (b *breaker) advanceLocked() {
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= breakerOpenTimeout {
		b.toLocked(breakerHalfOpen)
	}
}

// toLocked switches state, starts a new epoch, resets the new state's
// bookkeeping and counts the transition in the router's registry.
func (b *breaker) toLocked(s breakerState) {
	b.state = s
	b.epoch++
	switch s {
	case breakerOpen:
		b.openedAt = b.now()
		b.met.breakerToOpen.Inc()
	case breakerHalfOpen:
		b.probes, b.probeOKs = 0, 0
		b.met.breakerToHalfOpen.Inc()
	case breakerClosed:
		b.window = [breakerWindow]bool{}
		b.idx, b.filled, b.fails = 0, 0, 0
		b.met.breakerToClosed.Inc()
	}
}
