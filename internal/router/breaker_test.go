package router

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locble/internal/fleet"
	"locble/internal/netproto"
	"locble/internal/obs"
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

// setBreakerClock points every node's breaker at now. Call it before the
// router's first push.
func setBreakerClock(r *Router, now func() time.Time) {
	for _, n := range r.nodes {
		n.br.now = now
	}
}

func testBreaker(clk *stepClock) (*breaker, *metrics) {
	met := newMetrics(0)
	b := newBreaker(met)
	b.now = clk.Now
	return b, met
}

// exchangeWith admits one exchange and settles it with o.
func exchangeWith(t *testing.T, b *breaker, o outcome) {
	t.Helper()
	epoch, ok := b.allow()
	if !ok {
		t.Fatal("breaker refused an exchange")
	}
	b.settle(epoch, o)
}

func requireTransitions(t *testing.T, met *metrics, open, halfOpen, closed int64) {
	t.Helper()
	if got := [3]int64{met.breakerToOpen.Value(), met.breakerToHalfOpen.Value(), met.breakerToClosed.Value()}; got != [3]int64{open, halfOpen, closed} {
		t.Fatalf("transitions to open/half-open/closed = %v, want %v", got, [3]int64{open, halfOpen, closed})
	}
}

func TestBreakerOpensOnFailureRate(t *testing.T) {
	b, met := testBreaker(&stepClock{})
	// Below breakerMinSamples one failure cannot trip it.
	exchangeWith(t, b, failed)
	if got := b.current(); got != breakerClosed {
		t.Fatalf("state after 1 failure = %v, want closed (min samples)", got)
	}
	exchangeWith(t, b, failed)
	if got := b.current(); got != breakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if _, ok := b.allow(); ok {
		t.Fatal("open breaker admitted an exchange")
	}
	requireTransitions(t, met, 1, 0, 0)
}

func TestBreakerStaysClosedUnderLowFailureRate(t *testing.T) {
	b, _ := testBreaker(&stepClock{})
	for i := 0; i < 50; i++ {
		if i%4 == 3 {
			exchangeWith(t, b, failed) // at most 2 of any 6 < 50 %
		} else {
			exchangeWith(t, b, succeeded)
		}
	}
	if got := b.current(); got != breakerClosed {
		t.Fatalf("state = %v, want closed at 25%% failures", got)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := &stepClock{}
	b, met := testBreaker(clk)
	exchangeWith(t, b, succeeded)
	exchangeWith(t, b, failed) // 1 of 2 = the failure rate
	if b.current() != breakerOpen {
		t.Fatal("not open")
	}
	clk.Advance(breakerOpenTimeout - time.Millisecond)
	if _, ok := b.allow(); ok {
		t.Fatal("admitted before the open timeout")
	}
	// After the timeout: exactly breakerProbes probes at a time.
	clk.Advance(time.Millisecond)
	var epochs []uint64
	for i := 0; i < breakerProbes; i++ {
		epoch, ok := b.allow()
		if !ok {
			t.Fatalf("probe %d not admitted", i+1)
		}
		epochs = append(epochs, epoch)
	}
	if _, ok := b.allow(); ok {
		t.Fatalf("probe %d admitted", breakerProbes+1)
	}
	for _, e := range epochs {
		b.settle(e, succeeded)
	}
	if got := b.current(); got != breakerClosed {
		t.Fatalf("state after probes = %v, want closed", got)
	}
	// The recovered breaker starts with a clean window.
	exchangeWith(t, b, failed)
	if got := b.current(); got != breakerClosed {
		t.Fatalf("fresh window tripped early: %v", got)
	}
	requireTransitions(t, met, 1, 1, 1)
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := &stepClock{}
	b, met := testBreaker(clk)
	exchangeWith(t, b, failed)
	exchangeWith(t, b, failed)
	clk.Advance(breakerOpenTimeout)
	exchangeWith(t, b, failed)
	if got := b.current(); got != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	requireTransitions(t, met, 2, 1, 0)
}

// TestBreakerCanceledProbesGiveSlotsBack: a canceled probe settles by
// handing its slot back, so any number of canceled probes leaves the
// node probing with every slot free.
func TestBreakerCanceledProbesGiveSlotsBack(t *testing.T) {
	clk := &stepClock{}
	b, met := testBreaker(clk)
	exchangeWith(t, b, failed)
	exchangeWith(t, b, failed)
	clk.Advance(breakerOpenTimeout)
	for i := 0; i < 2*breakerProbes; i++ {
		exchangeWith(t, b, canceled)
	}
	for i := 0; i < breakerProbes; i++ {
		exchangeWith(t, b, succeeded)
	}
	if got := b.current(); got != breakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
	requireTransitions(t, met, 1, 1, 1)
}

// TestBreakerSettlesOnlyItsEpoch: an exchange admitted before a
// transition settles nothing after it — a straggler from the closed
// breaker neither spends nor fills a probe slot.
func TestBreakerSettlesOnlyItsEpoch(t *testing.T) {
	clk := &stepClock{}
	b, _ := testBreaker(clk)
	straggler, _ := b.allow()
	exchangeWith(t, b, failed)
	exchangeWith(t, b, failed)
	clk.Advance(breakerOpenTimeout)
	if b.current() != breakerHalfOpen {
		t.Fatal("not half-open")
	}
	for i := 0; i < breakerProbes-1; i++ {
		exchangeWith(t, b, succeeded)
	}
	b.settle(straggler, succeeded)
	if got := b.current(); got != breakerHalfOpen {
		t.Fatalf("a straggler's success closed the breaker: %v", got)
	}
	b.settle(straggler, failed)
	if got := b.current(); got != breakerHalfOpen {
		t.Fatalf("a straggler's failure re-opened the breaker: %v", got)
	}
	exchangeWith(t, b, succeeded)
	if got := b.current(); got != breakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBreakerConcurrentRecords(t *testing.T) {
	clk := &stepClock{}
	b, met := testBreaker(clk)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if epoch, ok := b.allow(); ok {
					b.settle(epoch, outcome((g+i)%3))
				}
				if g == 0 && i%50 == 0 {
					clk.Advance(breakerOpenTimeout)
				}
				b.current()
			}
		}(g)
	}
	wg.Wait()
	// Every transition into open or half-open leaves one: the counts
	// differ by at most the state the breaker ended in.
	opens, halfOpens, closes := met.breakerToOpen.Value(), met.breakerToHalfOpen.Value(), met.breakerToClosed.Value()
	if opens == 0 || halfOpens > opens || opens > halfOpens+1 || closes > halfOpens {
		t.Fatalf("transitions to open/half-open/closed = %d/%d/%d do not chain", opens, halfOpens, closes)
	}
}

// fakeNode is an in-process Backend: it answers a push with one empty
// result per beacon, fails every push while down, and reports a
// canceled context as the real client does.
type fakeNode struct {
	down atomic.Bool
}

func (f *fakeNode) Push(ctx context.Context, obs []netproto.PushObs) ([]netproto.PushResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.down.Load() {
		return nil, errors.New("fake node: down")
	}
	var out []netproto.PushResult
	for i, o := range obs {
		if i == 0 || o.Beacon != obs[i-1].Beacon {
			out = append(out, netproto.PushResult{Beacon: o.Beacon})
		}
	}
	return out, nil
}

func (f *fakeNode) Drain(context.Context) (int, error) { return 0, nil }
func (f *fakeNode) Close() error                       { return nil }

// fakeRouter builds a router over fake nodes whose breakers read clk.
func fakeRouter(t *testing.T, clk *stepClock, addrs ...string) (*Router, []*fakeNode) {
	t.Helper()
	fakes := make([]*fakeNode, len(addrs))
	backends := make([]Backend, len(addrs))
	for i := range addrs {
		fakes[i] = &fakeNode{}
		backends[i] = fakes[i]
	}
	r, err := newWithBackends(addrs, backends)
	if err != nil {
		t.Fatalf("newWithBackends: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	setBreakerClock(r, clk.Now)
	return r, fakes
}

// homedOn returns k beacon names whose home is node ni.
func homedOn(r *Router, ni, k int) []string {
	var names []string
	for i := 0; len(names) < k; i++ {
		name := fmt.Sprintf("home-%d", i)
		if r.ring.owner(ringHash(name, -1)) == ni {
			names = append(names, name)
		}
	}
	return names
}

// batchOf is one observation per beacon at time t.
func batchOf(beacons []string, t float64) []fleet.Obs {
	batch := make([]fleet.Obs, len(beacons))
	for i, b := range beacons {
		batch[i] = fleet.Obs{Beacon: b, T: t, RSS: -60}
	}
	return batch
}

func nodeState(r *Router, ni int) string { return r.Nodes()[ni].State }

// TestRouterReadmitsRecoveredNode: once a dead node's open timeout has
// passed and it answers again, it is back up within breakerProbes
// batches and serves its own beacons undegraded throughout — however
// many beacon groups a batch sends it, and after canceled probes.
func TestRouterReadmitsRecoveredNode(t *testing.T) {
	for _, tc := range []struct {
		name             string
		groups, canceled int
	}{
		{"1-group", 1, 0},
		{"2-groups", 2, 0},
		{"3-groups", 3, 0},
		{"3-canceled-probes", 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &stepClock{}
			r, fakes := fakeRouter(t, clk, "n0", "n1", "n2")
			const victim = 0
			beacons := homedOn(r, victim, tc.groups)
			ctx := context.Background()
			at := 0.0
			push := func(ctx context.Context) []Result {
				t.Helper()
				at++
				res, err := r.PushBatch(ctx, batchOf(beacons, at))
				if err != nil {
					t.Fatalf("PushBatch: %v", err)
				}
				return res
			}

			// Trip the victim: one success, then one failure.
			push(ctx)
			fakes[victim].down.Store(true)
			for _, res := range push(ctx) {
				if !res.Degraded || res.Err != nil {
					t.Fatalf("%s while its home is dying: %+v, want degraded", res.Beacon, res)
				}
			}
			if got := nodeState(r, victim); got != "down" {
				t.Fatalf("tripped node is %q, want down", got)
			}

			fakes[victim].down.Store(false)
			clk.Advance(breakerOpenTimeout)
			canceledCtx, cancel := context.WithCancel(ctx)
			cancel()
			for i := 0; i < tc.canceled; i++ {
				for _, res := range push(canceledCtx) {
					if !errors.Is(res.Err, context.Canceled) {
						t.Fatalf("canceled probe %d: %s err = %v, want context.Canceled", i+1, res.Beacon, res.Err)
					}
				}
			}
			for i := 1; ; i++ {
				for _, res := range push(ctx) {
					if res.Err != nil || res.Degraded || res.Node != "n0" {
						t.Fatalf("batch %d after the open timeout: %+v, want served by its home undegraded", i, res)
					}
				}
				if got := nodeState(r, victim); got == "up" {
					break
				} else if i == breakerProbes {
					t.Fatalf("recovered node still %q after %d batches", got, i)
				}
			}
		})
	}
}

// TestRouterReadmitsUnderOverlappingBatches: pushers that overlap on a
// probing node, some with canceled contexts, neither leak nor
// double-spend its probe slots, so sequential batches afterwards find
// it up within breakerProbes.
func TestRouterReadmitsUnderOverlappingBatches(t *testing.T) {
	clk := &stepClock{}
	r, fakes := fakeRouter(t, clk, "n0", "n1", "n2")
	beacons := homedOn(r, 0, 2)
	ctx := context.Background()
	fakes[0].down.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := r.PushBatch(ctx, batchOf(beacons, float64(i))); err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
	}
	if got := nodeState(r, 0); got != "down" {
		t.Fatalf("tripped node is %q, want down", got)
	}
	fakes[0].down.Store(false)
	clk.Advance(breakerOpenTimeout)

	canceledCtx, cancel := context.WithCancel(ctx)
	cancel()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				c := ctx
				if (p+i)%3 == 0 {
					c = canceledCtx
				}
				r.PushBatch(c, batchOf(beacons, float64(10+i)))
			}
		}(p)
	}
	wg.Wait()
	for i := 1; nodeState(r, 0) != "up"; i++ {
		if i > breakerProbes {
			t.Fatalf("node still %q after %d sequential batches", nodeState(r, 0), breakerProbes)
		}
		if _, err := r.PushBatch(ctx, batchOf(beacons, float64(100+i))); err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
	}
}

// TestRouterBreakerCountsPerRouter: breaker transitions count in the
// registry of the router whose breaker moved — two routers over the
// same nodes keep separate books, and none lands in the process-wide
// registry.
func TestRouterBreakerCountsPerRouter(t *testing.T) {
	clk := &stepClock{}
	ra, fakesA := fakeRouter(t, clk, "n0", "n1", "n2")
	rb, _ := fakeRouter(t, clk, "n0", "n1", "n2")
	beacons := homedOn(ra, 0, 2)
	ctx := context.Background()
	fakesA[0].down.Store(true)
	for i := 0; i < 2; i++ {
		for _, r := range []*Router{ra, rb} {
			if _, err := r.PushBatch(ctx, batchOf(beacons, float64(i))); err != nil {
				t.Fatalf("PushBatch: %v", err)
			}
		}
	}
	if got := nodeState(ra, 0); got != "down" {
		t.Fatalf("router A's node 0 is %q, want down", got)
	}
	if got := ra.Metrics().Counters["router.breaker.to_open"]; got != 1 {
		t.Errorf("router A: router.breaker.to_open = %d, want 1", got)
	}
	if got := rb.Metrics().Counters["router.breaker.to_open"]; got != 0 {
		t.Errorf("router B: router.breaker.to_open = %d, want 0", got)
	}
	for name := range obs.Default.Snapshot().Counters {
		if strings.Contains(name, "breaker") {
			t.Errorf("process-wide registry holds breaker counter %q", name)
		}
	}
}
