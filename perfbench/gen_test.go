package main

import (
	"sync"
	"testing"
	"time"
)

// stallBackend answers every op in about a millisecond, except that an
// op arriving inside the stall window waits for the window to close —
// the shape of a GC pause or a stuck disk on the system under test.
type stallBackend struct {
	from, until time.Time
}

func (b stallBackend) op(int, int) error {
	if now := time.Now(); !now.Before(b.from) && now.Before(b.until) {
		time.Sleep(time.Until(b.until))
	}
	time.Sleep(time.Millisecond)
	return nil
}

// TestOpenLoopChargesStall is the coordinated-omission check: every op
// due while the backend stalled must carry the rest of the stall in its
// latency, because latency runs from the due time, not the send time.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		rate     = 200.0
		gateways = 2
		stallAt  = 300 * time.Millisecond
		stallFor = 200 * time.Millisecond
		slack    = 3 * time.Millisecond // start-time skew and timer granularity
	)
	t0 := time.Now()
	be := stallBackend{from: t0.Add(stallAt), until: t0.Add(stallAt + stallFor)}
	res := runOpen(gateways, rate, time.Second, time.Second, be.op)

	if want := int(rate); res.Attempted != want || res.Failed != 0 {
		t.Fatalf("attempted %d, failed %d; want %d, 0", res.Attempted, res.Failed, want)
	}
	stallEnd := (stallAt + stallFor).Seconds()
	charged := 0
	for _, r := range res.Ops {
		if r.Due < stallAt.Seconds() || r.Due >= stallEnd {
			continue
		}
		charged++
		if lat := r.Done - r.Due; lat < stallEnd-r.Due-slack.Seconds() {
			t.Errorf("op due at %.3f s finished %.1f ms after its due time; the stall ran %.1f ms past it",
				r.Due, lat*1e3, (stallEnd-r.Due)*1e3)
		}
	}
	if want := int(rate * stallFor.Seconds()); charged < want-2 {
		t.Fatalf("%d ops due during the stall, want about %d", charged, want)
	}
	q, err := quantileOf(sortedCopy(res.Late), 0.9)
	if err != nil || q.Value < 0.05 {
		t.Fatalf("p90 lateness %v (%v), want the stall to show", q.Value, err)
	}
	if err := checkOpen(res, phasePlan{Gateways: gateways, OpenRate: rate}); err != nil {
		t.Fatalf("a run that recovered from one stall was refused: %v", err)
	}
}

// TestOpenLoopKeepsGatewayOrder: a gateway never has two ops in flight.
func TestOpenLoopKeepsGatewayOrder(t *testing.T) {
	var mu sync.Mutex
	inFlight := map[int]bool{}
	overlap := false
	op := func(g, _ int) error {
		mu.Lock()
		overlap = overlap || inFlight[g]
		inFlight[g] = true
		mu.Unlock()
		time.Sleep(3 * time.Millisecond) // slower than the 2 ms interval
		mu.Lock()
		inFlight[g] = false
		mu.Unlock()
		return nil
	}
	res := runOpen(1, 500, 100*time.Millisecond, time.Second, op)
	if overlap {
		t.Fatal("a gateway sent an op before its previous one completed")
	}
	for i := 1; i < len(res.Ops); i++ {
		if res.Ops[i].Sent < res.Ops[i-1].Done {
			t.Fatalf("op %d sent at %.4f before op %d completed at %.4f", i, res.Ops[i].Sent, i-1, res.Ops[i-1].Done)
		}
	}
	if res.Backlog == 0 {
		t.Fatal("an overloaded schedule ended with no backlog")
	}
	if err := checkOpen(res, phasePlan{Gateways: 1, OpenRate: 500}); err == nil {
		t.Fatal("a schedule falling ever further behind was accepted")
	}
}

func TestOpenLoopCountsUnsentAsFailed(t *testing.T) {
	slow := func(int, int) error { time.Sleep(30 * time.Millisecond); return nil }
	res := runOpen(1, 100, 100*time.Millisecond, 20*time.Millisecond, slow)
	if res.Pending == 0 || res.Failed != res.Pending {
		t.Fatalf("pending %d, failed %d; ops never sent within the grace period must fail", res.Pending, res.Failed)
	}
}

func TestClosedLoopRunsToDeadlineAndMinimum(t *testing.T) {
	op := func(int, int) error { time.Sleep(2 * time.Millisecond); return nil }
	res := joinPhases(runClosed(make([]phaseResult, 2), 50*time.Millisecond, 0, op))
	if res.Attempted < 4 || res.Failed != 0 || len(res.Lat) != res.Attempted {
		t.Fatalf("closed loop: %d attempted, %d failed, %d timed", res.Attempted, res.Failed, len(res.Lat))
	}
	if res.Wall < 0.05 {
		t.Fatalf("closed loop stopped after %.3f s, before its 50 ms", res.Wall)
	}
	res = joinPhases(runClosed(make([]phaseResult, 1), 10*time.Millisecond, 8, op))
	if len(res.Lat) < 8 {
		t.Fatalf("closed loop completed %d ops, want the minimum of 8", len(res.Lat))
	}
}

// TestClosedLoopStaysInReservedRecords: a closed loop that fits its
// reserved records writes into them instead of growing new ones, so the
// untraced run's heap figure does not count the harness's records.
func TestClosedLoopStaysInReservedRecords(t *testing.T) {
	op := func(int, int) error { time.Sleep(time.Millisecond); return nil }
	recs := reserveClosed(2, 1000)
	lat0 := &recs[1].Lat[:1][0]
	perGw := runClosed(recs, 20*time.Millisecond, 0, op)
	if len(perGw[1].Lat) == 0 || &perGw[1].Lat[0] != lat0 || cap(perGw[1].Lat) != 500 {
		t.Fatalf("gateway 1 recorded %d ops into a slice of capacity %d, not its reserved 500",
			len(perGw[1].Lat), cap(perGw[1].Lat))
	}
}

func TestWindowedRate(t *testing.T) {
	r := phaseResult{Wall: 4.5}
	for w, n := range []int{10, 12, 11, 40} { // one busy window among steady ones
		for i := 0; i < n; i++ {
			r.Done = append(r.Done, float64(w)+float64(i)/float64(n))
		}
	}
	if got := windowedRate(r); got != 11.5 {
		t.Fatalf("windowed rate = %v, want the median window, 11.5", got)
	}
}
