package netproto

import (
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locble/internal/faults"
	"locble/internal/obs"
	"locble/internal/sim"
	"locble/internal/testutil"
)

// TestChaosSoak hammers two servers — one serving fetches, one the live
// stream — with concurrent clients, connection churn, garbage frames,
// fault-injected payloads, and randomly panicking handlers, then shuts
// both down gracefully and asserts nothing crashed, no goroutine leaked,
// and the lifecycle metrics stayed consistent.
//
// The default duration keeps the tier-1 gate fast; `make soak` extends
// it via LOCBLE_SOAK (e.g. LOCBLE_SOAK=30s).
func TestChaosSoak(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dur := 800 * time.Millisecond
	if env := os.Getenv("LOCBLE_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("LOCBLE_SOAK=%q: %v", env, err)
		}
		dur = d
	}

	srv, err := NewServerWithConfig("soak", 0, ServerConfig{
		MaxConns:     8,
		WriteTimeout: 300 * time.Millisecond,
		Logf:         quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetBundle(&TraceBundle{
		Device: "soak",
		RSS:    []TimedRSS{{T: 1, RSS: -60}, {T: 2, RSS: -61}},
	})

	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()

	// Handlers panic on a small fraction of ops while the chaos runs —
	// each panic must cost exactly one connection.
	var injectedPanics atomic.Int64
	srv.handlerHook = func(op string) {
		if ctx.Err() == nil && rand.Intn(20) == 0 {
			injectedPanics.Add(1)
			panic("soak: injected handler panic")
		}
	}

	stream, err := NewServerWithConfig("soak", 0, ServerConfig{
		MaxConns:     16,
		WriteTimeout: 300 * time.Millisecond,
		Logf:         quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg         sync.WaitGroup
		fetchOK    atomic.Int64
		batchesIn  atomic.Int64
		subRounds  atomic.Int64
		junkRounds atomic.Int64
	)

	// Fetch clients: short per-request deadlines, riding sheds and
	// panics with small retry budgets.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				cctx, ccancel := context.WithTimeout(ctx, 600*time.Millisecond)
				if _, err := FetchWithRetry(cctx, srv.Addr(), Retry{
					MaxAttempts: 3, BaseDelay: 5 * time.Millisecond,
				}); err == nil {
					fetchOK.Add(1)
				}
				ccancel()
			}
		}()
	}

	// Metrics scraper: the observability path shares the serving fate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			cctx, ccancel := context.WithTimeout(ctx, 600*time.Millisecond)
			FetchMetrics(cctx, srv.Addr())
			ccancel()
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Garbage client: raw junk frames, oversized length prefixes,
	// half-written frames — none of it may take the server down.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			conn, err := net.DialTimeout("tcp", srv.Addr(), 500*time.Millisecond)
			if err != nil {
				continue
			}
			junkRounds.Add(1)
			conn.SetWriteDeadline(time.Now().Add(300 * time.Millisecond))
			switch rand.Intn(3) {
			case 0: // oversized length prefix
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
				conn.Write(hdr[:])
			case 1: // non-JSON body
				conn.Write([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef})
			default: // half a frame, then hang up
				conn.Write([]byte{0, 0, 0, 64, 'x'})
			}
			conn.Close()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Publisher: fault-injected RSS batches (drops, duplicates,
	// non-finite values, interference impulses and coordinated outlier
	// runs) through the faults chain — the sanitizer and the wire must
	// hold.
	wg.Add(1)
	go func() {
		defer wg.Done()
		chain := faults.Chain(
			faults.RandomDrop{Prob: 0.2},
			faults.DuplicateReports{Prob: 0.2},
			faults.NonFiniteRSSI{Prob: 0.2},
			faults.ImpulseBurst{Prob: 0.1, DeltaDB: 25},
			faults.OutlierRun{Start: 4, Duration: 4, DeltaDB: 15},
		)
		seed := int64(1)
		for tick := 0; ctx.Err() == nil; tick++ {
			raw := make([]sim.BeaconObservation, 16)
			for i := range raw {
				raw[i] = sim.BeaconObservation{T: float64(tick*16 + i), RSSI: -55 - rand.Float64()*20}
			}
			seed++
			mangled := faults.ApplyRSS(raw, seed, chain)
			batch := make([]TimedRSS, len(mangled))
			for i, o := range mangled {
				batch[i] = TimedRSS{T: o.T, RSS: o.RSSI}
			}
			if err := stream.Publish(batch, nil, false); err != nil {
				return // stream shut down under us: chaos is over
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()

	// Churny subscribers: subscribe, consume briefly, vanish, repeat —
	// connection churn with resumption underneath.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				sctx, scancel := context.WithTimeout(ctx,
					time.Duration(50+rand.Intn(200))*time.Millisecond)
				ch, err := Subscribe(sctx, stream.Addr())
				if err == nil {
					for range ch {
						batchesIn.Add(1)
					}
					subRounds.Add(1)
				}
				scancel()
			}
		}()
	}

	<-ctx.Done()
	wg.Wait()

	// The servers survived the chaos: prove liveness, then drain.
	fctx, fcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer fcancel()
	if _, err := FetchWithRetry(fctx, srv.Addr(), Retry{
		MaxAttempts: 10, BaseDelay: 20 * time.Millisecond,
	}); err != nil {
		t.Errorf("fetch after chaos: %v (server did not survive)", err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Errorf("server Shutdown after chaos = %v", err)
	}
	if err := stream.Shutdown(sctx); err != nil {
		t.Errorf("stream Shutdown after chaos = %v", err)
	}

	// Metric consistency: counters are monotone and non-negative by
	// construction; check the lifecycle set is coherent with the run.
	snap := obs.Default.Snapshot()
	for _, name := range []string{
		"netproto.frames.in", "netproto.frames.out",
		"netproto.conns.shed", "netproto.conns.evicted",
		"netproto.panics.recovered",
	} {
		if v, ok := snap.Counters[name]; ok && v < 0 {
			t.Errorf("counter %s = %d, want ≥ 0", name, v)
		}
	}
	if g, ok := snap.Gauges["netproto.conns.active"]; ok && g.Value != 0 {
		t.Errorf("conns.active after shutdown = %d, want 0", g.Value)
	}
	if g, ok := snap.Gauges["netproto.stream.subs.active"]; ok && g.Value != 0 {
		t.Errorf("stream.subs.active after shutdown = %d, want 0", g.Value)
	}
	if fetchOK.Load() == 0 {
		t.Error("no fetch ever succeeded during the soak")
	}
	t.Logf("soak %v: fetches=%d batches=%d subscriberRounds=%d junk=%d injectedPanics=%d shed=%d evicted=%d",
		dur, fetchOK.Load(), batchesIn.Load(), subRounds.Load(), junkRounds.Load(),
		injectedPanics.Load(), metConnsShed.Value(), metConnsEvicted.Value())
}
