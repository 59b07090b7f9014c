package netproto

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"locble/internal/core"
	"locble/internal/durable"
	"locble/internal/estimate"
	"locble/internal/fleet"
	"locble/internal/testutil"
)

func newPushServer(t *testing.T, cfg ServerConfig) (*Server, *fleet.Fleet) {
	t.Helper()
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	fl, err := fleet.New(eng, fleet.Config{
		Session: core.TrackSessionConfig{SampleRateHz: 8},
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	t.Cleanup(func() { fl.Close() })
	srv, err := NewServerWithConfig("fleet-gw", 0, cfg)
	if err != nil {
		t.Fatalf("NewServerWithConfig: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetFleet(fl)
	return srv, fl
}

// TestPushOpStreamsFixes drives batched ingest over the wire and checks
// the streamed fixes are bit-identical to a local session fed the same
// observations: the protocol is pure transport (JSON float64 round-trips
// exactly), and lifecycle flags arrive with the results.
func TestPushOpStreamsFixes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	srv, _ := newPushServer(t, ServerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer cl.Close()

	const n, slice = 240, 24
	streams := map[string][]fleet.Obs{
		"w1": fleet.SynthStream("w1", n, 0.3),
		"w2": fleet.SynthStream("w2", n, 2.1),
	}
	wireFixes := map[string][]PushFix{}
	for lo := 0; lo < n; lo += slice {
		var batch []fleet.Obs
		for _, s := range streams {
			batch = append(batch, s[lo:lo+slice]...)
		}
		res, err := cl.Push(ctx, batch)
		if err != nil {
			t.Fatalf("Push: %v", err)
		}
		if len(res) != 2 {
			t.Fatalf("push returned %d results, want 2", len(res))
		}
		for _, r := range res {
			if r.Err != "" {
				t.Fatalf("%s: %s", r.Beacon, r.Err)
			}
			if (lo == 0) != r.Created {
				t.Errorf("%s @lo=%d: Created=%v", r.Beacon, lo, r.Created)
			}
			wireFixes[r.Beacon] = append(wireFixes[r.Beacon], r.Fixes...)
		}
	}

	// Local ground truth: one standalone session per beacon.
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	for name, stream := range streams {
		s, err := eng.NewTrackSession(core.TrackSessionConfig{Beacon: name, SampleRateHz: 8})
		if err != nil {
			t.Fatalf("NewTrackSession: %v", err)
		}
		var want []PushFix
		for _, o := range stream {
			pt, err := s.Push(estimate.Obs{T: o.T, RSS: o.RSS, P: o.P, Q: o.Q})
			if err != nil {
				t.Fatalf("local Push: %v", err)
			}
			if pt != nil {
				want = append(want, PushFix{
					T: pt.T, X: pt.Est.X, Y: pt.Est.H,
					N: pt.Est.N, Gamma: pt.Est.Gamma,
					Confidence: pt.Est.Confidence,
					Mode:       pt.Mode.String(),
					Samples:    pt.Samples,
				})
			}
		}
		got := wireFixes[name]
		if len(got) != len(want) {
			t.Fatalf("%s: %d wire fixes, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s fix %d differs over the wire:\n got  %+v\n want %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestPushOpScrubsBoundary: non-finite fields and unnamed observations
// are dropped at the wire boundary — the rest of the batch lands, and a
// beacon made entirely of poison simply never exists.
func TestPushOpScrubsBoundary(t *testing.T) {
	srv, fl := newPushServer(t, ServerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer cl.Close()

	batch := fleet.SynthStream("ok", 8, 0)
	batch = append(batch,
		fleet.Obs{Beacon: "poison", T: 1, RSS: math.NaN(), P: 0, Q: 0},
		fleet.Obs{Beacon: "poison", T: math.Inf(1), RSS: -60, P: 0, Q: 0},
		fleet.Obs{Beacon: "", T: 2, RSS: -60, P: 0, Q: 0},
	)
	res, err := cl.Push(ctx, batch)
	if err != nil {
		t.Fatalf("Push: %v", err)
	}
	if len(res) != 1 || res[0].Beacon != "ok" || res[0].Err != "" {
		t.Fatalf("results = %+v, want exactly one clean result for %q", res, "ok")
	}
	if got := fl.Sessions(); got != 1 {
		t.Errorf("Sessions() = %d, want 1 (poisoned beacon must not get a session)", got)
	}
}

// TestPushOpIsOneFrameEachWay: a push exchange is one request frame and
// one reply frame, however many beacons its batch holds. Client and
// server share the process-wide frame counters, so each direction
// counts once as out and once as in; the test must not run in parallel
// with other traffic.
func TestPushOpIsOneFrameEachWay(t *testing.T) {
	srv, _ := newPushServer(t, ServerConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer cl.Close()

	var batch []fleet.Obs
	for i, name := range []string{"one", "two", "three"} {
		batch = append(batch, fleet.SynthStream(name, 8, float64(i))...)
	}
	out, in := metFramesOut.Value(), metFramesIn.Value()
	res, err := cl.Push(ctx, batch)
	if err != nil {
		t.Fatalf("Push: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("push returned %d results, want 3", len(res))
	}
	// The server counts a frame out after its write returns, which can
	// be after the client has read it; Close waits for the handler.
	srv.Close()
	if dOut, dIn := metFramesOut.Value()-out, metFramesIn.Value()-in; dOut != 2 || dIn != 2 {
		t.Fatalf("a 3-beacon push moved frames.out by %d and frames.in by %d, want 2 and 2", dOut, dIn)
	}
}

// TestPushOpNoFleet: a server without an attached fleet refuses the op
// with an exchange-level error, not a hang or an empty success.
func TestPushOpNoFleet(t *testing.T) {
	srv, err := NewServer("no-fleet", 0)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Push(ctx, fleet.SynthStream("b", 4, 0)); err == nil {
		t.Fatal("Push on a fleet-less server succeeded, want server error")
	}
}

// TestPushOpOverloadShed: pushes ride the same admission control as
// every other op — a connection over the cap is shed with an
// "overloaded" frame the client surfaces as ErrOverloaded.
func TestPushOpOverloadShed(t *testing.T) {
	srv, _ := newPushServer(t, ServerConfig{MaxConns: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	hold, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet(hold): %v", err)
	}
	defer hold.Close()
	// Occupy the only slot with a real exchange so the connection is
	// registered before the second dial.
	if _, err := hold.Push(ctx, fleet.SynthStream("holder", 4, 0)); err != nil {
		t.Fatalf("holder Push: %v", err)
	}

	shed, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet(shed): %v", err)
	}
	defer shed.Close()
	_, err = shed.Push(ctx, fleet.SynthStream("shed", 4, 0))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed Push error = %v, want ErrOverloaded", err)
	}
}

// corruptStore is a CheckpointStore stub whose poisoned beacons load as
// corrupt — exercising the quarantine path without a real damaged disk.
type corruptStore struct {
	mu       sync.Mutex
	poisoned map[string]bool
}

func (c *corruptStore) Save(beacon string, cp *core.SessionCheckpoint) error { return nil }

func (c *corruptStore) Load(beacon string) (*core.SessionCheckpoint, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.poisoned[beacon] {
		return nil, true, fmt.Errorf("stub: %w", core.ErrCorruptCheckpoint)
	}
	return nil, false, nil
}

func (c *corruptStore) Delete(beacon string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.poisoned, beacon)
	return nil
}

// TestPushOpQuarantinedOnWire: a corrupt stored checkpoint surfaces as
// Quarantined on the beacon's wire result — the client learns the
// session started cold instead of silently resuming from bad state.
func TestPushOpQuarantinedOnWire(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	fl, err := fleet.New(eng, fleet.Config{
		Session: core.TrackSessionConfig{SampleRateHz: 8},
		Store:   &corruptStore{poisoned: map[string]bool{"q-bad": true}},
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	t.Cleanup(func() { fl.Close() })
	srv, err := NewServer("fleet-quar", 0)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetFleet(fl)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := DialFleet(ctx, srv.Addr())
	if err != nil {
		t.Fatalf("DialFleet: %v", err)
	}
	defer cl.Close()

	var batch []fleet.Obs
	batch = append(batch, fleet.SynthStream("q-bad", 24, 0.2)...)
	batch = append(batch, fleet.SynthStream("q-ok", 24, 1.1)...)
	res, err := cl.Push(ctx, batch)
	if err != nil {
		t.Fatalf("Push: %v", err)
	}
	got := map[string]PushResult{}
	for _, r := range res {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Beacon, r.Err)
		}
		got[r.Beacon] = r
	}
	bad := got["q-bad"]
	if !bad.Quarantined || bad.Restored || !bad.Created {
		t.Fatalf("q-bad: Quarantined=%v Restored=%v Created=%v; want quarantined cold start", bad.Quarantined, bad.Restored, bad.Created)
	}
	ok := got["q-ok"]
	if ok.Quarantined {
		t.Fatalf("q-ok wrongly quarantined: %+v", ok)
	}
}

// TestPushOpDurableRestart runs the full kill-and-rebuild story over
// the wire: server A ingests half a stream on a durable file store and
// is torn down (fleet Close checkpoints every live session); server B —
// a fresh engine, fleet, and server over the same directory — ingests
// the second half. The beacon's result reports Restored, and the fixes
// across both incarnations are bit-identical to one uninterrupted local
// session.
func TestPushOpDurableRestart(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	const n, half, slice = 240, 120, 24
	stream := fleet.SynthStream("dur-1", n, 0.7)

	runHalf := func(lo, hi int, wantRestored bool) []PushFix {
		t.Helper()
		eng, err := core.NewEngine(core.DefaultConfig())
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		defer eng.Close()
		st, err := durable.Open(dir, nil)
		if err != nil {
			t.Fatalf("durable.Open: %v", err)
		}
		defer st.Close()
		if rec := st.RecoveryStats(); rec.Quarantined != 0 || rec.TornTails != 0 {
			t.Fatalf("clean shutdown left damage: %+v", rec)
		}
		fl, err := fleet.New(eng, fleet.Config{
			Session: core.TrackSessionConfig{SampleRateHz: 8},
			Store:   st,
		})
		if err != nil {
			t.Fatalf("fleet.New: %v", err)
		}
		srv, err := NewServer("fleet-dur", 0)
		if err != nil {
			fl.Close()
			t.Fatalf("NewServer: %v", err)
		}
		srv.SetFleet(fl)
		defer fl.Close() // checkpoints live sessions into the store
		defer srv.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		cl, err := DialFleet(ctx, srv.Addr())
		if err != nil {
			t.Fatalf("DialFleet: %v", err)
		}
		defer cl.Close()

		var fixes []PushFix
		for at := lo; at < hi; at += slice {
			res, err := cl.Push(ctx, stream[at:at+slice])
			if err != nil {
				t.Fatalf("Push @%d: %v", at, err)
			}
			if len(res) != 1 {
				t.Fatalf("push returned %d results, want 1", len(res))
			}
			r := res[0]
			if r.Err != "" {
				t.Fatalf("dur-1 @%d: %s", at, r.Err)
			}
			if at == lo && r.Restored != wantRestored {
				t.Fatalf("first batch @%d: Restored=%v, want %v", at, r.Restored, wantRestored)
			}
			if r.Quarantined {
				t.Fatalf("dur-1 @%d wrongly quarantined", at)
			}
			fixes = append(fixes, r.Fixes...)
		}
		return fixes
	}

	got := runHalf(0, half, false)
	got = append(got, runHalf(half, n, true)...)

	// Ground truth: one uninterrupted local session over the whole stream.
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer eng.Close()
	s, err := eng.NewTrackSession(core.TrackSessionConfig{Beacon: "dur-1", SampleRateHz: 8})
	if err != nil {
		t.Fatalf("NewTrackSession: %v", err)
	}
	var want []PushFix
	for _, o := range stream {
		pt, err := s.Push(estimate.Obs{T: o.T, RSS: o.RSS, P: o.P, Q: o.Q})
		if err != nil {
			t.Fatalf("local Push: %v", err)
		}
		if pt != nil {
			want = append(want, PushFix{
				T: pt.T, X: pt.Est.X, Y: pt.Est.H,
				N: pt.Est.N, Gamma: pt.Est.Gamma,
				Confidence: pt.Est.Confidence,
				Mode:       pt.Mode.String(),
				Samples:    pt.Samples,
			})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d fixes across the restart, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fix %d differs across kill-and-rebuild:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
