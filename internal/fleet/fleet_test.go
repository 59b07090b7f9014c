package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"locble/internal/core"
	"locble/internal/estimate"
	"locble/internal/testutil"
)

func newTestEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// testSession is the session template every fleet test uses — 8 Hz to
// match SynthStream.
func testSession() core.TrackSessionConfig {
	return core.TrackSessionConfig{SampleRateHz: 8}
}

// seqReplay pushes one beacon's observations into a standalone session
// (same engine, same template) and returns its fixes — the ground truth
// the sharded fleet must match bit-for-bit.
func seqReplay(t *testing.T, eng *core.Engine, beacon string, obs []Obs) []core.TrackPoint {
	t.Helper()
	cfg := testSession()
	cfg.Beacon = beacon
	s, err := eng.NewTrackSession(cfg)
	if err != nil {
		t.Fatalf("NewTrackSession(%s): %v", beacon, err)
	}
	var fixes []core.TrackPoint
	for _, o := range obs {
		pt, err := s.Push(estimate.Obs{T: o.T, RSS: o.RSS, P: o.P, Q: o.Q})
		if err != nil {
			t.Fatalf("sequential Push(%s, t=%.2f): %v", beacon, o.T, err)
		}
		if pt != nil {
			fixes = append(fixes, *pt)
		}
	}
	return fixes
}

// requireSameFixes asserts two fix streams are bit-identical.
func requireSameFixes(t *testing.T, beacon string, got, want []core.TrackPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: fleet produced %d fixes, sequential replay %d", beacon, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.T != w.T || g.Mode != w.Mode || g.Samples != w.Samples {
			t.Fatalf("%s fix %d: (T=%v mode=%v n=%d) != sequential (T=%v mode=%v n=%d)",
				beacon, i, g.T, g.Mode, g.Samples, w.T, w.Mode, w.Samples)
		}
		if g.Est.X != w.Est.X || g.Est.H != w.Est.H ||
			g.Est.N != w.Est.N || g.Est.Gamma != w.Est.Gamma ||
			g.Est.ResidualDB != w.Est.ResidualDB || g.Est.Confidence != w.Est.Confidence {
			t.Fatalf("%s fix %d not bit-identical:\n got  (%.17g, %.17g) n=%.17g Γ=%.17g\n want (%.17g, %.17g) n=%.17g Γ=%.17g",
				beacon, i, g.Est.X, g.Est.H, g.Est.N, g.Est.Gamma,
				w.Est.X, w.Est.H, w.Est.N, w.Est.Gamma)
		}
	}
}

// TestPushBatchMatchesSequential: mixed batches over many beacons land
// on sharded sessions with results bit-identical to per-beacon
// sequential replay — sharding and batching are pure transport.
func TestPushBatchMatchesSequential(t *testing.T) {
	eng := newTestEngine(t)
	fl, err := New(eng, Config{Session: testSession()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer fl.Close()

	const nb, n, slice = 9, 400, 16
	names := make([]string, nb)
	streams := make(map[string][]Obs, nb)
	for i := range names {
		names[i] = fmt.Sprintf("b%02d", i)
		streams[names[i]] = SynthStream(names[i], n, float64(i)*0.7)
	}

	got := make(map[string][]core.TrackPoint, nb)
	for lo := 0; lo < n; lo += slice {
		var batch []Obs
		for _, name := range names {
			batch = append(batch, streams[name][lo:lo+slice]...)
		}
		res, err := fl.PushBatch(batch)
		if err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
		if len(res) != nb {
			t.Fatalf("PushBatch returned %d results, want %d", len(res), nb)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Beacon, r.Err)
			}
			if lo == 0 && !r.Created {
				t.Errorf("%s: first batch did not report Created", r.Beacon)
			}
			got[r.Beacon] = append(got[r.Beacon], r.Points...)
		}
	}
	for _, name := range names {
		requireSameFixes(t, name, got[name], seqReplay(t, eng, name, streams[name]))
	}

	if fl.Sessions() != nb {
		t.Errorf("Sessions() = %d, want %d", fl.Sessions(), nb)
	}
	snap := fl.Metrics()
	if snap.Counters["fleet.sessions.created"] != nb {
		t.Errorf("fleet.sessions.created = %d, want %d", snap.Counters["fleet.sessions.created"], nb)
	}
	if snap.Counters["fleet.sessions.evicted"] != 0 {
		t.Errorf("fleet.sessions.evicted = %d, want 0", snap.Counters["fleet.sessions.evicted"])
	}
	if want := int64(nb * n); snap.Counters["fleet.obs.pushed"] != want {
		t.Errorf("fleet.obs.pushed = %d, want %d", snap.Counters["fleet.obs.pushed"], want)
	}
}

// TestEvictRestoreResumesBitExact: a beacon that goes silent past the
// idle horizon is checkpointed and evicted (while another beacon keeps
// the shard's clock moving), then restored on reappearance — and the
// whole interrupted life produces exactly the fixes one uninterrupted
// session fed the same gapped stream would.
func TestEvictRestoreResumesBitExact(t *testing.T) {
	eng := newTestEngine(t)
	fl, err := New(eng, Config{Shards: 1, Session: testSession(), IdleMaxAge: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer fl.Close()

	const n, slice = 600, 15
	const gapLo, gapHi = 150, 450 // wanderer silent for 37.5 s ≫ 5 s idle
	wander := SynthStream("wanderer", n, 0.4)
	anchor := SynthStream("anchor", n, 1.9)

	var got []core.TrackPoint
	sawRestore := false
	for lo := 0; lo < n; lo += slice {
		batch := append([]Obs(nil), anchor[lo:lo+slice]...)
		if lo < gapLo || lo >= gapHi {
			batch = append(batch, wander[lo:lo+slice]...)
		}
		res, err := fl.PushBatch(batch)
		if err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Beacon, r.Err)
			}
			if r.Beacon == "wanderer" {
				got = append(got, r.Points...)
				if r.Restored {
					sawRestore = true
				}
			}
		}
	}
	if !sawRestore {
		t.Fatal("wanderer reappeared but was never restored from its checkpoint")
	}

	gapped := append(append([]Obs(nil), wander[:gapLo]...), wander[gapHi:]...)
	requireSameFixes(t, "wanderer", got, seqReplay(t, eng, "wanderer", gapped))

	snap := fl.Metrics()
	if e, c := snap.Counters["fleet.sessions.evicted"], snap.Counters["fleet.checkpoints.written"]; e != 1 || c != 1 {
		t.Errorf("evicted=%d checkpoints=%d, want 1 and 1 (every eviction writes exactly one checkpoint)", e, c)
	}
	if r := snap.Counters["fleet.sessions.restored"]; r != 1 {
		t.Errorf("fleet.sessions.restored = %d, want 1", r)
	}
	if fl.Sessions() != 2 {
		t.Errorf("Sessions() = %d, want 2", fl.Sessions())
	}
}

// gateStore parks every Load until gate closes — the deterministic way
// to hold a shard goroutine busy so its batch queue can be saturated.
type gateStore struct {
	CheckpointStore
	gate <-chan struct{}
}

func (g *gateStore) Load(beacon string) (*core.SessionCheckpoint, bool, error) {
	<-g.gate
	return g.CheckpointStore.Load(beacon)
}

// TestPushBatchCanceledUnderBackpressure mirrors the LocateAllContext
// regression: with the single shard parked and its batch queue full, a
// PushBatchContext submitter blocks in backpressure; cancellation must
// unblock it and fill the unsubmitted results with the context error
// instead of hanging on a dead batch.
func TestPushBatchCanceledUnderBackpressure(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	eng := newTestEngine(t)
	gate := make(chan struct{})
	fl, err := New(eng, Config{
		Shards:  1,
		Session: testSession(),
		Store:   &gateStore{CheckpointStore: NewMemStore(), gate: gate},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// One batch parks the shard inside store.Load; shardBatchDepth more
	// fill its queue.
	var fillWG sync.WaitGroup
	fillRes := make([]Result, 1+shardBatchDepth)
	for i := range fillRes {
		fillRes[i].Beacon = "gated"
		fillWG.Add(1)
		fl.shards[0].ch <- shardBatch{
			groups: []groupWork{{name: "gated", obs: []estimate.Obs{{T: float64(i), RSS: -60}}, res: &fillRes[i]}},
			wg:     &fillWG,
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []Result, 1)
	go func() {
		res, err := fl.PushBatchContext(ctx, SynthStream("victim", 4, 0))
		if err != nil {
			t.Errorf("PushBatchContext: %v", err)
		}
		done <- res
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case res := <-done:
		if len(res) != 1 || !errors.Is(res[0].Err, context.Canceled) {
			t.Fatalf("canceled batch results = %+v, want one context.Canceled", res)
		}
	case <-time.After(10 * time.Second):
		close(gate)
		t.Fatal("PushBatchContext hung: canceled context did not unblock a submitter stuck in shard backpressure")
	}

	close(gate)
	fillWG.Wait()
	for i, r := range fillRes {
		if r.Err != nil {
			t.Errorf("parked batch %d: %v", i, r.Err)
		}
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// slowSaveStore delays every Save, holding an idle sweep mid-eviction
// long enough for a caller that returned early to observe it.
type slowSaveStore struct{ CheckpointStore }

func (s slowSaveStore) Save(beacon string, cp *core.SessionCheckpoint) error {
	time.Sleep(50 * time.Millisecond)
	return s.CheckpointStore.Save(beacon, cp)
}

// TestPushBatchReturnsAfterItsSweep: the eviction sweep a push triggers
// finishes before the push returns, so the lifecycle counters balance
// the moment PushBatch does — the books a reader checks right after a
// push must not depend on a sweep still checkpointing in the
// background.
func TestPushBatchReturnsAfterItsSweep(t *testing.T) {
	eng := newTestEngine(t)
	fl, err := New(eng, Config{
		Shards:     1,
		Session:    testSession(),
		Store:      slowSaveStore{NewMemStore()},
		IdleMaxAge: 2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer fl.Close()

	if _, err := fl.PushBatch([]Obs{
		{Beacon: "old", T: 0, RSS: -60},
		{Beacon: "new", T: 0.1, RSS: -60},
	}); err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	// "old" is now 10 s idle, past the 2 s horizon: this push's sweep
	// evicts it.
	if _, err := fl.PushBatch([]Obs{{Beacon: "new", T: 10, RSS: -60}}); err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	snap := fl.Metrics()
	evicted, cps := snap.Counters["fleet.sessions.evicted"], snap.Counters["fleet.checkpoints.written"]
	if evicted != 1 || cps != 1 || fl.Sessions() != 1 {
		t.Fatalf("right after the push: evicted=%d checkpoints=%d live=%d, want 1, 1 and 1",
			evicted, cps, fl.Sessions())
	}
}

// TestShardSessionCap: the per-shard cap rejects the overflow beacon
// with ErrShardFull while resident beacons keep ingesting.
func TestShardSessionCap(t *testing.T) {
	eng := newTestEngine(t)
	fl, err := New(eng, Config{Shards: 1, Session: testSession(), MaxSessionsPerShard: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer fl.Close()

	var batch []Obs
	for i, name := range []string{"a", "b", "c"} {
		batch = append(batch, SynthStream(name, 4, float64(i))...)
	}
	res, err := fl.PushBatch(batch)
	if err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("resident beacons errored: %v / %v", res[0].Err, res[1].Err)
	}
	if !errors.Is(res[2].Err, ErrShardFull) {
		t.Fatalf("overflow beacon err = %v, want ErrShardFull", res[2].Err)
	}
	if fl.Sessions() != 2 {
		t.Errorf("Sessions() = %d, want 2", fl.Sessions())
	}
	res, err = fl.PushBatch(SynthStream("a", 8, 0)[4:])
	if err != nil || res[0].Err != nil {
		t.Fatalf("resident beacon rejected after cap hit: %v / %v", err, res[0].Err)
	}
}

// TestCloseCheckpointsResidents: Close drains every resident session
// into the store, rejects further ingest, and a successor fleet sharing
// the store resumes every beacon from its checkpoint.
func TestCloseCheckpointsResidents(t *testing.T) {
	eng := newTestEngine(t)
	store := NewMemStore()
	fl, err := New(eng, Config{Session: testSession(), Store: store})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const nb = 5
	var batch []Obs
	for i := 0; i < nb; i++ {
		batch = append(batch, SynthStream(fmt.Sprintf("c%d", i), 24, float64(i))...)
	}
	if _, err := fl.PushBatch(batch); err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if store.Len() != nb {
		t.Fatalf("store holds %d checkpoints after Close, want %d", store.Len(), nb)
	}
	if _, err := fl.PushBatch(batch); !errors.Is(err, ErrClosed) {
		t.Fatalf("PushBatch after Close = %v, want ErrClosed", err)
	}
	if err := fl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The successor process: same engine config, same store — every
	// beacon resumes rather than cold-starts.
	fl2, err := New(eng, Config{Session: testSession(), Store: store})
	if err != nil {
		t.Fatalf("New (successor): %v", err)
	}
	defer fl2.Close()
	var next []Obs
	for i := 0; i < nb; i++ {
		next = append(next, SynthStream(fmt.Sprintf("c%d", i), 48, float64(i))[24:]...)
	}
	res, err := fl2.PushBatch(next)
	if err != nil {
		t.Fatalf("successor PushBatch: %v", err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Beacon, r.Err)
		}
		if !r.Restored {
			t.Errorf("%s: successor fleet cold-started instead of restoring", r.Beacon)
		}
	}
}
