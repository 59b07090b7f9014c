package fleet

import (
	"fmt"
	"os"
	"testing"
	"time"

	"locble/internal/core"
	"locble/internal/durable"
	"locble/internal/faults"
	"locble/internal/rng"
	"locble/internal/sim"
	"locble/internal/testutil"
)

// TestCorruptCheckpointQuarantined is the regression test for the
// corrupt-restore accounting bug: a stored checkpoint whose bytes no
// longer decode must cost exactly one fleet.restore.errors (never a
// store error, never restored work), be quarantined out of the store so
// it cannot wedge the beacon on every reappearance, surface
// Quarantined in the Result — and the observations must still land on
// a cold-started session. Pre-fix, the fleet counted this as a store
// error, failed the whole group, and left the poison checkpoint in
// place forever.
func TestCorruptCheckpointQuarantined(t *testing.T) {
	eng := newTestEngine(t)
	ms := NewMemStore()
	// Plant damage directly: bytes that are not a checkpoint at all.
	ms.mu.Lock()
	ms.m["poisoned"] = []byte("\x00\x01 not a checkpoint")
	ms.mu.Unlock()

	fl, err := New(eng, Config{Shards: 1, Session: testSession(), Store: ms})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer fl.Close()

	stream := SynthStream("poisoned", 120, 0.3)
	res, err := fl.PushBatch(stream)
	if err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	r := res[0]
	if r.Err != nil {
		t.Fatalf("corrupt checkpoint failed the batch: %v (observations must land on a cold session)", r.Err)
	}
	if !r.Quarantined {
		t.Errorf("Result.Quarantined not set")
	}
	if r.Restored {
		t.Errorf("corrupt checkpoint counted as a restore")
	}
	if !r.Created {
		t.Errorf("session was not cold-started")
	}
	if len(r.Points) == 0 {
		t.Errorf("no fixes from the cold-started session")
	}

	snap := fl.Metrics()
	if v := snap.Counters["fleet.restore.errors"]; v != 1 {
		t.Errorf("fleet.restore.errors = %d, want exactly 1", v)
	}
	if v := snap.Counters["fleet.store.errors"]; v != 0 {
		t.Errorf("fleet.store.errors = %d, want 0 — corruption is a restore casualty, not a store fault", v)
	}
	if v := snap.Counters["fleet.sessions.restored"]; v != 0 {
		t.Errorf("fleet.sessions.restored = %d, want 0", v)
	}
	if ms.Len() != 0 {
		t.Errorf("poison checkpoint still in the store — beacon would wedge on every reappearance")
	}

	// The quarantine is final: a second encounter is a plain resident
	// push with no new errors.
	if _, err := fl.PushBatch(SynthStream("poisoned", 8, 0.3)); err != nil {
		t.Fatalf("second PushBatch: %v", err)
	}
	if v := fl.Metrics().Counters["fleet.restore.errors"]; v != 1 {
		t.Errorf("restore.errors grew to %d after quarantine", v)
	}
}

// TestFleetDurableKillRebuild runs the fleet over the durable file
// store, kills the process at the worst moment (a power cut with no
// store shutdown, right after Fleet.Close acknowledged the drain), and
// rebuilds on the crash image: every session resumes bit-exactly, the
// accounting invariants hold, and recovery reports zero damage.
func TestFleetDurableKillRebuild(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	eng := newTestEngine(t)
	mfs := durable.NewMemFS()

	st1, err := durable.Open("", &durable.Options{FS: mfs, Shards: 2, SnapshotEvery: 8})
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	fl1, err := New(eng, Config{Shards: 3, Session: testSession(), Store: st1, IdleMaxAge: 6})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const nb, n, half, slice = 6, 1024, 512, 64
	names := make([]string, nb)
	streams := make(map[string][]Obs, nb)
	fixes := make(map[string][]core.TrackPoint, nb)
	for i := range names {
		names[i] = fmt.Sprintf("dur-%02d", i)
		streams[names[i]] = SynthStream(names[i], n, 0.9*float64(i))
	}
	push := func(fl *Fleet, lo, hi int) {
		t.Helper()
		for at := lo; at < hi; at += slice {
			var batch []Obs
			for _, name := range names {
				batch = append(batch, streams[name][at:at+slice]...)
			}
			res, err := fl.PushBatch(batch)
			if err != nil {
				t.Fatalf("PushBatch: %v", err)
			}
			for _, r := range res {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Beacon, r.Err)
				}
				fixes[r.Beacon] = append(fixes[r.Beacon], r.Points...)
			}
		}
	}
	push(fl1, 0, half)

	liveAtClose := fl1.Sessions()
	evictedBeforeClose := fl1.Metrics().Counters["fleet.sessions.evicted"]
	if err := fl1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := fl1.Metrics()
	evicted := snap.Counters["fleet.sessions.evicted"]
	written := snap.Counters["fleet.checkpoints.written"]
	// Accounting invariant: Close evicts every then-live session, and
	// every checkpoint written is one eviction — nothing double-counted,
	// nothing lost.
	if evicted != evictedBeforeClose+liveAtClose || written != evicted {
		t.Errorf("checkpoints.written=%d evicted=%d, want both idle-evicted(%d)+closed(%d)",
			written, evicted, evictedBeforeClose, liveAtClose)
	}
	// The store runs durable: every write was acknowledged fsynced.
	if acked := snap.Counters["fleet.checkpoints.acked"]; acked != written {
		t.Errorf("checkpoints.acked=%d, want %d (all writes acked on a durable store)", acked, written)
	}
	if buf := snap.Counters["fleet.checkpoints.buffered"]; buf != 0 {
		t.Errorf("checkpoints.buffered=%d, want 0", buf)
	}

	// Power cut: no store Close, page cache gone — only fsynced bytes
	// survive. Every checkpoint was acked, so nothing may be lost.
	img := mfs.CrashImage(nil)
	st1.Close()

	st2, err := durable.Open("", &durable.Options{FS: img, SnapshotEvery: 8})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	fl2, err := New(eng, Config{Shards: 3, Session: testSession(), Store: st2, IdleMaxAge: 6})
	if err != nil {
		t.Fatalf("New (rebuild): %v", err)
	}
	snap2 := fl2.Metrics()
	if v := snap2.Gauges["fleet.recovery.replayed"].Value; v == 0 {
		t.Errorf("fleet.recovery.replayed = 0, want > 0 (checkpoints were replayed)")
	}
	if v := snap2.Gauges["fleet.recovery.truncated"].Value; v != 0 {
		t.Errorf("fleet.recovery.truncated = %d, want 0 on an acked-only crash", v)
	}
	if v := snap2.Gauges["fleet.recovery.quarantined"].Value; v != 0 {
		t.Errorf("fleet.recovery.quarantined = %d, want 0 — silent corruption", v)
	}

	// Resume the second half: the first batch must restore every
	// beacon from its checkpoint, and the stitched fix streams must be
	// bit-identical to uninterrupted sequential replays.
	var batch []Obs
	for _, name := range names {
		batch = append(batch, streams[name][half:half+slice]...)
	}
	res, err := fl2.PushBatch(batch)
	if err != nil {
		t.Fatalf("PushBatch (rebuild): %v", err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Beacon, r.Err)
		}
		if !r.Restored || r.Created || r.Quarantined {
			t.Errorf("%s: restored=%v created=%v quarantined=%v, want restored only",
				r.Beacon, r.Restored, r.Created, r.Quarantined)
		}
		fixes[r.Beacon] = append(fixes[r.Beacon], r.Points...)
	}
	push(fl2, half+slice, n)
	if err := fl2.Close(); err != nil {
		t.Fatalf("Close (rebuild): %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("store Close: %v", err)
	}
	for _, name := range names {
		requireSameFixes(t, name, fixes[name], seqReplay(t, eng, name, streams[name]))
	}
}

// TestDurableChaosSoak cycles the fleet+durable-store stack through
// kill/rebuild rounds under fire for a wall-clock budget: ingest is
// impaired by rotating fault chains, the disk dies and comes back
// mid-cycle (fsync errors and torn appends, exercising the broken-shard
// escalation and snapshot healing), and each cycle ends in a power cut
// — strict or with a lossy write-back tail — instead of a clean store
// shutdown. The invariant throughout: recovery never quarantines a
// record (the only damage a crash can make is a torn tail), nothing
// stored ever fails to restore, and lifecycle accounting stays exact.
// The default budget suits `go test`; `make soak` stretches it via
// LOCBLE_SOAK.
func TestDurableChaosSoak(t *testing.T) {
	dur := 800 * time.Millisecond
	if env := os.Getenv("LOCBLE_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("LOCBLE_SOAK=%q: %v", env, err)
		}
		dur = d
	}
	testutil.VerifyNoLeaks(t)
	eng := newTestEngine(t)
	rsrc := rng.New(0xD15C)

	chains := []faults.Fault{
		faults.Chain(faults.NonFiniteRSSI{Prob: 0.05}, faults.DuplicateReports{Prob: 0.10}),
		faults.Chain(faults.RandomDrop{Prob: 0.15}, faults.ClipRSSI{Floor: -90, Ceil: -35}),
		faults.Chain(faults.JitterTimestamps{Sigma: 0.02}, faults.ImpulseBurst{Prob: 0.08, DeltaDB: 15}),
	}

	const nb, streamLen, slice = 5, 4096, 32
	names := make([]string, nb)
	streams := make([][]Obs, nb)
	for j := range names {
		names[j] = fmt.Sprintf("soak-%d", j)
		streams[j] = SynthStream(names[j], streamLen, 0.7*float64(j))
	}

	mfs := durable.NewMemFS()
	deadline := time.Now().Add(dur)
	iter := 0
	for cycle := 0; time.Now().Before(deadline) || cycle == 0; cycle++ {
		st, err := durable.Open("", &durable.Options{FS: mfs, Shards: 2, SnapshotEvery: 16})
		if err != nil {
			t.Fatalf("cycle %d: durable.Open: %v", cycle, err)
		}
		rec := st.RecoveryStats()
		if rec.Quarantined != 0 {
			t.Fatalf("cycle %d: recovery quarantined %d regions — crash produced silent corruption exposure: %+v",
				cycle, rec.Quarantined, rec)
		}
		fl, err := New(eng, Config{Shards: 2, Session: testSession(), Store: st, IdleMaxAge: 6})
		if err != nil {
			t.Fatalf("cycle %d: New: %v", cycle, err)
		}

		scratch := make([]sim.BeaconObservation, 0, 2*slice)
		for step := 0; step < 12; step++ {
			iter++
			lo := (iter * slice) % streamLen
			off := float64((iter*slice)/streamLen) * (streamLen / 8.0)
			var batch []Obs
			for j := range names {
				// Beacons periodically fall silent so evict/restore churns.
				if ((iter/16)+2*j)%4 == 0 {
					continue
				}
				scratch = scratch[:0]
				for _, o := range streams[j][lo : lo+slice] {
					scratch = append(scratch, sim.BeaconObservation{T: o.T + off, RSSI: o.RSS})
				}
				impaired := faults.ApplyRSS(scratch, int64(iter), chains[(iter+j)%len(chains)])
				for _, o := range impaired {
					pp, qq := walkPQ(o.T)
					batch = append(batch, Obs{Beacon: names[j], T: o.T, RSS: o.RSSI, P: pp, Q: qq})
				}
			}
			if len(batch) == 0 {
				continue
			}
			// Mid-cycle disk outage: a short dead window (failed writes,
			// failed fsyncs, broken shards) then a healed disk. Sweep
			// retries and the broken-shard snapshot rotation must absorb
			// it with no beacon-visible error.
			if step == 5 {
				mfs.FailAfter(mfs.Ops() + int64(rsrc.Intn(6)))
			}
			if step == 8 {
				mfs.FailAfter(-1)
			}
			res, err := fl.PushBatch(batch)
			if err != nil {
				t.Fatalf("cycle %d: PushBatch: %v", cycle, err)
			}
			for _, r := range res {
				if r.Err != nil {
					t.Errorf("cycle %d: %s: ingest error: %v", cycle, r.Beacon, r.Err)
				}
				if r.Quarantined {
					t.Errorf("cycle %d: %s: checkpoint quarantined — a crash corrupted accepted state", cycle, r.Beacon)
				}
			}
		}
		mfs.FailAfter(-1) // disk healthy for the drain
		if err := fl.Close(); err != nil {
			t.Fatalf("cycle %d: fleet Close: %v", cycle, err)
		}
		snap := fl.Metrics()
		if v := snap.Counters["fleet.restore.errors"]; v != 0 {
			t.Fatalf("cycle %d: fleet.restore.errors = %d — a stored checkpoint failed to restore", cycle, v)
		}
		// Power cut instead of store.Close: alternate a strict cut with
		// a lossy write-back tail (the torn-record generator).
		var img *durable.MemFS
		if cycle%2 == 0 {
			img = mfs.CrashImage(nil)
		} else {
			img = mfs.CrashImage(func(unsynced int) int { return rsrc.Intn(unsynced + 1) })
		}
		st.Close()
		mfs = img
	}
	t.Logf("durable soak %v: %d iterations", dur, iter)
}
