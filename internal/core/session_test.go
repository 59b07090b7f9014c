package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"locble/internal/estimate"
)

// sessionObs synthesizes a deterministic fused observation stream: the
// observer walks an L (9 m along x, then 9 m along y at 0.8 m/s — fast
// enough that every 6 s window carries the estimator's minimum movement
// spread), the beacon sits at world (4, 3), and the RSS follows a
// log-distance model with seedless pseudo-noise (sinusoids —
// reproducible across runs and processes, which the bit-exactness
// assertions require).
func sessionObs(n int) []estimate.Obs {
	const (
		fs     = 8.0
		speed  = 0.8
		bx, by = 4.0, 3.0
		gamma  = -58.0
		nExp   = 2.2
	)
	out := make([]estimate.Obs, n)
	for i := 0; i < n; i++ {
		t := float64(i) / fs
		var ox, oy float64
		switch walked := speed * t; {
		case walked <= 9:
			ox = walked
		case walked <= 18:
			ox, oy = 9, walked-9
		default:
			ox, oy = 9, 9
		}
		d := math.Hypot(bx-ox, by-oy)
		if d < 0.1 {
			d = 0.1
		}
		noise := 2.0*math.Sin(1.3*float64(i)) + 1.1*math.Cos(2.7*float64(i)+0.5)
		out[i] = estimate.Obs{
			T:   t,
			RSS: gamma - 10*nExp*math.Log10(d) + noise,
			P:   -ox,
			Q:   -oy,
		}
	}
	return out
}

func newSession(t *testing.T, eng *Engine) *TrackSession {
	t.Helper()
	s, err := eng.NewTrackSession(TrackSessionConfig{Beacon: "target", SampleRateHz: 8})
	if err != nil {
		t.Fatalf("NewTrackSession: %v", err)
	}
	return s
}

func pushAll(t *testing.T, s *TrackSession, obs []estimate.Obs) []TrackPoint {
	t.Helper()
	var fixes []TrackPoint
	for _, o := range obs {
		pt, err := s.Push(o)
		if err != nil {
			t.Fatalf("Push(t=%.2f): %v", o.T, err)
		}
		if pt != nil {
			fixes = append(fixes, *pt)
		}
	}
	return fixes
}

// TestSessionFinish pins the replay's closing rule. sessionObs steps
// 1/8 s from t = 0, so a 6 s window first comes due exactly at the
// 49th observation and then every 2 s.
func TestSessionFinish(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, tc := range []struct {
		n     int
		wantT float64 // 0: finish emits nothing
		why   string
	}{
		{40, 6, "no window due yet: the first due fix"},
		{49, 0, "the newest observation closed the window due at 6 s"},
		{50, 8, "an observation after the last due time: the fix due next"},
	} {
		s := newSession(t, eng)
		pushAll(t, s, sessionObs(tc.n))
		pt, err := s.finish()
		if err != nil {
			t.Fatalf("n=%d: finish: %v", tc.n, err)
		}
		switch {
		case tc.wantT == 0 && pt != nil:
			t.Errorf("n=%d (%s): finish emitted a fix at %v", tc.n, tc.why, pt.T)
		case tc.wantT != 0 && (pt == nil || pt.T != tc.wantT || pt.Mode != ModeFull):
			t.Errorf("n=%d (%s): finish = %+v, want a full fix at %v", tc.n, tc.why, pt, tc.wantT)
		}
	}
}

// TestTrackSessionCheckpointRestore is the kill-and-restart test: a
// session checkpointed mid-stream (through a full JSON round trip, as a
// fresh process would see it) and restored on a different Engine must
// produce fixes sample-for-sample identical to an uninterrupted run.
func TestTrackSessionCheckpointRestore(t *testing.T) {
	obs := sessionObs(240)
	engA, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	ref := pushAll(t, newSession(t, engA), obs)
	if len(ref) < 5 {
		t.Fatalf("uninterrupted run produced %d fixes, want ≥ 5", len(ref))
	}

	// Interrupted run: kill after 120 observations...
	sessA := newSession(t, engA)
	before := pushAll(t, sessA, obs[:120])
	var ckpt bytes.Buffer
	if err := sessA.WriteCheckpoint(&ckpt); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	// ...and restart on a fresh engine (same configuration), as a
	// restarted server process would.
	engB, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine (restart): %v", err)
	}
	sessB, err := engB.RestoreTrackSessionFrom(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatalf("RestoreTrackSessionFrom: %v", err)
	}
	after := pushAll(t, sessB, obs[120:])

	got := append(append([]TrackPoint(nil), before...), after...)
	if len(got) != len(ref) {
		t.Fatalf("restored run produced %d fixes, uninterrupted produced %d", len(got), len(ref))
	}
	for i := range ref {
		w, g := ref[i], got[i]
		if g.T != w.T || g.WindowStart != w.WindowStart || g.Samples != w.Samples {
			t.Fatalf("fix %d window mismatch: got (T=%v start=%v n=%d), want (T=%v start=%v n=%d)",
				i, g.T, g.WindowStart, g.Samples, w.T, w.WindowStart, w.Samples)
		}
		if g.Est.X != w.Est.X || g.Est.H != w.Est.H ||
			g.Est.N != w.Est.N || g.Est.Gamma != w.Est.Gamma ||
			g.Est.ResidualDB != w.Est.ResidualDB || g.Est.Confidence != w.Est.Confidence {
			t.Fatalf("fix %d not bit-identical after restore:\n got  (%.17g, %.17g) n=%.17g Γ=%.17g\n want (%.17g, %.17g) n=%.17g Γ=%.17g",
				i, g.Est.X, g.Est.H, g.Est.N, g.Est.Gamma,
				w.Est.X, w.Est.H, w.Est.N, w.Est.Gamma)
		}
	}
	if sessB.Fixes() != int64(len(ref)) {
		t.Errorf("restored session Fixes() = %d, want %d (counters must survive restarts)",
			sessB.Fixes(), len(ref))
	}
	if sessB.Pushed() != int64(len(obs)) {
		t.Errorf("restored session Pushed() = %d, want %d", sessB.Pushed(), len(obs))
	}

	// Restore observability: the restore and its depth were recorded.
	snap := engB.Metrics()
	if snap.Counters["core.session.restores"] != 1 {
		t.Errorf("core.session.restores = %d, want 1", snap.Counters["core.session.restores"])
	}
}

// driftingSessionObs synthesizes a patrol loop (the observer walks a
// 9 m × 9 m rectangle forever) whose beacon TX power decays linearly by
// 42 dB over the stream — enough longitudinal Γ drift to trip the
// session's band recalibration several times, with enough movement
// spread that every window still fits.
func driftingSessionObs(n int) []estimate.Obs {
	const (
		fs     = 8.0
		speed  = 0.8
		bx, by = 4.0, 3.0
		nExp   = 2.2
	)
	out := make([]estimate.Obs, n)
	for i := 0; i < n; i++ {
		t := float64(i) / fs
		leg := math.Mod(speed*t, 36)
		var ox, oy float64
		switch {
		case leg <= 9:
			ox, oy = leg, 0
		case leg <= 18:
			ox, oy = 9, leg-9
		case leg <= 27:
			ox, oy = 9-(leg-18), 9
		default:
			ox, oy = 0, 9-(leg-27)
		}
		d := math.Hypot(bx-ox, by-oy)
		if d < 0.1 {
			d = 0.1
		}
		gamma := -58 - 42*float64(i)/float64(n)
		noise := 2.0*math.Sin(1.3*float64(i)) + 1.1*math.Cos(2.7*float64(i)+0.5)
		out[i] = estimate.Obs{
			T:   t,
			RSS: gamma - 10*nExp*math.Log10(d) + noise,
			P:   -ox,
			Q:   -oy,
		}
	}
	return out
}

// TestTrackSessionCheckpointRestoreAcrossRecalibration extends the
// kill-and-restart contract across a TX-power-drift recalibration
// boundary. The session recalibrates before the kill, shifting its live
// Γ band off the creation-time base; the checkpoint records that drift
// as an explicit gamma_shift on top of the base estimator config. A
// restore that rebuilds the estimator from nominal configuration
// without re-applying the shift silently reverts the Γ prior — the
// post-restore fixes then fight a stale anchor and diverge, so this
// test fails if the shift re-application in RestoreTrackSession is
// reverted.
func TestTrackSessionCheckpointRestoreAcrossRecalibration(t *testing.T) {
	obs := driftingSessionObs(600)
	engA, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	ref := pushAll(t, newSession(t, engA), obs)
	if len(ref) < 10 {
		t.Fatalf("uninterrupted run produced %d fixes, want ≥ 10", len(ref))
	}

	sessA := newSession(t, engA)
	before := pushAll(t, sessA, obs[:300])
	if sessA.recals == 0 || sessA.gammaShift == 0 {
		t.Fatalf("no recalibration before the kill point (recals=%d shift=%g) — the scenario must cross a recal boundary",
			sessA.recals, sessA.gammaShift)
	}
	var ckpt bytes.Buffer
	if err := sessA.WriteCheckpoint(&ckpt); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	engB, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine (restart): %v", err)
	}
	sessB, err := engB.RestoreTrackSessionFrom(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatalf("RestoreTrackSessionFrom: %v", err)
	}
	if sessB.estCfg.GammaSoftMin != sessA.estCfg.GammaSoftMin ||
		sessB.estCfg.GammaSoftMax != sessA.estCfg.GammaSoftMax {
		t.Fatalf("restore reverted the recalibrated Γ band: [%g,%g] vs live [%g,%g]",
			sessB.estCfg.GammaSoftMin, sessB.estCfg.GammaSoftMax,
			sessA.estCfg.GammaSoftMin, sessA.estCfg.GammaSoftMax)
	}
	after := pushAll(t, sessB, obs[300:])

	got := append(append([]TrackPoint(nil), before...), after...)
	if len(got) != len(ref) {
		t.Fatalf("restored run produced %d fixes, uninterrupted produced %d", len(got), len(ref))
	}
	for i := range ref {
		w, g := ref[i], got[i]
		if g.Est.X != w.Est.X || g.Est.H != w.Est.H ||
			g.Est.N != w.Est.N || g.Est.Gamma != w.Est.Gamma ||
			g.Est.ResidualDB != w.Est.ResidualDB || g.Est.Confidence != w.Est.Confidence {
			t.Fatalf("fix %d not bit-identical after a recal-crossing restore:\n got  (%.17g, %.17g) n=%.17g Γ=%.17g\n want (%.17g, %.17g) n=%.17g Γ=%.17g",
				i, g.Est.X, g.Est.H, g.Est.N, g.Est.Gamma,
				w.Est.X, w.Est.H, w.Est.N, w.Est.Gamma)
		}
	}
	// The drift keeps going after the restore: the restored session must
	// keep recalibrating from where the live one left off.
	if sessB.recals <= sessA.recals {
		t.Errorf("post-restore stream never recalibrated again (recals %d → %d)",
			sessA.recals, sessB.recals)
	}
}

// TestNoteGammaZeroAlloc pins the drift detector's hot path: folding a
// fitted Γ into the fixed ring and taking its median must not allocate.
// The pre-ring implementation (append + [1:] re-slice + a fresh median
// buffer per call) allocated on every full fix of every session — a
// fleet-scale tax. Fails if the ring is reverted to a slice.
func TestNoteGammaZeroAlloc(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s := newSession(t, eng)
	center := (s.estCfg.GammaSoftMin + s.estCfg.GammaSoftMax) / 2
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		// Stay inside the no-recal deadband so the ring keeps cycling
		// full and every call runs the median.
		i++
		s.noteGamma(center + float64(i%7) - 3)
	})
	if allocs != 0 {
		t.Fatalf("noteGamma allocates %.2f per call, want 0", allocs)
	}
	if s.recals != 0 {
		t.Fatalf("deadband Γ stream recalibrated %d times", s.recals)
	}
}

// TestWarmPushZeroAlloc: a warm session's non-fix Push allocates
// nothing — the window buffer reuses its capacity, the filters are
// fixed state, and the drift ring is a fixed array. (Fix-emitting
// pushes allocate by contract: they return a fresh TrackPoint.)
func TestWarmPushZeroAlloc(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// A huge Step keeps every measured push strictly inside a window.
	s, err := eng.NewTrackSession(TrackSessionConfig{Beacon: "target", SampleRateHz: 8, Window: 6, Step: 600})
	if err != nil {
		t.Fatalf("NewTrackSession: %v", err)
	}
	obs := sessionObs(400)
	pushAll(t, s, obs[:80]) // warm: sizes the window buffer, emits the first fix
	i := 80
	allocs := testing.AllocsPerRun(300, func() {
		pt, err := s.Push(obs[i])
		i++
		if err != nil {
			t.Fatalf("Push: %v", err)
		}
		if pt != nil {
			t.Fatalf("unexpected fix at t=%.2f — the measured run must stay inside a window", obs[i-1].T)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm non-fix Push allocates %.2f per call, want 0", allocs)
	}
}

// TestTrackSessionDegradedInput: mangled observations are dropped, not
// fatal, and the next fix reports the degradation.
func TestTrackSessionDegradedInput(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s := newSession(t, eng)
	obs := sessionObs(80)
	var fixes []TrackPoint
	for i, o := range obs {
		if i%10 == 3 {
			bad := o
			bad.RSS = math.NaN()
			if pt, err := s.Push(bad); err != nil || pt != nil {
				t.Fatalf("Push(NaN) = (%v, %v), want dropped", pt, err)
			}
			dup := o
			dup.T = o.T - 0.5 // out of order
			if pt, err := s.Push(dup); err != nil || pt != nil {
				t.Fatalf("Push(out-of-order) = (%v, %v), want dropped", pt, err)
			}
		}
		pt, err := s.Push(o)
		if err != nil {
			t.Fatalf("Push: %v", err)
		}
		if pt != nil {
			fixes = append(fixes, *pt)
		}
	}
	if len(fixes) == 0 {
		t.Fatal("no fixes despite mostly clean input")
	}
	h := fixes[len(fixes)-1].Health
	if h.Status != HealthDegraded {
		t.Fatalf("fix health = %v, want degraded", h.Status)
	}
	if !h.Has(ReasonNonFiniteRSS) || !h.Has(ReasonTimestampAnomaly) {
		t.Errorf("fix health reasons = %v, want non-finite-rss and timestamp-anomaly", h.Reasons)
	}
}

// TestTrackSessionFarFutureTimestamp: a jump of 1e12 s skips the due
// times it missed in one step instead of one step per loop turn, and a
// timestamp too large for the schedule to step past in float64 (1e17 s)
// is dropped as a timestamp anomaly — neither wedges the session.
func TestTrackSessionFarFutureTimestamp(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s := newSession(t, eng)
	push := func(ts float64) {
		t.Helper()
		took := make(chan time.Duration, 1)
		go func() {
			start := time.Now()
			if _, err := s.Push(estimate.Obs{T: ts, RSS: -60}); err != nil {
				t.Errorf("Push(t=%g): %v", ts, err)
			}
			took <- time.Since(start)
		}()
		select {
		case d := <-took:
			if d > 10*time.Millisecond {
				t.Errorf("Push(t=%g) took %v, want under 10 ms", ts, d)
			}
		case <-time.After(time.Second):
			t.Fatalf("Push(t=%g) still running after 1 s", ts)
		}
	}
	push(0)
	push(1e12)
	if s.droppedOrder != 0 || s.nextFix <= 1e12 || s.nextFix > 1e12+s.step {
		t.Fatalf("after t=1e12: dropped %d, next fix due %v; want 0 and the first due time past 1e12",
			s.droppedOrder, s.nextFix)
	}
	push(1e17)
	if s.droppedOrder != 1 || s.nextFix > 1e12+s.step {
		t.Fatalf("after t=1e17: dropped %d, next fix due %v; want it dropped with the schedule unmoved",
			s.droppedOrder, s.nextFix)
	}
	if h := s.health(); !h.Has(ReasonTimestampAnomaly) {
		t.Errorf("health reasons = %v, want timestamp-anomaly", h.Reasons)
	}
}

func TestRestoreRejectsWrongVersion(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s := newSession(t, eng)
	pushAll(t, s, sessionObs(60))
	cp := s.Checkpoint()
	cp.Version = 99
	if _, err := eng.RestoreTrackSession(cp); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("restore of version 99 = %v, want ErrCheckpointVersion", err)
	}
}

func TestRestoreRejectsAblationMismatch(t *testing.T) {
	engFull, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s := newSession(t, engFull)
	pushAll(t, s, sessionObs(60))
	cp := s.Checkpoint()

	noANF := DefaultConfig()
	noANF.DisableANF = true
	engNoANF, err := NewEngine(noANF)
	if err != nil {
		t.Fatalf("NewEngine(no ANF): %v", err)
	}
	if _, err := engNoANF.RestoreTrackSession(cp); err == nil {
		t.Fatal("restoring an ANF checkpoint into a no-ANF engine succeeded, want error")
	}
}
