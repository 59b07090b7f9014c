package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"locble/internal/estimate"
	"locble/internal/sim"
)

func TestDetectCloneAnomaly(t *testing.T) {
	cfg := DefaultSanitizeConfig()
	mk := func(rssi func(i int) float64, dt float64, n int) []sim.BeaconObservation {
		obs := make([]sim.BeaconObservation, n)
		for i := range obs {
			obs[i] = sim.BeaconObservation{T: float64(i) * dt, RSSI: rssi(i)}
		}
		return obs
	}

	t.Run("interleaved-clone-flagged", func(t *testing.T) {
		// Two transmitters on one identity: readings alternate between
		// −55 (near) and −80 (far) every report — physically impossible
		// for a single source.
		var h Health
		detectCloneAnomaly(mk(func(i int) float64 {
			if i%2 == 0 {
				return -55
			}
			return -80
		}, 0.11, 40), cfg, &h)
		if !h.Has(ReasonBeaconAnomaly) {
			t.Fatalf("interleaved clone not flagged: %v", h)
		}
	})

	t.Run("step-change-clean", func(t *testing.T) {
		// An honest environment transition: one big monotone step.
		var h Health
		detectCloneAnomaly(mk(func(i int) float64 {
			if i < 20 {
				return -55
			}
			return -80
		}, 0.11, 40), cfg, &h)
		if h.Has(ReasonBeaconAnomaly) {
			t.Fatalf("honest step change flagged as clone: %v", h)
		}
	})

	t.Run("jitter-clean", func(t *testing.T) {
		// Honest channel jitter of a few dB never reaches the delta bar.
		var h Health
		detectCloneAnomaly(mk(func(i int) float64 {
			return -65 + 5*math.Sin(float64(i)*2.4)
		}, 0.11, 80), cfg, &h)
		if h.Has(ReasonBeaconAnomaly) {
			t.Fatalf("channel jitter flagged as clone: %v", h)
		}
	})

	t.Run("slow-alternation-clean", func(t *testing.T) {
		// The same two levels but seconds apart — a walking observer
		// crossing a boundary repeatedly, not a clone.
		var h Health
		detectCloneAnomaly(mk(func(i int) float64 {
			if i%2 == 0 {
				return -55
			}
			return -80
		}, 2.0, 40), cfg, &h)
		if h.Has(ReasonBeaconAnomaly) {
			t.Fatalf("slow alternation flagged as clone: %v", h)
		}
	})
}

// sparseSessionObs emits one observation every gap seconds along a walk —
// enough to keep a session's clock advancing while every due window
// holds too few samples to fit.
func sparseSessionObs(start, gap float64, n int) []estimate.Obs {
	obs := make([]estimate.Obs, n)
	for i := range obs {
		t := start + float64(i)*gap
		obs[i] = estimate.Obs{T: t, RSS: -60 - float64(i%5), P: -0.5 * t, Q: 0}
	}
	return obs
}

func TestSessionLastKnownThenEviction(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewTrackSession(TrackSessionConfig{Beacon: "b"})
	if err != nil {
		t.Fatal(err)
	}
	// Dense healthy stream first: produce at least one real fix.
	var lastFull *TrackPoint
	for i := 0; i < 120; i++ {
		t0 := float64(i) * 0.11
		pt, err := s.Push(estimate.Obs{T: t0, RSS: -60 + 3*math.Sin(t0), P: -0.9 * t0, Q: -0.2 * t0})
		if err != nil {
			t.Fatal(err)
		}
		if pt != nil && pt.Mode == ModeFull {
			lastFull = pt
		}
	}
	if lastFull == nil {
		t.Fatal("dense stream produced no full fix")
	}

	// Starve the stream: one observation every 2.5 s. Once the dense
	// samples age out of the window, due windows hold too few samples,
	// so the ladder re-emits the last full fix until the staleness
	// bound, then evicts. (The first sparse windows still see buffered
	// dense samples and may legitimately fit.)
	start := 120 * 0.11
	var stale int
	evictedBefore := s.evicted
	for _, o := range sparseSessionObs(start, 2.5, 12) {
		pt, err := s.Push(o)
		if err != nil {
			t.Fatal(err)
		}
		if pt == nil {
			continue
		}
		switch pt.Mode {
		case ModeLastKnown:
			stale++
			if pt.Est != lastFull.Est {
				t.Errorf("stale fix does not re-emit the last real estimate")
			}
			if !pt.Health.Has(ReasonStaleFix) || pt.Health.Status != HealthDegraded {
				t.Errorf("stale fix health = %v", pt.Health)
			}
			if pt.Samples != 0 {
				t.Errorf("stale fix claims %d window samples", pt.Samples)
			}
		case ModeFull:
			if stale > 0 {
				t.Errorf("full fix emitted after the stream went stale")
			}
			lastFull = pt
		}
	}
	if stale == 0 {
		t.Errorf("starved stream emitted no last-known fixes")
	}
	if s.evicted == evictedBefore {
		t.Errorf("last-known state never evicted after %v s of starvation", 12*2.5)
	}
	if s.LastFix() != nil {
		t.Errorf("eviction must clear the last-known fix")
	}
	h := s.health()
	if !h.Has(ReasonBeaconEvicted) {
		t.Errorf("session health %v missing stale-beacon after eviction", h)
	}
}

func TestSessionTxPowerDriftRecalibration(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewTrackSession(TrackSessionConfig{Beacon: "b"})
	if err != nil {
		t.Fatal(err)
	}
	min0, max0 := s.estCfg.GammaSoftMin, s.estCfg.GammaSoftMax
	center0 := (min0 + max0) / 2

	// Healthy fitted Γ near the band center: no recalibration.
	for i := 0; i < 10; i++ {
		s.noteGamma(center0 + 3)
	}
	if s.recals != 0 {
		t.Fatalf("healthy Γ stream recalibrated %d times", s.recals)
	}

	// A dying battery: fitted Γ settles ~12 dB below the anchor.
	for i := 0; i < 10; i++ {
		s.noteGamma(center0 - 12)
	}
	if s.recals == 0 {
		t.Fatal("12 dB Γ drift never recalibrated")
	}
	newCenter := (s.estCfg.GammaSoftMin + s.estCfg.GammaSoftMax) / 2
	if math.Abs(newCenter-(center0-12)) > driftThresholdDB {
		t.Errorf("band re-anchored to %v, want near %v", newCenter, center0-12)
	}
	if s.estCfg.GammaSoftMax-s.estCfg.GammaSoftMin != max0-min0 {
		t.Errorf("recalibration changed the band width")
	}
	if h := s.health(); !h.Has(ReasonTxPowerDrift) {
		t.Errorf("session health %v missing txpower-drift after recalibration", h)
	}
}

// TestRestoredGammaBandBitExactAfterRecalibrations pins the restored Γ
// band to the live one bit for bit once a session has recalibrated more
// than once. The band used to be shifted one recalibration at a time
// while a restore rebuilt it as base + cumulative shift; floating-point
// addition is not associative, so with these shifts (9.1 dB, three
// times) the two bands differed in the last bit — enough for a gradient
// search to land restored fixes elsewhere.
func TestRestoredGammaBandBitExactAfterRecalibrations(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewTrackSession(TrackSessionConfig{Beacon: "b"})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		center := (s.estCfg.GammaSoftMin + s.estCfg.GammaSoftMax) / 2
		for i := 0; i < driftMinFixes; i++ {
			s.noteGamma(center + 9.1)
		}
	}
	if s.recals < 2 {
		t.Fatalf("scenario recalibrated %d times, want ≥ 2", s.recals)
	}
	var buf bytes.Buffer
	if err := s.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := eng.RestoreTrackSessionFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromMem, err := eng.RestoreTrackSession(s.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*TrackSession{"json": fromJSON, "memory": fromMem} {
		if math.Float64bits(r.estCfg.GammaSoftMin) != math.Float64bits(s.estCfg.GammaSoftMin) ||
			math.Float64bits(r.estCfg.GammaSoftMax) != math.Float64bits(s.estCfg.GammaSoftMax) {
			t.Errorf("%s restore: Γ band [%.17g, %.17g], live [%.17g, %.17g]", name,
				r.estCfg.GammaSoftMin, r.estCfg.GammaSoftMax, s.estCfg.GammaSoftMin, s.estCfg.GammaSoftMax)
		}
	}
}

func TestSessionCheckpointCarriesLadderState(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.NewTrackSession(TrackSessionConfig{Beacon: "b"})
	if err != nil {
		t.Fatal(err)
	}
	// Manufacture ladder state: drift history, a recalibration, an
	// eviction, and a last fix with a non-default mode.
	center := (s.estCfg.GammaSoftMin + s.estCfg.GammaSoftMax) / 2
	for i := 0; i < 10; i++ {
		s.noteGamma(center - 12)
	}
	s.evicted = 2
	s.last = &TrackPoint{T: 9, Est: &estimate.Estimate{X: 1, H: 2}, Mode: ModeLastKnown}

	cp := s.Checkpoint()
	if cp.Version != 3 {
		t.Fatalf("checkpoint version = %d, want 3", cp.Version)
	}
	if cp.GammaShift == 0 {
		t.Fatalf("recalibrated session checkpointed gamma_shift = 0")
	}
	if cp.Estimator.GammaSoftMin != s.baseEstCfg.GammaSoftMin ||
		cp.Estimator.GammaSoftMax != s.baseEstCfg.GammaSoftMax {
		t.Errorf("checkpoint estimator config is not the creation-time base band")
	}
	r, err := eng.RestoreTrackSession(cp)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r.recals != s.recals || r.evicted != s.evicted {
		t.Errorf("restore lost counters: recals %d/%d evicted %d/%d",
			r.recals, s.recals, r.evicted, s.evicted)
	}
	if lh, rh := s.gammaHistOldestFirst(nil), r.gammaHistOldestFirst(nil); len(rh) != len(lh) {
		t.Errorf("restore lost Γ history: %d/%d entries", len(rh), len(lh))
	}
	if r.gammaShift != s.gammaShift {
		t.Errorf("restore lost the cumulative Γ shift: %v vs %v", r.gammaShift, s.gammaShift)
	}
	if r.estCfg.GammaSoftMin != s.estCfg.GammaSoftMin || r.estCfg.GammaSoftMax != s.estCfg.GammaSoftMax {
		t.Errorf("restore lost the recalibrated Γ band")
	}
	if r.LastFix() == nil || r.LastFix().Mode != ModeLastKnown {
		t.Errorf("restore lost the last fix's ladder mode")
	}

	// A v1 checkpoint (pre-ladder) must be rejected, not guessed at.
	cp1 := *cp
	cp1.Version = 1
	if _, err := eng.RestoreTrackSession(&cp1); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("restore of v1 checkpoint = %v, want ErrCheckpointVersion", err)
	}
}
