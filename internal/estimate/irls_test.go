package estimate

import (
	"math"
	"testing"

	"locble/internal/rng"
)

// TestHuberHugeDeltaIsLeastSquares pins the bit-exactness contract: with
// a Huber delta so large the quadratic zone covers every residual, the
// IRLS weights are exactly 1 and the whole pipeline — inner fit, score,
// position search, residual statistics — must reproduce the squared-loss
// results bit-for-bit, across movement geometries and noise levels.
func TestHuberHugeDeltaIsLeastSquares(t *testing.T) {
	cases := []struct {
		name string
		obs  []Obs
	}{
		{"planar-noisy", synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))},
		{"planar-clean", synthObs(6, 3, -59, 2.0, lPath(4, 4, 0.25), 0, nil)},
		{"collinear", synthObs(3, 4, -62, 2.5, lPath(6, 0, 0.15), 1.5, rng.New(7))},
		{"near-target", synthObs(1.5, 0.8, -58, 1.9, lPath(4, 4, 0.2), 3.0, rng.New(3))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sq := DefaultConfig()
			want, werr := Run(c.obs, sq)

			hu := DefaultConfig()
			hu.Loss = LossHuber
			hu.HuberDelta = 1e12 // quadratic zone spans every residual
			got, gerr := Run(c.obs, hu)

			if (werr == nil) != (gerr == nil) {
				t.Fatalf("error mismatch: squared=%v huber=%v", werr, gerr)
			}
			if werr != nil {
				return
			}
			if got.X != want.X || got.H != want.H || got.N != want.N ||
				got.Gamma != want.Gamma || got.ResidualDB != want.ResidualDB ||
				got.Confidence != want.Confidence {
				t.Fatalf("huge-delta Huber diverged from least squares:\n huber   (%v,%v n=%v Γ=%v r=%v c=%v)\n squared (%v,%v n=%v Γ=%v r=%v c=%v)",
					got.X, got.H, got.N, got.Gamma, got.ResidualDB, got.Confidence,
					want.X, want.H, want.N, want.Gamma, want.ResidualDB, want.Confidence)
			}
			if got.Downweighted != 0 {
				t.Errorf("huge-delta Huber down-weighted %d observations, want 0", got.Downweighted)
			}
		})
	}
}

// TestIRLSResistsOutliers pins the point of the robust losses: a
// coordinated run of gross outliers that drags the squared fit must
// leave the Huber and Tukey fits close to the clean-trace answer, and
// the estimate must report the suppressed samples.
func TestIRLSResistsOutliers(t *testing.T) {
	x, h := 5.5, 2.0
	obs := synthObs(x, h, -60, 2.2, lPath(4, 4, 0.15), 1.0, rng.New(4))
	// Corrupt ~10% of the samples with a +25 dB hostile run (a nearby
	// interferer or spoofed beacon captured on the target's identity).
	for i := 10; i < len(obs) && i < 10+len(obs)/10; i++ {
		obs[i].RSS += 25
	}

	clean := synthObs(x, h, -60, 2.2, lPath(4, 4, 0.15), 1.0, rng.New(4))
	base, err := Run(clean, DefaultConfig())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	baseErr := math.Hypot(base.X-x, base.H-h)

	for _, loss := range []Loss{LossHuber, LossTukey} {
		cfg := DefaultConfig()
		cfg.Loss = loss
		est, err := Run(obs, cfg)
		if err != nil {
			t.Fatalf("%v run: %v", loss, err)
		}
		robustErr := math.Hypot(est.X-x, est.H-h)
		if robustErr > baseErr+1.5 {
			t.Errorf("%v error %.2f m under outliers, clean baseline %.2f m", loss, robustErr, baseErr)
		}
		if est.Downweighted == 0 {
			t.Errorf("%v reported 0 down-weighted observations despite the outlier run", loss)
		}
	}

	// The squared fit should visibly suffer by comparison — otherwise this
	// test's corruption is too weak to prove anything.
	sq, err := Run(obs, DefaultConfig())
	if err != nil {
		t.Fatalf("squared run on corrupted trace: %v", err)
	}
	if e := math.Hypot(sq.X-x, sq.H-h); e < baseErr+0.3 {
		t.Logf("note: squared-loss error %.2f m barely moved (baseline %.2f m)", e, baseErr)
	}
}

// TestSolverIRLSZeroAlloc pins the robust path's allocation contract:
// once the arenas are warm, the IRLS inner fit with its gradient and a
// whole trust-region search over it allocate nothing.
func TestSolverIRLSZeroAlloc(t *testing.T) {
	obs := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	cfg := DefaultConfig()
	cfg.Loss = LossHuber
	cfg.softDefaults()
	s := NewSolver()
	if _, err := s.Run(obs, cfg); err != nil { // warm every arena
		t.Fatalf("warm-up run: %v", err)
	}

	var g vec
	if n := testing.AllocsPerRun(100, func() {
		s.segEval(obs, &cfg, 3, 1, true, &g)
	}); n != 0 {
		t.Errorf("robust segEval allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { localSearch(s, obs, cfg, 3, 1) }); n != 0 {
		t.Errorf("a local search over the IRLS fit allocates %v per call, want 0", n)
	}

	cfg.Loss = LossTukey
	if n := testing.AllocsPerRun(100, func() {
		s.segEval(obs, &cfg, 3, 1, true, &g)
	}); n != 0 {
		t.Errorf("Tukey segEval allocates %v per call, want 0", n)
	}
}

// TestFitProbeZeroAllocWarm pins the bench-gate probe's contract for
// every loss: one warming call sizes the arenas, then FitProbe is
// allocation-free.
func TestFitProbeZeroAllocWarm(t *testing.T) {
	obs := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(3))
	for _, loss := range []Loss{LossSquared, LossHuber, LossTukey} {
		cfg := DefaultConfig()
		cfg.Loss = loss
		s := NewSolver()
		s.FitProbe(obs, cfg, 3, 1) // warm every arena
		if n := testing.AllocsPerRun(100, func() {
			s.FitProbe(obs, cfg, 3, 1)
		}); n != 0 {
			t.Errorf("%v: warm FitProbe allocates %v per call, want 0", loss, n)
		}
	}
}

// TestParseLoss pins the CLI-facing loss names.
func TestParseLoss(t *testing.T) {
	for name, want := range map[string]Loss{
		"": LossSquared, "squared": LossSquared, "ls": LossSquared, "l2": LossSquared,
		"huber": LossHuber, "tukey": LossTukey, "bisquare": LossTukey,
	} {
		got, err := ParseLoss(name)
		if err != nil || got != want {
			t.Errorf("ParseLoss(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseLoss("cauchy"); err == nil {
		t.Errorf("ParseLoss accepted unknown loss")
	}
	if s := LossHuber.String(); s != "huber" {
		t.Errorf("LossHuber.String() = %q", s)
	}
}

// FuzzIRLS feeds the robust inner fit adversarial observation sets and
// candidate positions: whatever the data, the fit must return finite
// (or cleanly clamped) parameters, a non-negative score, non-negative
// in-range weights, and a down-weight count within bounds.
func FuzzIRLS(f *testing.F) {
	f.Add(int64(1), 12, 3.0, 1.0, false)
	f.Add(int64(2), 8, 0.0, 0.5, true)
	f.Add(int64(99), 40, -4.0, 7.0, false)
	f.Fuzz(func(t *testing.T, seed int64, n int, x, h float64, tukey bool) {
		if n < 2 || n > 256 {
			return
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(h) || math.IsInf(h, 0) {
			return
		}
		if math.Abs(x) > 1e3 || math.Abs(h) > 1e3 {
			return
		}
		src := rng.New(seed)
		obs := make([]Obs, n)
		for i := range obs {
			// Mix of plausible readings, rail values and gross outliers —
			// including identical samples (zero MAD) and constant P/Q runs.
			rss := -60 + src.Normal(0, 10)
			switch i % 7 {
			case 3:
				rss = -20 // hostile impulse
			case 5:
				rss = -99 // near the noise floor
			}
			obs[i] = Obs{
				T:   float64(i) * 0.1,
				RSS: rss,
				P:   src.Normal(0, 2),
				Q:   src.Normal(0, 2),
			}
		}
		cfg := DefaultConfig()
		cfg.Loss = LossHuber
		if tukey {
			cfg.Loss = LossTukey
		}
		cfg.softDefaults()
		s := NewSolver()
		nf, gf, score, down := s.fitAt(obs, &cfg, x, h)
		if math.IsNaN(nf) || nf < cfg.NMin || nf > cfg.NMax {
			t.Fatalf("n = %v out of [%v, %v]", nf, cfg.NMin, cfg.NMax)
		}
		if math.IsNaN(gf) || math.IsInf(gf, 0) {
			t.Fatalf("gamma = %v not finite", gf)
		}
		if math.IsNaN(score) || score < 0 {
			t.Fatalf("score = %v, want finite ≥ 0", score)
		}
		if down < 0 || down > n {
			t.Fatalf("down = %d out of [0, %d]", down, n)
		}
		for i, w := range s.w[:n] {
			if math.IsNaN(w) || w < 0 || w > 1 {
				t.Fatalf("weight[%d] = %v, want [0, 1]", i, w)
			}
		}
	})
}
