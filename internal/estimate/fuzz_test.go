package estimate

import (
	"errors"
	"math"
	"testing"

	"locble/internal/rng"
)

// FuzzSolverRun drives the whole estimator — seeds, multi-start
// trust-region search, finish — over fuzzed observation sets: L-walks,
// straight (collinear) walks, a static observer, a walk orbiting the
// target, scattered positions and walks through the target, under every
// loss. A run must never panic, and must return either a typed error or
// a finite estimate within MaxRange.
func FuzzSolverRun(f *testing.F) {
	f.Add(int64(1), uint8(60), 5.5, 2.0, 2.0, uint8(0), uint8(0))
	f.Add(int64(2), uint8(45), 3.0, 2.5, 1.0, uint8(1), uint8(1))
	f.Add(int64(3), uint8(30), 0.0, 0.0, 0.0, uint8(2), uint8(2))
	f.Add(int64(4), uint8(80), 1.0, 1.0, 6.0, uint8(3), uint8(0))
	f.Add(int64(5), uint8(12), -40.0, 9.0, 20.0, uint8(4), uint8(1))
	f.Add(int64(6), uint8(50), 2.0, 0.0, 0.5, uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, tx, th, noise float64, shape, loss uint8) {
		for _, v := range []float64{tx, th, noise} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 100 {
				return
			}
		}
		src := rng.New(seed)
		m := int(n) % 160
		obs := make([]Obs, m)
		for i := range obs {
			u := float64(i) / float64(max(m-1, 1))
			var px, py float64 // observer position
			switch shape % 6 {
			case 0: // L-walk
				if u < 0.5 {
					px = 8 * u
				} else {
					px, py = 4, 8*(u-0.5)
				}
			case 1: // straight walk: collinear, mirror-ambiguous
				px = 6 * u
			case 2: // static observer: no motion to regress on
			case 3: // orbit at a constant distance: slope unidentifiable
				px, py = tx+3*math.Cos(6*u), th+3*math.Sin(6*u)
			case 4: // scattered positions
				px, py = src.Normal(0, 4), src.Normal(0, 4)
			case 5: // walk straight through the target
				px, py = tx+4*(u-0.5), th
			}
			l := math.Hypot(tx-px, th-py)
			rss := -60 - 22*math.Log10(math.Max(l, 0.01)) + src.Normal(0, math.Abs(noise))
			if i%11 == 7 {
				rss = -20 // hostile impulse
			}
			obs[i] = Obs{T: 0.1 * float64(i), RSS: rss, P: -px, Q: -py}
		}
		cfg := DefaultConfig()
		cfg.Loss = Loss(loss % 3)
		est, err := NewSolver().Run(obs, cfg)
		if err != nil {
			if !errors.Is(err, ErrTooFewSamples) && !errors.Is(err, ErrInsufficientMotion) &&
				!errors.Is(err, ErrNoSolution) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for _, v := range []float64{est.X, est.H, est.N, est.Gamma, est.ResidualDB, est.Confidence} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite estimate %+v", est)
			}
		}
		for _, c := range est.Candidates {
			if r := math.Hypot(c.X, c.H); r > cfg.MaxRange*(1+1e-12) {
				t.Fatalf("candidate (%v, %v) at %v m, beyond MaxRange %v", c.X, c.H, r, cfg.MaxRange)
			}
		}
	})
}
