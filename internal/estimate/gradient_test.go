package estimate

import (
	"math"
	"testing"

	"locble/internal/rng"
)

// setObjective points s's search at a planar or collinear objective over
// obs split into segs (nil: one segment).
func setObjective(s *Solver, kind searchKind, obs []Obs, segs [][2]int, cfg Config, dir [2]float64) {
	cfg.softDefaults()
	if segs == nil {
		s.seg1[0] = [2]int{0, len(obs)}
		segs = s.seg1[:]
	}
	s.obj = objective{kind: kind, dim: 2, obs: obs, segs: segs, cfg: cfg,
		dir: dir, perp: [2]float64{-dir[1], dir[0]}}
}

// checkGradient compares the analytic gradient of s's current objective
// at x with central differences of the objective value.
func checkGradient(t *testing.T, s *Solver, x vec) {
	t.Helper()
	const h = 1e-5
	var g, scratch vec
	s.eval(&x, false, &g)
	for k := 0; k < s.obj.dim; k++ {
		xp, xm := x, x
		xp[k] += h
		xm[k] -= h
		fp, fm := s.eval(&xp, true, &scratch), s.eval(&xm, true, &scratch)
		fd := (fp - fm) / (2 * h)
		if d := math.Abs(fd - g[k]); !(d <= 1e-6*math.Max(1, math.Abs(fd))) {
			t.Errorf("∂f/∂x%d at %v: analytic %.10g, central difference %.10g (|Δ| %.3g)", k, x[:s.obj.dim], g[k], fd, d)
		}
	}
}

// fitAtPoint returns the closed-form (n, Γ) of obs at (x, h).
func fitAtPoint(s *Solver, obs []Obs, cfg Config, x, h float64) (n, gamma float64) {
	cfg.softDefaults()
	n, gamma, _, _ = s.fitAt(obs, &cfg, x, h)
	return n, gamma
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	planar := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	segmented := synthSegmented(5.5, 2, lPath(4, 4, 0.25), 17, -59, 2.0, -67, 3.0)
	noise := rng.New(5)
	for i := range segmented {
		segmented[i].RSS += noise.Normal(0, 1)
	}
	var line [][2]float64
	for d := 0.0; d <= 6; d += 0.15 {
		line = append(line, [2]float64{d, 0})
	}
	collinear := synthObs(3, 2.5, -60, 2.0, line, 1.5, rng.New(2))

	t.Run("planar", func(t *testing.T) {
		s := NewSolver()
		setObjective(s, searchPlanar, planar, nil, DefaultConfig(), [2]float64{1, 0})
		for _, x := range []vec{{4.8, 2.6}, {7.5, -1}, {-2, 6}} {
			checkGradient(t, s, x)
		}
	})
	t.Run("segments", func(t *testing.T) {
		s := NewSolver()
		setObjective(s, searchPlanar, segmented, [][2]int{{0, 17}, {17, len(segmented)}}, DefaultConfig(), [2]float64{1, 0})
		checkGradient(t, s, vec{5, 2.3})
		checkGradient(t, s, vec{3, 5})
	})
	t.Run("collinear", func(t *testing.T) {
		s := NewSolver()
		setObjective(s, searchCollinear, collinear, nil, DefaultConfig(), [2]float64{1, 0})
		checkGradient(t, s, vec{3.2, 2.2})  // w > 0
		checkGradient(t, s, vec{3.2, -2.2}) // w < 0: the mirror side
		// A rotated track: the chain rule runs through dir and perp.
		d := [2]float64{math.Cos(0.6), math.Sin(0.6)}
		rot := make([]Obs, len(collinear))
		for i, o := range collinear {
			rot[i] = o
			rot[i].P, rot[i].Q = o.P*d[0], o.P*d[1]
		}
		setObjective(s, searchCollinear, rot, nil, DefaultConfig(), d)
		checkGradient(t, s, vec{2.7, 1.9})
		checkGradient(t, s, vec{2.7, -1.9})
	})
	t.Run("n-clamped", func(t *testing.T) {
		for _, c := range []struct {
			name       string
			nMin, nMax float64
		}{{"at-NMin", 3.0, 5.0}, {"at-NMax", 1.3, 1.5}} {
			cfg := DefaultConfig()
			cfg.NMin, cfg.NMax = c.nMin, c.nMax
			s := NewSolver()
			x := vec{5.2, 2.4}
			if n, _ := fitAtPoint(s, planar, cfg, x[0], x[1]); n != c.nMin && n != c.nMax {
				t.Fatalf("%s: n = %v is not clamped", c.name, n)
			}
			setObjective(s, searchPlanar, planar, nil, cfg, [2]float64{1, 0})
			checkGradient(t, s, x)
		}
	})
	t.Run("prior-active", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.NSoftMax = 1.5 // fitted n ≈ 2.2 sits above the band
		s := NewSolver()
		x := vec{5.6, 1.8}
		if n, _ := fitAtPoint(s, planar, cfg, x[0], x[1]); !(n > cfg.NSoftMax) {
			t.Fatalf("n = %v does not activate the exponent row", n)
		}
		setObjective(s, searchPlanar, planar, nil, cfg, [2]float64{1, 0})
		checkGradient(t, s, x)

		cfg = DefaultConfig()
		cfg.GammaSoftMin, cfg.GammaSoftMax = -90, -70 // fitted Γ ≈ −60 sits above
		if _, g := fitAtPoint(s, planar, cfg, x[0], x[1]); !(g > cfg.GammaSoftMax) {
			t.Fatalf("Γ = %v does not activate the power row", g)
		}
		setObjective(s, searchPlanar, planar, nil, cfg, [2]float64{1, 0})
		checkGradient(t, s, x)

		cfg.GammaSoftMin, cfg.GammaSoftMax = -50, -30 // and below the band
		setObjective(s, searchPlanar, planar, nil, cfg, [2]float64{1, 0})
		checkGradient(t, s, x)
	})
	t.Run("near-field-clamp", func(t *testing.T) {
		// One observation sits 2 cm from the candidate (l² < 0.0025): its
		// log-distance is clamped and must not move with position.
		s := NewSolver()
		x := vec{-planar[13].P + 0.01, -planar[13].Q + 0.02}
		setObjective(s, searchPlanar, planar, nil, DefaultConfig(), [2]float64{1, 0})
		checkGradient(t, s, x)
	})
	t.Run("3d", func(t *testing.T) {
		obs := synth3D(3, 2, 1.2, -59, 2.0, 1.0, rng.New(8))
		cfg := DefaultConfig()
		s := NewSolver()
		s.obj = objective{kind: search3D, dim: 3, obs3: obs, cfg: cfg}
		checkGradient(t, s, vec{2.5, 1.7, 0.9})
		checkGradient(t, s, vec{4, 3, -1})
	})
}

// synth3D simulates a 3-D walk (an L plus raising the phone) past a
// target at (x, h, z) with Gaussian RSS noise.
func synth3D(x, h, z, gamma, n, noise float64, src *rng.Source) []Obs3D {
	var obs []Obs3D
	add := func(px, py, pz float64) {
		p, q, r := -px, -py, -pz
		l := math.Sqrt((x+p)*(x+p) + (h+q)*(h+q) + (z+r)*(z+r))
		rss := gamma - 10*n*math.Log10(l) + src.Normal(0, noise)
		obs = append(obs, Obs3D{T: float64(len(obs)), RSS: rss, P: p, Q: q, R: r})
	}
	for d := 0.0; d <= 3; d += 0.25 {
		add(d, 0, 0)
	}
	for d := 0.25; d <= 3; d += 0.25 {
		add(3, d, 0)
	}
	for d := 0.1; d <= 0.8; d += 0.1 {
		add(3, 3, d)
	}
	return obs
}

// TestTrustRegionStep checks the exact trust-region subproblem solver
// against brute force: for positive-definite, indefinite and hard-case
// Hessians, in 2-D and 3-D, the step stays in the region and no point of
// a dense sampling of the region has a lower model value.
func TestTrustRegionStep(t *testing.T) {
	cases := []struct {
		name string
		dim  int
		h    [maxDim]vec
		g    vec
		r    float64
	}{
		{"newton-inside", 2, [maxDim]vec{{4, 1}, {1, 3}}, vec{1, -2}, 5},
		{"pd-boundary", 2, [maxDim]vec{{4, 1}, {1, 3}}, vec{10, -20}, 1},
		{"indefinite", 2, [maxDim]vec{{2, 0.5}, {0.5, -3}}, vec{1, 0.5}, 1.5},
		{"hard-case", 2, [maxDim]vec{{2, 0}, {0, -1}}, vec{1, 0}, 2},
		{"hard-case-3d", 3, [maxDim]vec{{2, 0, 0}, {0, 1, 0}, {0, 0, -0.5}}, vec{1, -1, 0}, 1.5},
		{"psd-null-direction", 2, [maxDim]vec{{1, 0}, {0, 0}}, vec{0.2, 0}, 1},
		{"repeated-lowest", 3, [maxDim]vec{{-1, 0, 0}, {0, -1, 0}, {0, 0, 2}}, vec{0, 0.3, 1}, 1},
		{"saddle-zero-gradient", 2, [maxDim]vec{{1, 0}, {0, -1}}, vec{0, 0}, 0.7},
		{"singular", 2, [maxDim]vec{{1, 1}, {1, 1}}, vec{1, -1}, 0.5},
		{"3d-indefinite", 3, [maxDim]vec{{3, 1, 0}, {1, -2, 0.5}, {0, 0.5, 1}}, vec{0.3, -1, 2}, 1.2},
	}
	model := func(c int, p vec) float64 {
		cs := cases[c]
		m := 0.0
		for i := 0; i < cs.dim; i++ {
			m += cs.g[i] * p[i]
			for j := 0; j < cs.dim; j++ {
				m += 0.5 * p[i] * cs.h[i][j] * p[j]
			}
		}
		return m
	}
	for ci, c := range cases {
		p, pred := trStep(&c.h, &c.g, c.r, c.dim)
		if n := norm(&p); !(n <= c.r*(1+1e-5)) {
			t.Errorf("%s: |p| = %v beyond the radius %v", c.name, n, c.r)
		}
		if d := math.Abs(pred + model(ci, p)); !(d <= 1e-9*math.Max(1, math.Abs(pred))) {
			t.Errorf("%s: predicted reduction %v, model says %v", c.name, pred, -model(ci, p))
		}
		// Brute force over the ball (a polar grid in 2-D, a spherical one
		// in 3-D).
		best := 0.0
		const nr, na = 60, 240
		for i := 1; i <= nr; i++ {
			rad := c.r * float64(i) / nr
			for j := 0; j < na; j++ {
				th := 2 * math.Pi * float64(j) / na
				if c.dim == 2 {
					best = math.Min(best, model(ci, vec{rad * math.Cos(th), rad * math.Sin(th)}))
					continue
				}
				for k := 0; k <= na/4; k++ {
					ph := math.Pi * float64(k) / float64(na/4)
					q := vec{rad * math.Sin(ph) * math.Cos(th), rad * math.Sin(ph) * math.Sin(th), rad * math.Cos(ph)}
					best = math.Min(best, model(ci, q))
				}
			}
		}
		if got := model(ci, p); !(got <= best+1e-3*math.Max(1, math.Abs(best))) {
			t.Errorf("%s: step model value %v, a sampled point reaches %v", c.name, got, best)
		}
	}
}
