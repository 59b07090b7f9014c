package estimate

import (
	"errors"
	"math"

	"locble/internal/mathx"
)

// Obs3D is a fused observation with a vertical relative displacement
// (e.g. the phone raised/lowered, or stairs), for the 3-D extension the
// paper sketches in Sec. 9.3.
type Obs3D struct {
	T       float64
	RSS     float64
	P, Q, R float64 // relative displacement in x, y, z (metres)
}

// Estimate3D is the 3-D regression output.
type Estimate3D struct {
	X, H, Z    float64
	N, Gamma   float64
	ResidualDB float64
	Confidence float64
	Samples    int
}

// Range returns the estimated 3-D distance from the origin.
func (e *Estimate3D) Range() float64 {
	return math.Sqrt(e.X*e.X + e.H*e.H + e.Z*e.Z)
}

// Run3D extends the regression with a third dimension. The elliptical
// linearization A·(p²+q²+r²) + C·p + D·q + E·r + G = ρ seeds the search;
// the shared trust-region search over the three position coordinates,
// with the closed-form (n, Γ) inner fit, refines it. The movement must
// span all three dimensions for the fit to be well conditioned; the
// practical phone gesture is an L-shaped walk plus raising the phone.
// Like the 2-D search, it runs on the solver's arenas. A canceled run
// counts in estimate.canceled.
func (s *Solver) Run3D(obs []Obs3D, cfg Config) (*Estimate3D, error) {
	est, err := s.run3D(obs, cfg)
	if errors.Is(err, ErrCanceled) {
		metCanceled.Inc()
	}
	return est, err
}

func (s *Solver) run3D(obs []Obs3D, cfg Config) (*Estimate3D, error) {
	if cfg.MinSamples < 6 {
		cfg.MinSamples = 6
	}
	if cfg.MaxRange <= 0 {
		cfg.MaxRange = 25
	}
	if len(obs) < cfg.MinSamples {
		return nil, ErrTooFewSamples
	}
	s.obj = objective{kind: search3D, dim: 3, obs3: obs, cfg: cfg}
	defer s.clearObjective()

	// Seeds: elliptical LS at each grid exponent plus rings in the z = 0
	// plane.
	step := math.Max(cfg.NGridStep, 0.5)
	starts := s.reserveStarts(gridLen(cfg.NMin, cfg.NMax, step) + ringSeeds)
	var e normalEq
	e.k = 5
	var row [5]float64
	rsm, top := 0.0, math.Inf(-1)
	for _, o := range obs {
		row3D(o, &row)
		e.addRow(&row)
		rsm += o.RSS
		top = math.Max(top, o.RSS)
	}
	rsm /= float64(len(obs))
	s.rho = growFloats(s.rho, len(obs))
	rho := s.rho
	for n := cfg.NMin; n <= cfg.NMax+1e-9; n += step {
		e.xty = [5]float64{}
		for i, o := range obs {
			rho[i] = math.Pow(10, -(o.RSS-rsm)/(5*n))
			row3D(o, &row)
			e.addRHS(&row, rho[i])
		}
		p, ok := e.solve()
		if !ok {
			p, ok = lsFallback(len(obs), 5, func(i int, r *[5]float64) { row3D(obs[i], r) }, rho)
		}
		if ok && p[0] > 0 {
			a := p[0]
			starts = append(starts, trState{x: vec{p[1] / (2 * a), p[2] / (2 * a), p[3] / (2 * a)}})
		}
	}
	for _, r := range s.ringInits(top) {
		starts = append(starts, trState{x: vec{r[0], r[1], 0}})
	}
	s.starts = starts
	best, err := s.multiStart()
	if err != nil {
		return nil, err
	}

	var g vec
	_, n, gamma := s.fit3At(obs, &cfg, &best.x, false, &g) // refills s.gs
	resid := growFloats(s.resid, len(obs))
	for i, o := range obs {
		resid[i] = o.RSS - (gamma - 10*n*s.gs[i])
	}
	s.resid = resid
	mu, sigma := mathx.Mean(resid), mathx.StdDev(resid)
	rms := 0.0
	for _, r := range resid {
		rms += r * r
	}
	rms = math.Sqrt(rms / float64(len(resid)))
	return &Estimate3D{
		X: best.x[0], H: best.x[1], Z: best.x[2],
		N: n, Gamma: gamma,
		ResidualDB: rms,
		Confidence: mathx.TwoSidedTailProb(mu, 0, math.Max(sigma, 0.25)),
		Samples:    len(obs),
	}, nil
}

// fit3At is segEval for the 3-D extension — squared loss, one segment,
// no prior — with lᵢ² = |(x+pᵢ, h+qᵢ, z+rᵢ)|². It returns the score (0
// unless val), the fitted (n, Γ), and adds the gradient into grad.
func (s *Solver) fit3At(obs []Obs3D, cfg *Config, x *vec, val bool, grad *vec) (score, n, gamma float64) {
	var f fitSums
	f.sw = float64(len(obs))
	s.gs = growFloats(s.gs, len(obs))
	gs := s.gs
	for i, o := range obs {
		dp, dq, dr := x[0]+o.P, x[1]+o.Q, x[2]+o.R
		l2 := dp*dp + dq*dq + dr*dr
		var d vec
		if l2 < 0.0025 {
			l2 = 0.0025
		} else {
			inv := math.Log10E / l2
			d = vec{dp * inv, dq * inv, dr * inv}
		}
		g := 0.5 * math.Log10(l2)
		gs[i] = g
		f.sg += g
		f.sr += o.RSS
		f.sgg += g * g
		f.sgr += g * o.RSS
		for k := range d {
			f.a[k] += d[k]
			f.b[k] += g * d[k]
			f.c[k] += o.RSS * d[k]
		}
	}
	n, gamma, _ = f.solve(cfg.NMin, cfg.NMax)
	if val {
		for i, o := range obs {
			r := o.RSS - (gamma - 10*n*gs[i])
			score += r * r
		}
	}
	fg := f.grad(n, gamma)
	fg.addGrad(grad, 3, n)
	return score, n, gamma
}

// row3D is the design row of the 3-D linearized initializer.
func row3D(o Obs3D, r *[5]float64) {
	*r = [5]float64{o.P*o.P + o.Q*o.Q + o.R*o.R, o.P, o.Q, o.R, 1}
}
