package estimate

import "math"

// fitSums are the sufficient statistics of the closed-form inner fit
// behind the paper's Eq. (5). For a fixed candidate position (x, h), the
// path-loss model RSᵢ = Γ − 10·n·gᵢ with gᵢ = log10(lᵢ),
// lᵢ = hypot(x+pᵢ, h+qᵢ), is *linear* in (Γ, n), so the fading
// coefficient and power offset come from a linear regression of RSS on
// gᵢ, and the fit quality is the residual sum of squares. The paper's
// numeric search for n̂*(e) is thereby collapsed into a closed form; the
// numeric search happens only over position — a separable least-squares
// problem (variable projection, Golub & Pereyra).
//
// The sums are the regression's (optionally IRLS-weighted) plus, per
// search coordinate k, the position derivatives of the sums that move
// with it — a = Σ∂g, b = Σg·∂g and c = Σ RSS·∂g (unweighted: only the
// squared-loss gradient uses them). Those three carry the whole
// gradient, so no per-observation derivative buffer exists, and the
// per-sample log-distances live in the solver's gs arena: the fit — the
// hottest code in the pipeline, run for every objective and gradient
// evaluation of the search — allocates nothing.
type fitSums struct {
	sw, sg, sr, sgg, sgr float64
	a, b, c              vec
}

// sums2D fills s.gs with the log-distances gᵢ = ½·log10(lᵢ²) at (x, h)
// and f with their unweighted fit sums. log10(dist) comes from
// ½·log10(dist²): the distance itself is never needed, so the
// per-observation square root is skipped. The 0.05 m near-field clamp
// becomes 0.0025 on the square; a clamped gᵢ does not move with
// position (∂gᵢ = 0).
func (s *Solver) sums2D(obs []Obs, x, h float64, f *fitSums) {
	var sg, sr, sgg, sgr, ax, ay, bx, by, cx, cy float64
	s.gs = growFloats(s.gs, len(obs))
	gs := s.gs
	for i, o := range obs {
		dp, dq := x+o.P, h+o.Q
		l2 := dp*dp + dq*dq
		var dx, dy float64
		if l2 < 0.0025 {
			l2 = 0.0025
		} else {
			inv := math.Log10E / l2
			dx, dy = dp*inv, dq*inv
		}
		g := 0.5 * math.Log10(l2)
		gs[i] = g
		sg += g
		sr += o.RSS
		sgg += g * g
		sgr += g * o.RSS
		ax += dx
		ay += dy
		bx += g * dx
		by += g * dy
		cx += o.RSS * dx
		cy += o.RSS * dy
	}
	*f = fitSums{
		sw: float64(len(obs)), sg: sg, sr: sr, sgg: sgg, sgr: sgr,
		a: vec{ax, ay}, b: vec{bx, by}, c: vec{cx, cy},
	}
}

// solve returns the closed-form fit: the exponent clamped to
// [nMin, nMax], the power offset optimal for it, and whether n is the
// interior regression slope (so it moves with position) rather than a
// clamp.
func (f *fitSums) solve(nMin, nMax float64) (n, gamma float64, free bool) {
	den := f.sw*f.sgg - f.sg*f.sg
	if den < 1e-12 {
		// All distances equal (observer orbiting the target): the slope
		// is unidentifiable; clamp to a mid exponent.
		n = (nMin + nMax) / 2
	} else {
		slope := (f.sw*f.sgr - f.sg*f.sr) / den
		n = -slope / 10
		free = true
	}
	nc := math.Min(math.Max(n, nMin), nMax)
	gamma = (f.sr + 10*nc*f.sg) / f.sw
	return nc, gamma, free && nc == n
}

// fitGrad carries what the position gradient needs at a fit: the data
// term d = Σwᵢrᵢ·∂gᵢ per coordinate, and the sensitivity sums of the
// fitted (n, Γ) — Σv, Σv·g, Σv·g², Σv·∂g and Σv·g·∂g, with
// vᵢ = ψ'(rᵢ)/2 the loss's curvature (1 under the squared loss).
type fitGrad struct {
	v, vg, vgg float64
	va, vb, d  vec
}

// grad returns the squared-loss fitGrad of the closed form (n, Γ):
// Σrᵢ·∂gᵢ = c − Γ·a + 10·n·b.
func (f *fitSums) grad(n, gamma float64) fitGrad {
	fg := fitGrad{v: f.sw, vg: f.sg, vgg: f.sgg, va: f.a, vb: f.b}
	for k := range fg.d {
		fg.d[k] = f.c[k] - gamma*f.a[k] + 10*n*f.b[k]
	}
	return fg
}

// addGrad adds the fit score's position gradient to grad. At the fitted
// (n, Γ) the score is stationary in Γ, and in n too unless n is clamped
// (then n is constant), so by the variable-projection argument the
// gradient is the partial at fixed (n, Γ):
// ∂/∂x Σρ(rᵢ) = Σψ(rᵢ)·∂rᵢ/∂x = 20·n·Σwᵢrᵢ·∂gᵢ, with
// rᵢ = RSSᵢ − Γ + 10·n·gᵢ and ψ(r) = 2·w·r (w ≡ 1 for squares).
func (fg *fitGrad) addGrad(grad *vec, dim int, n float64) {
	for k := 0; k < dim; k++ {
		grad[k] += 20 * n * fg.d[k]
	}
}

// sens returns the position derivatives of the fitted n and Γ.
// Differentiating the fit's normal equations Σψᵢ = 0 and Σψᵢ·gᵢ = 0
// along x gives
//
//	−∂Γ·Σv + 10·∂n·Σvg = −10·n·Σv∂g
//	−∂Γ·Σvg + 10·∂n·Σvg² = −10·n·Σvg∂g − Σwr∂g
//
// with ∂n = 0 when n is clamped or unidentifiable. Under the squared
// loss this is the derivative of the closed-form regression slope.
func (fg *fitGrad) sens(dim int, n float64, free bool) (dn, dgamma vec) {
	if !(fg.v > 0) {
		return dn, dgamma // no observation shapes the fit
	}
	den := fg.v*fg.vgg - fg.vg*fg.vg
	for k := 0; k < dim; k++ {
		if free && den > 0 {
			dn[k] = (10*n*(fg.va[k]*fg.vg-fg.vb[k]*fg.v) - fg.d[k]*fg.v) / (10 * den)
		}
		dgamma[k] = 10 * (dn[k]*fg.vg + n*fg.va[k]) / fg.v
	}
	return dn, dgamma
}

// sqResid is the squared-loss score Σrᵢ² at the fitted (n, Γ), over the
// log-distances the last sums pass left in s.gs.
func (s *Solver) sqResid(obs []Obs, n, gamma float64) float64 {
	ss := 0.0
	gs := s.gs
	for i, o := range obs {
		r := o.RSS - (gamma - 10*n*gs[i])
		ss += r * r
	}
	return ss
}

// segEval is the position-search objective of one segment at (x, h):
// the fit score (squared or robust, per cfg.Loss) plus the soft
// physical-plausibility prior on the implied (n, Γ), written as two
// residual rows √(4·W·m)·penN and √(W·m/4)·penG. When grad is non-nil it
// adds the objective's gradient into grad; with val false only the
// gradient is wanted, and the squared loss skips its residual pass.
func (s *Solver) segEval(obs []Obs, cfg *Config, x, h float64, val bool, grad *vec) float64 {
	var f fitSums
	s.sums2D(obs, x, h, &f)
	n, gamma, free := f.solve(cfg.NMin, cfg.NMax)
	score := 0.0
	unit := true // every observation at weight 1: the squared-loss gradient
	var sigma float64
	if cfg.Loss != LossSquared {
		n, gamma, free, score, _, unit, sigma = s.irls(obs, cfg, n, gamma, free)
	} else if val {
		score = s.sqResid(obs, n, gamma)
	}
	penN := math.Max(0, n-cfg.NSoftMax) + math.Max(0, cfg.NSoftMin-n)
	penG := math.Max(0, gamma-cfg.GammaSoftMax) + math.Max(0, cfg.GammaSoftMin-gamma)
	if grad != nil {
		var fg fitGrad
		if unit {
			fg = f.grad(n, gamma)
		} else {
			s.robustGrad(obs, cfg, x, h, sigma, &fg)
		}
		fg.addGrad(grad, 2, n)
		if penN > 0 || penG > 0 || !unit {
			dn, dgamma := fg.sens(2, n, free)
			if !unit {
				s.addScaleGrad(obs, cfg, x, h, n, sigma, &dn, &dgamma, grad)
			}
			// The prior rows' squares have derivatives 8·W·m·penN·∂penN
			// and ½·W·m·penG·∂penG, the hinges turning ∂n and ∂Γ around
			// below the band.
			pw := cfg.PenaltyWeight * float64(len(obs))
			kn, kg := 8*pw*penN, 0.5*pw*penG
			if n < cfg.NSoftMin {
				kn = -kn
			}
			if gamma < cfg.GammaSoftMin {
				kg = -kg
			}
			for k := 0; k < 2; k++ {
				grad[k] += kn*dn[k] + kg*dgamma[k]
			}
		}
	}
	return score + cfg.PenaltyWeight*float64(len(obs))*(penN*penN*4+penG*penG*0.25)
}

// maxRSS is the strongest reading of the window.
func maxRSS(obs []Obs) float64 {
	m := math.Inf(-1)
	for _, o := range obs {
		if o.RSS > m {
			m = o.RSS
		}
	}
	return m
}

// ringSeeds is how many ring positions ringInits proposes.
const ringSeeds = 4 * 8

// ringInits proposes starting positions for the position search: the
// strongest filtered RSS implies a rough distance ring (assuming nominal
// Γ ≈ −60 dBm and a plausible exponent); candidates are spread around
// rings at a few radii in all directions. Results are appended to the
// solver's ring arena and valid until the next ringInits call.
func (s *Solver) ringInits(maxRSS float64) [][2]float64 {
	var radii [4]float64
	for i, n := range [2]float64{2.0, 3.0} {
		d := math.Pow(10, (-60-maxRSS)/(10*n))
		radii[i] = clampF(d, 0.5, 20)
	}
	radii[2], radii[3] = 3, 7
	out := s.ringP[:0]
	for _, r := range radii {
		for k := 0; k < 8; k++ {
			th := 2 * math.Pi * float64(k) / 8
			out = append(out, [2]float64{r * math.Cos(th), r * math.Sin(th)})
		}
	}
	s.ringP = out
	return out
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
