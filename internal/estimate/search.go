package estimate

import "math"

// maxDim is the largest parameter count any position search uses: the
// 2-D position, the collinear (s, w) frame, or the 3-D position.
const maxDim = 3

// vec is a search point or gradient in fixed-size storage; entries past
// the search's dimension stay zero.
type vec [maxDim]float64

// Multi-start and trust-region policy. Every seed gets a short pass of
// seedIters iterations: a seed that starts on the wrong side of the
// range/exponent valley slides toward the MaxRange wall, and would
// otherwise creep along it for a whole search budget. Only the
// polishBasins best endpoints lying more than basinSep apart are then
// searched to convergence (with 3, the noise-free fit of
// TestRunSegmentedRecoversAcrossEnvChange lands 2.2 m off; 5 keeps its
// basin).
const (
	seedIters    = 6
	polishIters  = 40
	polishBasins = 5
	basinSep     = 0.05 // m: endpoints closer than this share a basin
	seedDupTol   = 1e-6 // m: seeds this close would run the same search
	trRadius0    = 1.0  // initial trust radius (m)
	trRadiusMax  = 10.0 // largest trust radius (m)
	trStepTol    = 1e-6 // converged once the step or radius drops below (m)
	trAccept     = 1e-4 // least actual/predicted reduction that takes a step
	fdStep       = 1e-6 // forward-difference step of the Hessian (m)
	pollEvery    = 4    // search iterations between Config.Cancel polls
)

// searchKind selects the objective the position search minimizes.
type searchKind uint8

const (
	searchPlanar    searchKind = iota // (x, h) over segmented observations
	searchCollinear                   // (s, w): position s·dir + |w|·perp
	search3D                          // (x, h, z) over 3-D observations
)

// objective is the problem the Solver's search is minimizing. It lives
// in the Solver for the duration of one run, so the search evaluates it
// without a closure per run; clearObjective drops the references to the
// caller's observations when the run ends.
type objective struct {
	kind      searchKind
	dim       int
	obs       []Obs
	obs3      []Obs3D
	segs      [][2]int
	cfg       Config
	dir, perp [2]float64
}

func (s *Solver) clearObjective() { s.obj = objective{} }

// trState is one local search's iterate: the position, the objective
// value there, the trust radius, and whether the search has converged.
// The gradient at x travels beside it (it is cheap to recompute, and
// leaving it out keeps the per-seed arena small).
type trState struct {
	x    vec
	f, r float64
	done bool
}

// eval returns the objective at x and writes its gradient into g. With
// val false only the gradient is wanted (the Hessian's difference
// quotients) and the wall is not checked; with val true a point beyond
// MaxRange is infeasible and returns +Inf without a gradient.
func (s *Solver) eval(x *vec, val bool, g *vec) float64 {
	o := &s.obj
	*g = vec{}
	switch o.kind {
	case searchCollinear:
		// x = s·dir + |w|·perp: the sign of w is unobservable, so the
		// objective is even in w and the chain rule flips ∂/∂w with it.
		w := math.Abs(x[1])
		px, ph := x[0]*o.dir[0]+w*o.perp[0], x[0]*o.dir[1]+w*o.perp[1]
		if val && math.Hypot(px, ph) > o.cfg.MaxRange {
			return math.Inf(1)
		}
		var gp vec
		f := s.planarAt(px, ph, val, &gp)
		g[0] = gp[0]*o.dir[0] + gp[1]*o.dir[1]
		g[1] = gp[0]*o.perp[0] + gp[1]*o.perp[1]
		if x[1] < 0 {
			g[1] = -g[1]
		}
		return f
	case search3D:
		if val && math.Sqrt(x[0]*x[0]+x[1]*x[1]+x[2]*x[2]) > o.cfg.MaxRange {
			return math.Inf(1)
		}
		f, _, _ := s.fit3At(o.obs3, &o.cfg, x, val, g)
		return f
	default:
		if val && math.Hypot(x[0], x[1]) > o.cfg.MaxRange {
			return math.Inf(1)
		}
		return s.planarAt(x[0], x[1], val, g)
	}
}

// planarAt sums the per-segment objectives (and gradients) at (x, h).
func (s *Solver) planarAt(x, h float64, val bool, g *vec) float64 {
	o := &s.obj
	total := 0.0
	for _, sg := range o.segs {
		total += s.segEval(o.obs[sg[0]:sg[1]], &o.cfg, x, h, val, g)
	}
	return total
}

// start evaluates a fresh search at st.x, writing the gradient into g.
// A seed beyond MaxRange has no objective value, but its gradient still
// points the first steps back.
func (s *Solver) start(st *trState, g *vec) {
	st.f = s.eval(&st.x, true, g)
	if math.IsInf(st.f, 1) {
		s.eval(&st.x, false, g)
	}
	if math.IsNaN(st.f) {
		st.f = math.Inf(1)
	}
	st.r = trRadius0
	st.done = false
}

// search runs up to iters trust-region Newton iterations from st, whose
// gradient is g, on the current objective. Each iteration takes the Hessian from forward
// differences of the analytic gradient (reused while steps are
// rejected), solves the trust-region subproblem exactly, and accepts the
// step when the objective falls by at least trAccept of the model's
// prediction. It reports false when Config.Cancel stopped it, which it
// polls every pollEvery iterations.
//
// Why Newton and not Gauss–Newton: the residuals are large (RSS noise is
// a few dB) and the range/exponent valley is flat, so JᵀJ misses the
// residual curvature and overshoots — under Levenberg–Marquardt about
// half of all steps were rejected and searches ran to their caps.
func (s *Solver) search(st *trState, g *vec, iters int) bool {
	dim := s.obj.dim
	var hess [maxDim]vec
	hOK, ok := false, true
	spent := 0
	for it := 0; it < iters && !st.done; it++ {
		if it > 0 && it%pollEvery == 0 && s.obj.cfg.canceled() {
			ok = false
			break
		}
		spent++
		if !hOK {
			s.hessian(st, g, &hess)
			hOK = true
		}
		p, pred := trStep(&hess, g, st.r, dim)
		pn := norm(&p)
		if !(pred > 0) || pn < trStepTol {
			st.done = true
			break
		}
		var xn, gn vec
		for k := 0; k < dim; k++ {
			xn[k] = st.x[k] + p[k]
		}
		fn := s.eval(&xn, true, &gn)
		rho := (st.f - fn) / pred
		if rho > trAccept {
			st.x, st.f, *g = xn, fn, gn
			hOK = false
		}
		if !(rho >= 0.25) {
			st.r = 0.25 * pn
		} else if rho > 0.75 && pn > 0.99*st.r {
			st.r = math.Min(2*st.r, trRadiusMax)
		}
		if st.r < trStepTol {
			st.done = true
		}
	}
	metSearches.Inc()
	metSearchIters.Add(int64(spent))
	return ok
}

// hessian fills h with forward differences of the analytic gradient
// (g at st.x), symmetrized. A non-finite entry (a gradient blown up by
// degenerate data) zeroes the matrix, which turns the next step into a
// steepest-descent step to the trust boundary.
func (s *Solver) hessian(st *trState, g *vec, h *[maxDim]vec) {
	dim := s.obj.dim
	for k := 0; k < dim; k++ {
		xk := st.x
		xk[k] += fdStep
		d := xk[k] - st.x[k]
		var gk vec
		s.eval(&xk, false, &gk)
		for j := 0; j < dim; j++ {
			h[j][k] = (gk[j] - g[j]) / d
		}
	}
	finite := true
	for j := 0; j < dim; j++ {
		for k := j; k < dim; k++ {
			a := 0.5 * (h[j][k] + h[k][j])
			h[j][k], h[k][j] = a, a
			finite = finite && !math.IsNaN(a) && !math.IsInf(a, 0)
		}
	}
	if !finite {
		*h = [maxDim]vec{}
	}
}

func norm(v *vec) float64 { return math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2]) }

// trStep solves the trust-region subproblem min gᵀp + ½·pᵀHp subject to
// |p| ≤ r exactly, in H's eigenbasis: the Newton step when H is positive
// definite and the step fits, otherwise the boundary step
// p(μ) = −(H + μI)⁻¹g with μ > max(0, −λmin) found by a safeguarded
// Newton iteration on the secular equation 1/|p(μ)| = 1/r (Moré &
// Sorensen), or, in the hard case, p(−λmin) plus a lowest-eigenvector
// component. It returns the step and the model's predicted reduction.
func trStep(h *[maxDim]vec, g *vec, r float64, dim int) (p vec, pred float64) {
	lam, v := symEig(*h, dim)
	var gt vec // g in the eigenbasis
	lmin, imin := math.Inf(1), 0
	gn := 0.0
	for i := 0; i < dim; i++ {
		for k := 0; k < dim; k++ {
			gt[i] += v[k][i] * g[k]
		}
		gn += g[i] * g[i]
		if lam[i] < lmin {
			lmin, imin = lam[i], i
		}
	}
	gn = math.Sqrt(gn)
	// stepAt writes p(μ) in the eigenbasis into pt and returns |p(μ)|²
	// and Σ gtᵢ²/(λᵢ+μ)³ (the secular equation's derivative term).
	var pt vec
	stepAt := func(mu float64) (n2, d3 float64) {
		for i := 0; i < dim; i++ {
			pt[i] = 0
			if gt[i] == 0 {
				continue
			}
			den := lam[i] + mu
			pt[i] = -gt[i] / den
			n2 += pt[i] * pt[i]
			d3 += pt[i] * pt[i] / den
		}
		return n2, d3
	}
	lo := math.Max(0, -lmin)
	solved := false
	if lmin > 0 {
		// The Newton step, if it fits.
		n2, _ := stepAt(0)
		solved = n2 <= r*r
	} else {
		// Hard case: g has no component along the lowest eigenvectors, so
		// |p(μ)| stays bounded as μ → −λmin. If the step over the other
		// directions fits, a negative curvature direction carries it to
		// the boundary (a zero one changes nothing).
		n2, hard := 0.0, true
		for i := 0; i < dim; i++ {
			pt[i] = 0
			if lam[i]+lo > 0 {
				pt[i] = -gt[i] / (lam[i] + lo)
				n2 += pt[i] * pt[i]
			} else if math.Abs(gt[i]) > 1e-12*gn {
				hard = false
			}
		}
		if hard && n2 <= r*r {
			if lmin < 0 {
				pt[imin] = math.Sqrt(r*r - n2)
			}
			solved = true
		}
	}
	if !solved {
		// |p(μ)| falls from above r (or infinity) at μ = lo to at most r
		// at hi; find the crossing.
		hi := lo + gn/r
		mu := hi
		for it := 0; it < 60; it++ {
			n2, d3 := stepAt(mu)
			pn := math.Sqrt(n2)
			if math.Abs(pn-r) <= 1e-6*r {
				break
			}
			if pn > r {
				lo = mu
			} else {
				hi = mu
			}
			// φ(μ) = 1/|p| − 1/r, φ'(μ) = Σ gtᵢ²/(λᵢ+μ)³ / |p|³.
			next := mu - (1/pn-1/r)*n2*pn/d3
			if !(next > lo && next < hi) {
				next = 0.5 * (lo + hi)
			}
			if next == mu {
				break
			}
			mu = next
		}
		stepAt(mu)
	}
	for i := 0; i < dim; i++ {
		pred -= gt[i]*pt[i] + 0.5*lam[i]*pt[i]*pt[i]
		for k := 0; k < dim; k++ {
			p[k] += v[k][i] * pt[i]
		}
	}
	return p, pred
}

// symEig diagonalizes the symmetric dim×dim matrix a by cyclic Jacobi
// rotations: a = V·diag(λ)·Vᵀ, the columns of V being the eigenvectors.
func symEig(a [maxDim]vec, dim int) (lam vec, v [maxDim]vec) {
	for i := 0; i < dim; i++ {
		v[i][i] = 1
	}
	for sweep := 0; sweep < 20; sweep++ {
		off, diag := 0.0, 0.0
		for p := 0; p < dim; p++ {
			diag += a[p][p] * a[p][p]
			for q := p + 1; q < dim; q++ {
				off += a[p][q] * a[p][q]
			}
		}
		if off <= 1e-30*diag || off == 0 {
			break
		}
		for p := 0; p < dim-1; p++ {
			for q := p + 1; q < dim; q++ {
				apq := a[p][q]
				if apq == 0 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if math.IsInf(theta*theta, 0) {
					t = 0.5 / math.Abs(theta)
				}
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				sn := t * c
				for k := 0; k < dim; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p], a[k][q] = c*akp-sn*akq, sn*akp+c*akq
				}
				for k := 0; k < dim; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k], a[q][k] = c*apk-sn*aqk, sn*apk+c*aqk
				}
				for k := 0; k < dim; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p], v[k][q] = c*vkp-sn*vkq, sn*vkp+c*vkq
				}
			}
		}
	}
	for i := 0; i < dim; i++ {
		lam[i] = a[i][i]
	}
	return lam, v
}

// reserveStarts returns the seed arena emptied, with room for n seeds.
// It is sized exactly rather than grown by appends, so a Solver keeps no
// slack beyond its largest seed set.
func (s *Solver) reserveStarts(n int) []trState {
	if cap(s.starts) < n {
		s.starts = make([]trState, 0, n)
	}
	return s.starts[:0]
}

// gridLen is the number of exponents of the elliptical initializers'
// grid nMin, nMin+step, … ≤ nMax.
func gridLen(nMin, nMax, step float64) int {
	k := 0
	for n := nMin; n <= nMax+1e-9; n += step {
		k++
	}
	return k
}

// multiStart runs the position search from every seed in s.starts: a
// short pass from each distinct seed, then a polish of the best
// polishBasins endpoints that lie more than basinSep apart. Config.Cancel
// is polled before every pass. It returns the best polished iterate.
func (s *Solver) multiStart() (trState, error) {
	cfg := &s.obj.cfg
	sts := s.starts
	dim := s.obj.dim
	for i := range sts {
		// A seed on top of an earlier one would repeat its search.
		sts[i].done = nearAny(sts[:i], &sts[i].x, dim, seedDupTol)
	}
	for i := range sts {
		if cfg.canceled() {
			return trState{}, ErrCanceled
		}
		st := &sts[i]
		if st.done {
			st.f = math.Inf(1)
			continue
		}
		var g vec
		s.start(st, &g)
		if !s.search(st, &g, seedIters) {
			return trState{}, ErrCanceled
		}
	}
	// Polish the best distinct endpoints, best first: the next pick is
	// the lowest endpoint not within basinSep of one already picked.
	var picked [polishBasins]int
	np := 0
	for np < polishBasins {
		next := -1
		for i := range sts {
			if !(sts[i].f < math.Inf(1)) || (next >= 0 && sts[i].f >= sts[next].f) {
				continue
			}
			far := true
			for _, j := range picked[:np] {
				if dist(&sts[i].x, &sts[j].x, dim) <= basinSep {
					far = false
					break
				}
			}
			if far {
				next = i
			}
		}
		if next < 0 {
			break
		}
		picked[np] = next
		np++
	}
	best := -1
	for _, i := range picked[:np] {
		if cfg.canceled() {
			return trState{}, ErrCanceled
		}
		if !sts[i].done {
			var g vec
			s.eval(&sts[i].x, false, &g)
			if !s.search(&sts[i], &g, polishIters) {
				return trState{}, ErrCanceled
			}
		}
		if best < 0 || sts[i].f < sts[best].f {
			best = i
		}
	}
	if cfg.canceled() {
		return trState{}, ErrCanceled
	}
	if best < 0 || !(sts[best].f < math.Inf(1)) {
		return trState{}, ErrNoSolution
	}
	return sts[best], nil
}

// nearAny reports whether x lies within tol of the seed position of any
// of the (not yet searched) states.
func nearAny(sts []trState, x *vec, dim int, tol float64) bool {
	for i := range sts {
		if dist(&sts[i].x, x, dim) <= tol {
			return true
		}
	}
	return false
}

func dist(a, b *vec, dim int) float64 {
	d := 0.0
	for k := 0; k < dim; k++ {
		d += (a[k] - b[k]) * (a[k] - b[k])
	}
	return math.Sqrt(d)
}
