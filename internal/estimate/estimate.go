// Package estimate implements LocBLE's location estimator (paper Sec. 5):
// a regression that fuses relative movement (from the motion tracker)
// with RSS readings under the modified log-distance model
//
//	RSᵢ = Γ(e) − 10·n(e)·log10(lᵢ),   lᵢ² = (x+pᵢ)² + (h+qᵢ)²
//
// where (pᵢ, qᵢ) = (bᵢ−aᵢ, dᵢ−cᵢ) is the target-minus-observer relative
// displacement at sample i and (x, h) is the target's initial position in
// the observer's coordinate frame.
//
// The paper linearizes the model with ϵ = 10^(Γ/(5n)), η = 10^(−1/(5n)):
//
//	A·(p²+q²) + C·p + D·q + G = ρ,   ρᵢ = η^{RSᵢ},
//
// with A = 1/ϵ, C = 2x/ϵ, D = 2h/ϵ, G = (x²+h²)/ϵ (Eqs. 2–4), solved by
// least squares, with the fading coefficient n(e) found numerically
// (Eq. 5). The linearized form works on well-filtered data but is fragile
// under realistic RSS noise — the multiplicative ρ-domain noise lets the
// quadratic coefficient A go negative. This implementation therefore uses
// the elliptical least-squares fit as the *initializer* and refines the
// position with a dB-domain solver: for any fixed position, (n, Γ) have a
// closed form (linear regression of RSS on log-distance — the same
// quantity Eq. 5 minimizes), so the problem is separable least squares
// and only the position is searched (variable projection, Golub &
// Pereyra). The search is a trust-region Newton method with an analytic
// gradient that chains through the closed-form n(x, h) and Γ(x, h), the
// soft (n, Γ) prior entering as two extra residual rows; one search
// serves the planar, collinear, L-shape and 3-D paths and both losses.
// Straight-line movement leaves the cross-track coordinate
// sign-ambiguous; the L-shaped movement resolves the ambiguity by
// intersecting the per-leg result sets (Sec. 5.1).
package estimate

import (
	"errors"
	"fmt"
	"math"

	"locble/internal/mathx"
)

// Estimation errors.
var (
	ErrTooFewSamples      = errors.New("estimate: too few samples")
	ErrInsufficientMotion = errors.New("estimate: observer movement too small to estimate")
	ErrNoSolution         = errors.New("estimate: regression produced no physical solution")
	// ErrCanceled is returned when Config.Cancel reported cancellation
	// mid-search (e.g. the caller's context ended); the partial result
	// is discarded.
	ErrCanceled = errors.New("estimate: canceled")
)

// Obs is one fused observation: a (filtered) RSS reading matched to the
// relative displacement at the same timestamp.
type Obs struct {
	T   float64 // seconds
	RSS float64 // dBm, after ANF filtering
	P   float64 // relative x displacement pᵢ = bᵢ − aᵢ (metres)
	Q   float64 // relative y displacement qᵢ = dᵢ − cᵢ (metres)
}

// Candidate is one possible target position.
type Candidate struct {
	X, H float64
}

// Dist returns the Euclidean distance between candidates.
func (c Candidate) Dist(o Candidate) float64 { return math.Hypot(c.X-o.X, c.H-o.H) }

// Estimate is the output of the regression.
type Estimate struct {
	// X, H is the best target position estimate in the observer frame.
	X, H float64
	// Candidates holds 1 solution for well-conditioned 2-D movement, or
	// the 2 symmetric solutions for (near-)collinear movement.
	Candidates []Candidate
	// N is the estimated path-loss (fading) coefficient n(e).
	N float64
	// Gamma is the estimated power offset Γ(e) in dBm.
	Gamma float64
	// ResidualDB is the RMS residual of the fit in dB.
	ResidualDB float64
	// Confidence is the paper's estimation confidence: the two-sided
	// Gaussian tail probability of the residual mean (≈1 for an unbiased
	// fit, →0 for a biased one).
	Confidence float64
	// Ambiguous reports whether the movement was collinear, so Candidates
	// contains two mirror solutions.
	Ambiguous bool
	// Samples is the number of observations used.
	Samples int
	// Downweighted is the number of observations the robust loss pushed
	// below the down-weight threshold at the final fit (0 under
	// LossSquared) — a direct census of how much hostile data the IRLS
	// layer had to suppress.
	Downweighted int
}

// Range returns the estimated distance from the observer's origin.
func (e *Estimate) Range() float64 { return math.Hypot(e.X, e.H) }

// Nearest resolves mirror ambiguity against an outside reference: it
// returns a copy of the estimate placed at the candidate nearest ref
// (the first of equally near candidates wins). The L-shape pairs the
// full fit with its legs' intersection this way, and a track pairs each
// window with its previous fix. Every other field, Candidates and
// Ambiguous included, is kept.
func (e *Estimate) Nearest(ref Candidate) *Estimate {
	out := *e
	bd := math.Inf(1)
	for _, c := range e.Candidates {
		if d := c.Dist(ref); d < bd {
			out.X, out.H, bd = c.X, c.H, d
		}
	}
	return &out
}

// Config tunes the estimator.
type Config struct {
	// NMin, NMax bound the fading coefficient (physical indoor exponents
	// are ~1.5–4.5).
	NMin, NMax float64
	// NGridStep is the exponent grid used for the elliptical-LS
	// initializer.
	NGridStep float64
	// CollinearRatio: movement is considered collinear when the minor
	// principal axis of the (p,q) cloud is below this fraction of the
	// major axis.
	CollinearRatio float64
	// MinSpread is the minimum movement extent (metres) along the major
	// axis required for regression.
	MinSpread float64
	// MinSamples is the minimum number of observations.
	MinSamples int
	// MaxRange rejects solutions farther than this from the observer
	// (BLE is dead beyond ~15–20 m; unconstrained fits can run away).
	MaxRange float64
	// Soft physical-plausibility prior: the RSS-vs-distance trade-off is
	// shallow (a farther target with a larger exponent fits noisy data
	// almost as well — the classic range/exponent ambiguity), so the
	// position search penalizes fits whose implied exponent or power
	// offset leaves the physically plausible band. Zero values select
	// the defaults.
	NSoftMin, NSoftMax         float64 // plausible exponent band (1.7–4.2)
	GammaSoftMin, GammaSoftMax float64 // plausible Γ band (−82…−48 dBm)
	PenaltyWeight              float64 // prior strength (dB² per sample)
	// Loss selects the regression loss of the position search. The zero
	// value (LossSquared) keeps the historical squared-loss behaviour
	// bit-identical; LossHuber/LossTukey run the inner fit as IRLS with
	// MAD-scaled per-observation weights, so outlier RSS samples are
	// down-weighted instead of dragging the fix.
	Loss Loss
	// HuberDelta / TukeyC are the robust tuning constants in σ units
	// (zero selects 1.345 / 4.685, the 95%-Gaussian-efficiency values).
	HuberDelta float64
	TukeyC     float64
	// IRLSIterations caps the reweighting passes per inner fit (zero
	// selects 3; the weighted closed form converges fast, and a fit stops
	// early once its weights no longer change).
	IRLSIterations int
	// Cancel, if non-nil, is polled between search seeds and every few
	// trust-region iterations; once it reports true the search stops
	// and the run returns ErrCanceled. Wire a context in with
	// func() bool { return ctx.Err() != nil }.
	Cancel func() bool `json:"-"`
}

// canceled reports whether the caller asked the search to stop.
func (c Config) canceled() bool { return c.Cancel != nil && c.Cancel() }

// DefaultConfig returns the estimator settings used by the pipeline.
func DefaultConfig() Config {
	return Config{
		NMin:           1.3,
		NMax:           5.0,
		NGridStep:      0.5,
		CollinearRatio: 0.18,
		MinSpread:      1.0,
		MinSamples:     8,
		MaxRange:       25,
		NSoftMin:       1.4,
		NSoftMax:       4.2,
		GammaSoftMin:   -82,
		GammaSoftMax:   -48,
		PenaltyWeight:  4.0,
	}
}

// softDefaults fills zero prior fields.
func (c *Config) softDefaults() {
	if c.NSoftMin == 0 && c.NSoftMax == 0 {
		c.NSoftMin, c.NSoftMax = 1.4, 4.2
	}
	if c.GammaSoftMin == 0 && c.GammaSoftMax == 0 {
		c.GammaSoftMin, c.GammaSoftMax = -82, -48
	}
	if c.PenaltyWeight == 0 {
		c.PenaltyWeight = 4.0
	}
}

func (s *Solver) runSegmented(obs []Obs, segStarts []int, cfg Config) (*Estimate, error) {
	if cfg.MinSamples < 5 {
		cfg.MinSamples = 5
	}
	if cfg.MaxRange <= 0 {
		cfg.MaxRange = 25
	}
	if len(obs) < cfg.MinSamples {
		return nil, fmt.Errorf("%w: %d < %d", ErrTooFewSamples, len(obs), cfg.MinSamples)
	}
	if cfg.canceled() {
		return nil, ErrCanceled
	}
	cfg.softDefaults()
	var segs [][2]int
	if len(segStarts) == 0 {
		s.seg1[0] = [2]int{0, len(obs)}
		segs = s.seg1[:]
	} else {
		segs = normalizeSegments(len(obs), segStarts)
	}
	major, minor, dir := movementPCA(obs)
	if major < cfg.MinSpread {
		return nil, fmt.Errorf("%w: spread %.2f m < %.2f m", ErrInsufficientMotion, major, cfg.MinSpread)
	}
	if minor < cfg.CollinearRatio*major {
		return s.runCollinear(obs, segs, cfg, dir)
	}
	return s.runPlanar(obs, segs, cfg)
}

// normalizeSegments converts segment start indexes into [lo, hi) pairs,
// merging segments shorter than the minimum needed to fit (Γ, n).
func normalizeSegments(n int, segStarts []int) [][2]int {
	const minSeg = 8
	starts := []int{0}
	for _, s := range segStarts {
		if s > starts[len(starts)-1] && s < n {
			starts = append(starts, s)
		}
	}
	var segs [][2]int
	for i, lo := range starts {
		hi := n
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		if hi-lo < minSeg && len(segs) > 0 {
			segs[len(segs)-1][1] = hi // merge into predecessor
			continue
		}
		segs = append(segs, [2]int{lo, hi})
	}
	if len(segs) == 0 {
		segs = [][2]int{{0, n}}
	}
	// A leading short segment may remain; merge forward.
	if segs[0][1]-segs[0][0] < minSeg && len(segs) > 1 {
		segs[1][0] = segs[0][0]
		segs = segs[1:]
	}
	return segs
}

// ringPick is how many screened ring seeds join a planar search.
const ringPick = 6

// runPlanar handles well-spread 2-D movement: elliptical-LS and ring
// seeds, then the multi-start trust-region search over the position in
// the dB domain.
func (s *Solver) runPlanar(obs []Obs, segs [][2]int, cfg Config) (*Estimate, error) {
	s.obj = objective{kind: searchPlanar, dim: 2, obs: obs, segs: segs, cfg: cfg}
	defer s.clearObjective()
	// All elliptical seeds are searched: the objective's global basin
	// around the true position is narrow (a distant position with an
	// inflated exponent often *scores* better than a near-miss), so seed
	// score alone cannot rank basins — every linearized-fit hypothesis
	// gets a local search.
	step := math.Max(cfg.NGridStep, 0.25)
	starts := s.reserveStarts(gridLen(cfg.NMin, cfg.NMax, step) + ringPick)
	var e normalEq
	e.k = 4
	var row [5]float64
	for _, o := range obs {
		planarRow(o, &row)
		e.addRow(&row)
	}
	for n := cfg.NMin; n <= cfg.NMax+1e-9; n += step {
		rho, _ := s.rhoValues(obs, n)
		e.xty = [5]float64{}
		for i, o := range obs {
			planarRow(o, &row)
			e.addRHS(&row, rho[i])
		}
		p, ok := e.solve()
		if !ok {
			p, ok = lsFallback(len(obs), 4, func(i int, r *[5]float64) { planarRow(obs[i], r) }, rho)
		}
		if ok && p[0] > 0 {
			starts = append(starts, trState{x: vec{p[1] / (2 * p[0]), p[2] / (2 * p[0])}})
		}
	}
	// Ring seeds are screened by score; the best few join the search.
	var topArr [ringPick]scoredSeed
	top := topArr[:0]
	for _, r := range s.ringInits(maxRSS(obs)) {
		st := trState{x: vec{r[0], r[1]}}
		var g vec
		s.start(&st, &g)
		v := st.f
		if len(top) == ringPick && !(v < top[ringPick-1].v) {
			continue
		}
		if len(top) < ringPick {
			top = append(top, scoredSeed{})
		}
		j := len(top) - 1
		for ; j > 0 && v < top[j-1].v; j-- {
			top[j] = top[j-1]
		}
		top[j] = scoredSeed{r[0], r[1], v}
	}
	for _, t := range top {
		starts = append(starts, trState{x: vec{t.x, t.h}})
	}
	s.starts = starts
	best, err := s.multiStart()
	if err != nil {
		return nil, err
	}
	return s.finish(obs, segs, cfg, []Candidate{{X: best.x[0], H: best.x[1]}}, false)
}

// runCollinear handles (near-)collinear movement along unit vector dir:
// the position is parameterized as s·dir + w·perp; the sign of w is
// unobservable (the paper's symmetry ambiguity, Sec. 5.1), so two mirror
// candidates are returned.
func (s *Solver) runCollinear(obs []Obs, segs [][2]int, cfg Config, dir [2]float64) (*Estimate, error) {
	perp := [2]float64{-dir[1], dir[0]}
	s.obj = objective{kind: searchCollinear, dim: 2, obs: obs, segs: segs, cfg: cfg, dir: dir, perp: perp}
	defer s.clearObjective()
	starts := s.reserveStarts(1 + ringSeeds)
	if s0, w0, ok := s.ellipticalLSLine(obs, dir, 2.0); ok {
		starts = append(starts, trState{x: vec{s0, math.Max(w0, 0.3)}})
	}
	for _, r := range s.ringInits(maxRSS(obs)) {
		// Project ring candidates onto the (s, w) frame, w ≥ 0.
		sc := r[0]*dir[0] + r[1]*dir[1]
		w := math.Abs(r[0]*perp[0] + r[1]*perp[1])
		starts = append(starts, trState{x: vec{sc, math.Max(w, 0.3)}})
	}
	s.starts = starts
	best, err := s.multiStart()
	if err != nil {
		return nil, err
	}
	bs, bw := best.x[0], math.Abs(best.x[1])
	pos := func(sc, w float64) Candidate {
		return Candidate{X: sc*dir[0] + w*perp[0], H: sc*dir[1] + w*perp[1]}
	}
	return s.finish(obs, segs, cfg, []Candidate{pos(bs, bw), pos(bs, -bw)}, true)
}

// finish computes per-segment (n, Γ), residual statistics and confidence
// for the chosen candidate set. The reported N/Gamma come from the
// longest segment (the dominant environment).
func (s *Solver) finish(obs []Obs, segs [][2]int, cfg Config, cands []Candidate, ambiguous bool) (*Estimate, error) {
	best := cands[0]
	var n, gamma float64
	down := 0
	longest := -1
	resid := growFloats(s.resid, len(obs))[:0]
	for _, sg := range segs {
		segObs := obs[sg[0]:sg[1]]
		nj, gj, _, dj := s.fitAt(segObs, &cfg, best.X, best.H)
		down += dj
		if sz := sg[1] - sg[0]; sz > longest {
			longest, n, gamma = sz, nj, gj
		}
		for _, o := range segObs {
			l := math.Hypot(best.X+o.P, best.H+o.Q)
			if l < 0.05 {
				l = 0.05
			}
			resid = append(resid, o.RSS-(gj-10*nj*math.Log10(l)))
		}
	}
	s.resid = resid
	mu := mathx.Mean(resid)
	sigma := mathx.StdDev(resid)
	rms := 0.0
	for _, r := range resid {
		rms += r * r
	}
	rms = math.Sqrt(rms / float64(len(resid)))
	// Real BLE RSS noise never drops below a fraction of a dB; flooring σ
	// keeps the confidence well defined for near-perfect synthetic fits.
	conf := mathx.TwoSidedTailProb(mu, 0, math.Max(sigma, 0.25))
	return &Estimate{
		X:            best.X,
		H:            best.H,
		Candidates:   cands,
		N:            n,
		Gamma:        gamma,
		ResidualDB:   rms,
		Confidence:   conf,
		Ambiguous:    ambiguous,
		Samples:      len(obs),
		Downweighted: down,
	}, nil
}

// movementPCA returns the major/minor spread (std dev, metres) of the
// relative-displacement cloud and the unit vector of the major axis.
func movementPCA(obs []Obs) (major, minor float64, dir [2]float64) {
	n := float64(len(obs))
	var mp, mq float64
	for _, o := range obs {
		mp += o.P
		mq += o.Q
	}
	mp /= n
	mq /= n
	var spp, sqq, spq float64
	for _, o := range obs {
		dp, dq := o.P-mp, o.Q-mq
		spp += dp * dp
		sqq += dq * dq
		spq += dp * dq
	}
	spp /= n
	sqq /= n
	spq /= n
	tr := spp + sqq
	det := spp*sqq - spq*spq
	disc := math.Sqrt(math.Max(tr*tr/4-det, 0))
	l1 := tr/2 + disc
	l2 := tr/2 - disc
	major = math.Sqrt(math.Max(l1, 0))
	minor = math.Sqrt(math.Max(l2, 0))
	if math.Abs(spq) > 1e-12 {
		v := [2]float64{l1 - sqq, spq}
		nv := math.Hypot(v[0], v[1])
		dir = [2]float64{v[0] / nv, v[1] / nv}
	} else if spp >= sqq {
		dir = [2]float64{1, 0}
	} else {
		dir = [2]float64{0, 1}
	}
	return major, minor, dir
}

// rhoValues computes ρᵢ = η^{RSᵢ−RSmean} (mean-shifted for conditioning)
// into the solver's ρ arena; the result is valid until the next call.
func (s *Solver) rhoValues(obs []Obs, n float64) ([]float64, float64) {
	rsm := 0.0
	for _, o := range obs {
		rsm += o.RSS
	}
	rsm /= float64(len(obs))
	s.rho = growFloats(s.rho, len(obs))
	rho := s.rho
	for i, o := range obs {
		rho[i] = math.Pow(10, -(o.RSS-rsm)/(5*n))
	}
	return rho, rsm
}

// normalEq is a linear least-squares system of at most 5 parameters in
// its normal form XᵀX·p = Xᵀy, in fixed-size storage. The elliptical
// initializers build XᵀX once per run — the design matrix does not
// depend on the exponent, only ρ does — and re-solve it for each grid
// exponent without allocating. Sums and elimination follow
// mathx.LeastSquares's arithmetic, so the seeds are the ones it gives.
type normalEq struct {
	k   int
	xtx [5][5]float64
	xty [5]float64
}

// addRow accumulates one design row into XᵀX.
func (e *normalEq) addRow(row *[5]float64) {
	for i := 0; i < e.k; i++ {
		if row[i] == 0 {
			continue
		}
		for j := 0; j < e.k; j++ {
			e.xtx[i][j] += row[i] * row[j]
		}
	}
}

// addRHS accumulates one design row and its response into Xᵀy.
func (e *normalEq) addRHS(row *[5]float64, y float64) {
	for i := 0; i < e.k; i++ {
		if row[i] != 0 {
			e.xty[i] += row[i] * y
		}
	}
}

// solve solves the system by Gaussian elimination with partial pivoting;
// ok is false when it is singular.
func (e *normalEq) solve() (p [5]float64, ok bool) {
	a, b, n := e.xtx, e.xty, e.k
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a[r][col]); abs > maxAbs {
				maxAbs, pivot = abs, r
			}
		}
		if maxAbs < 1e-12 {
			return p, false
		}
		a[pivot], a[col] = a[col], a[pivot]
		b[pivot], b[col] = b[col], b[pivot]
		pv := a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / pv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] = a[r][c] - f*a[col][c]
			}
			b[r] = b[r] - f*b[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * p[j]
		}
		p[i] = sum / a[i][i]
	}
	return p, true
}

// lsFallback solves a singular elliptical system through
// mathx.LeastSquares's QR and ridge fallbacks (allocating: singular
// designs are rare). row fills observation i's design row.
func lsFallback(m, k int, row func(i int, r *[5]float64), y []float64) ([5]float64, bool) {
	x := mathx.NewMatrix(m, k)
	var r [5]float64
	for i := 0; i < m; i++ {
		row(i, &r)
		for j := 0; j < k; j++ {
			x.Set(i, j, r[j])
		}
	}
	var p [5]float64
	sol, err := mathx.LeastSquares(x, y)
	if err != nil {
		return p, false
	}
	copy(p[:], sol)
	return p, true
}

// planarRow is the design row of the paper's linearized regression
// (Eqs. 3–4), A·(p²+q²) + C·p + D·q + G = ρ, whose fit at a fixed
// exponent implies the position (C/(2A), D/(2A)) when physical (A > 0);
// it seeds the dB-domain search.
func planarRow(o Obs, r *[5]float64) {
	*r = [5]float64{o.P*o.P + o.Q*o.Q, o.P, o.Q, 1}
}

// ellipticalLSLine is the reduced 1-D elliptical regression for collinear
// movement along dir: A·u² + C·u + G = ρ with u the along-track
// coordinate, yielding the along-track coordinate s = C/(2A) and the
// cross-track magnitude |w| = sqrt(G/A − s²).
func (s *Solver) ellipticalLSLine(obs []Obs, dir [2]float64, n float64) (along, w float64, ok bool) {
	rho, _ := s.rhoValues(obs, n)
	lineRow := func(i int, r *[5]float64) {
		u := obs[i].P*dir[0] + obs[i].Q*dir[1]
		*r = [5]float64{u * u, u, 1}
	}
	var e normalEq
	e.k = 3
	var row [5]float64
	for i := range obs {
		lineRow(i, &row)
		e.addRow(&row)
		e.addRHS(&row, rho[i])
	}
	p, ok := e.solve()
	if !ok {
		p, ok = lsFallback(len(obs), 3, lineRow, rho)
	}
	if !ok || p[0] <= 0 {
		return 0, 0, false
	}
	along = p[1] / (2 * p[0])
	w2 := p[2]/p[0] - along*along
	if w2 < 0 {
		w2 = 0
	}
	return along, math.Sqrt(w2), true
}
