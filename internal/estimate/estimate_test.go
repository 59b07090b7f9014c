package estimate

import (
	"math"
	"testing"
	"testing/quick"

	"locble/internal/rng"
)

// synthObs generates observations for a stationary target at (x, h) while
// the observer walks the given waypoints, under the exact log-distance
// model with optional Gaussian noise.
func synthObs(x, h, gamma, n float64, path [][2]float64, noise float64, src *rng.Source) []Obs {
	obs := make([]Obs, 0, len(path))
	for i, p := range path {
		// Stationary target: relative displacement = −observer movement.
		px, qx := -p[0], -p[1]
		l := math.Hypot(x+px, h+qx)
		rss := gamma - 10*n*math.Log10(l)
		if noise > 0 {
			rss += src.Normal(0, noise)
		}
		obs = append(obs, Obs{T: float64(i) * 0.1, RSS: rss, P: px, Q: qx})
	}
	return obs
}

// lPath builds an L-shaped observer path: legA m along +x, then legB m
// along +y, with the given step.
func lPath(legA, legB, step float64) [][2]float64 {
	var path [][2]float64
	for d := 0.0; d <= legA; d += step {
		path = append(path, [2]float64{d, 0})
	}
	for d := step; d <= legB; d += step {
		path = append(path, [2]float64{legA, d})
	}
	return path
}

func TestPlanarExactRecovery(t *testing.T) {
	// Noise-free L-shaped movement must recover the target, exponent and
	// gamma almost exactly. The target sits off the walking path (the
	// model is singular at l = 0).
	x, h := 5.5, 2.0
	gamma, n := -59.0, 2.2
	obs := synthObs(x, h, gamma, n, lPath(4, 4, 0.25), 0, nil)
	est, err := Run(obs, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if est.Ambiguous {
		t.Fatalf("L-shaped movement should not be ambiguous")
	}
	if math.Abs(est.X-x) > 0.15 || math.Abs(est.H-h) > 0.15 {
		t.Errorf("position = (%.3f, %.3f), want (%.1f, %.1f)", est.X, est.H, x, h)
	}
	if math.Abs(est.N-n) > 0.1 {
		t.Errorf("n = %.3f, want %.1f", est.N, n)
	}
	if math.Abs(est.Gamma-gamma) > 1.5 {
		t.Errorf("gamma = %.2f, want %.1f", est.Gamma, gamma)
	}
	if est.Confidence < 0.9 {
		t.Errorf("confidence = %.3f for a perfect fit, want ≈1", est.Confidence)
	}
	if est.ResidualDB > 0.05 {
		t.Errorf("residual = %.4f dB for noise-free data", est.ResidualDB)
	}
}

func TestCollinearAmbiguity(t *testing.T) {
	// A straight walk along +x cannot identify the sign of h: the
	// estimator must return two mirror candidates at ±h.
	x, h := 3.0, 2.5
	var path [][2]float64
	for d := 0.0; d <= 5; d += 0.2 {
		path = append(path, [2]float64{d, 0})
	}
	obs := synthObs(x, h, -60, 2.0, path, 0, nil)
	est, err := Run(obs, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !est.Ambiguous || len(est.Candidates) != 2 {
		t.Fatalf("want 2 ambiguous candidates, got %+v", est)
	}
	c0, c1 := est.Candidates[0], est.Candidates[1]
	if math.Abs(c0.X-c1.X) > 0.1 {
		t.Errorf("mirror candidates should share x: %.3f vs %.3f", c0.X, c1.X)
	}
	if math.Abs(c0.H+c1.H) > 0.1 {
		t.Errorf("mirror candidates should be at ±h: %.3f vs %.3f", c0.H, c1.H)
	}
	// One of them must be the true position.
	d0 := c0.Dist(Candidate{X: x, H: h})
	d1 := c1.Dist(Candidate{X: x, H: h})
	if math.Min(d0, d1) > 0.3 {
		t.Errorf("neither candidate near the truth: d0=%.2f d1=%.2f", d0, d1)
	}
}

func TestLShapeDisambiguation(t *testing.T) {
	x, h := 4.5, 2.0
	src := rng.New(42)
	path := lPath(4, 4, 0.2)
	obs := synthObs(x, h, -59, 2.3, path, 0.8, src)
	// The turn happens when the path switches legs; find that time.
	splitIdx := 0
	for i, p := range path {
		if p[1] > 0 {
			splitIdx = i
			break
		}
	}
	splitT := obs[splitIdx].T
	res, err := RunLShape(obs, splitT, DefaultConfig())
	if err != nil {
		t.Fatalf("RunLShape: %v", err)
	}
	got := Candidate{X: res.Final.X, H: res.Final.H}
	if d := got.Dist(Candidate{X: x, H: h}); d > 1.0 {
		t.Errorf("L-shape estimate off by %.2f m: got (%.2f, %.2f) want (%.1f, %.1f)", d, got.X, got.H, x, h)
	}
	// Disambiguation must have picked the +h side, not the mirror.
	if res.Final.H < 0 {
		t.Errorf("picked the mirror solution: h = %.2f", res.Final.H)
	}
}

func TestNoisyRecoveryWithinMeters(t *testing.T) {
	// With realistic RSS noise (σ = 2.5 dB) the estimate should stay
	// within a couple of metres, matching the paper's accuracy band.
	src := rng.New(7)
	x, h := 5.0, 3.0
	obs := synthObs(x, h, -60, 2.5, lPath(5, 4, 0.15), 2.5, src)
	est, err := Run(obs, DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	d := math.Hypot(est.X-x, est.H-h)
	if d > 2.5 {
		t.Errorf("noisy estimate off by %.2f m (>2.5): (%.2f, %.2f)", d, est.X, est.H)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Run(nil, cfg); err == nil {
		t.Error("want error for empty observations")
	}
	// Too little movement.
	var obs []Obs
	for i := 0; i < 20; i++ {
		obs = append(obs, Obs{T: float64(i), RSS: -70, P: 0.001 * float64(i), Q: 0})
	}
	if _, err := Run(obs, cfg); err == nil {
		t.Error("want ErrInsufficientMotion for a static observer")
	}
}

func TestMovementPCA(t *testing.T) {
	// Pure x movement: major axis along x, minor ≈ 0.
	var obs []Obs
	for i := 0; i < 50; i++ {
		obs = append(obs, Obs{P: float64(i) * 0.1, Q: 0})
	}
	major, minor, dir := movementPCA(obs)
	if minor > 1e-9 {
		t.Errorf("minor = %g, want 0", minor)
	}
	if major < 1.0 {
		t.Errorf("major = %g, want > 1", major)
	}
	if math.Abs(math.Abs(dir[0])-1) > 1e-9 {
		t.Errorf("dir = %v, want ±x", dir)
	}
}

func TestEstimateConfidenceDropsWithModelMismatch(t *testing.T) {
	// Fit data generated from one environment, then evaluate residual
	// bias by mixing two environments in one trace: confidence should be
	// lower than for the clean trace.
	src := rng.New(3)
	clean := synthObs(4, 3, -59, 2.0, lPath(4, 4, 0.2), 0.5, src)
	estClean, err := Run(clean, DefaultConfig())
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	mixed := synthObs(4, 3, -59, 2.0, lPath(4, 4, 0.2), 0.5, src)
	// Second half from a very different channel (NLOS: extra 12 dB loss).
	for i := len(mixed) / 2; i < len(mixed); i++ {
		mixed[i].RSS -= 12
	}
	estMixed, err := Run(mixed, DefaultConfig())
	if err != nil {
		t.Fatalf("mixed: %v", err)
	}
	if estMixed.ResidualDB <= estClean.ResidualDB {
		t.Errorf("mixed-environment residual %.2f should exceed clean %.2f",
			estMixed.ResidualDB, estClean.ResidualDB)
	}
}

func TestRun3DExactRecovery(t *testing.T) {
	x, h, z := 3.0, 2.0, 1.2
	gamma, n := -59.0, 2.0
	var obs []Obs3D
	i := 0
	add := func(px, py, pz float64) {
		// Stationary target: relative displacement = −observer movement.
		p, q, r := -px, -py, -pz
		l := math.Sqrt((x+p)*(x+p) + (h+q)*(h+q) + (z+r)*(z+r))
		obs = append(obs, Obs3D{T: float64(i), RSS: gamma - 10*n*math.Log10(l), P: p, Q: q, R: r})
		i++
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
	est, err := Run3D(obs, DefaultConfig())
	if err != nil {
		t.Fatalf("Run3D: %v", err)
	}
	if math.Abs(est.X-x) > 0.3 || math.Abs(est.H-h) > 0.3 || math.Abs(est.Z-z) > 0.5 {
		t.Errorf("3-D estimate (%.2f, %.2f, %.2f), want (%.1f, %.1f, %.1f)",
			est.X, est.H, est.Z, x, h, z)
	}
}

// distToSegment returns the distance from point (px,py) to the segment
// (ax,ay)–(bx,by).
func distToSegment(px, py, ax, ay, bx, by float64) float64 {
	vx, vy := bx-ax, by-ay
	wx, wy := px-ax, py-ay
	c1 := vx*wx + vy*wy
	c2 := vx*vx + vy*vy
	t := 0.0
	if c2 > 0 {
		t = math.Max(0, math.Min(1, c1/c2))
	}
	return math.Hypot(px-(ax+t*vx), py-(ay+t*vy))
}

func TestCandidateDist(t *testing.T) {
	a := Candidate{X: 0, H: 0}
	b := Candidate{X: 3, H: 4}
	if d := a.Dist(b); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %g, want 5", d)
	}
}

// TestEstimateNearest: mirror resolution moves a copy to the candidate
// nearest the reference (the first of equally near ones) and leaves
// the receiver and every other field alone.
func TestEstimateNearest(t *testing.T) {
	e := &Estimate{
		X: 4, H: 3,
		Candidates: []Candidate{{X: 4, H: 3}, {X: 4, H: -3}},
		Gamma:      -60,
		Ambiguous:  true,
	}
	got := e.Nearest(Candidate{X: 5, H: -2})
	if got.X != 4 || got.H != -3 || got.Gamma != -60 || !got.Ambiguous || len(got.Candidates) != 2 {
		t.Errorf("Nearest(below) = %+v, want the copy moved to (4, -3)", got)
	}
	if e.X != 4 || e.H != 3 {
		t.Errorf("Nearest mutated its receiver: (%g, %g)", e.X, e.H)
	}
	if tie := e.Nearest(Candidate{X: 4, H: 0}); tie.H != 3 {
		t.Errorf("equidistant reference picked H = %g, want the first candidate", tie.H)
	}
}

// Property: for any target position and exponent, a noise-free L-shape
// regression recovers the position to within centimetres.
func TestPropertyExactRecoveryQuick(t *testing.T) {
	f := func(xq, hq, nq uint8) bool {
		x := 1.0 + float64(xq%80)/10 // 1.0 … 8.9 m
		h := 1.0 + float64(hq%80)/10
		n := 1.5 + float64(nq%25)/10 // 1.5 … 3.9
		// Skip targets closer than 0.5 m to the L path (0,0)→(4,0)→(4,4):
		// the log-distance model is singular at l = 0.
		distToPath := math.Min(distToSegment(x, h, 0, 0, 4, 0), distToSegment(x, h, 4, 0, 4, 4))
		if distToPath < 0.5 {
			return true
		}
		obs := synthObs(x, h, -60, n, lPath(4, 4, 0.25), 0, nil)
		est, err := Run(obs, DefaultConfig())
		if err != nil {
			return false
		}
		return math.Hypot(est.X-x, est.H-h) < 0.3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the estimate is invariant to a constant RSS offset within the
// physically plausible Γ band (device offsets fold into Γ, not position;
// offsets pushing Γ outside the band are intentionally penalized by the
// plausibility prior).
func TestPropertyOffsetInvariance(t *testing.T) {
	f := func(offQ uint8) bool {
		off := float64(offQ%20) - 10 // −10 … +9 dB
		base := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.25), 0, nil)
		shifted := make([]Obs, len(base))
		copy(shifted, base)
		for i := range shifted {
			shifted[i].RSS += off
		}
		e1, err1 := Run(base, DefaultConfig())
		e2, err2 := Run(shifted, DefaultConfig())
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Hypot(e1.X-e2.X, e1.H-e2.H) < 0.2 &&
			math.Abs((e2.Gamma-e1.Gamma)-off) < 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRangeAccessors(t *testing.T) {
	e := Estimate{X: 3, H: 4}
	if e.Range() != 5 {
		t.Errorf("Range = %g", e.Range())
	}
	e3 := Estimate3D{X: 1, H: 2, Z: 2}
	if e3.Range() != 3 {
		t.Errorf("3D Range = %g", e3.Range())
	}
}
