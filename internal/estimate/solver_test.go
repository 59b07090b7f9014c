package estimate

import (
	"testing"

	"locble/internal/rng"
)

// TestSolverMatchesPackageRun pins the wrapper contract: a dedicated
// Solver and the pooled package entry points produce identical
// estimates for the same input.
func TestSolverMatchesPackageRun(t *testing.T) {
	obs := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	cfg := DefaultConfig()

	want, err := Run(obs, cfg)
	if err != nil {
		t.Fatalf("package Run: %v", err)
	}
	s := NewSolver()
	got, err := s.Run(obs, cfg)
	if err != nil {
		t.Fatalf("Solver.Run: %v", err)
	}
	if got.X != want.X || got.H != want.H || got.N != want.N ||
		got.Gamma != want.Gamma || got.ResidualDB != want.ResidualDB {
		t.Fatalf("Solver.Run = (%v,%v n=%v Γ=%v r=%v), package Run = (%v,%v n=%v Γ=%v r=%v)",
			got.X, got.H, got.N, got.Gamma, got.ResidualDB,
			want.X, want.H, want.N, want.Gamma, want.ResidualDB)
	}
}

// TestSolverReuseIsStateless pins the arena hygiene: interleaving runs
// over different inputs on one Solver must not change any run's result
// (a stale arena value leaking across runs would).
func TestSolverReuseIsStateless(t *testing.T) {
	obsA := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	obsB := synthObs(2.0, 6, -58, 2.8, lPath(3, 5, 0.2), 2.5, rng.New(9))
	cfg := DefaultConfig()

	s := NewSolver()
	first, err := s.Run(obsA, cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := s.Run(obsB, cfg); err != nil {
		t.Fatalf("interleaved run: %v", err)
	}
	again, err := s.Run(obsA, cfg)
	if err != nil {
		t.Fatalf("repeat run: %v", err)
	}
	if first.X != again.X || first.H != again.H || first.N != again.N ||
		first.Gamma != again.Gamma || first.ResidualDB != again.ResidualDB {
		t.Fatalf("solver reuse drifted: first (%v,%v n=%v Γ=%v r=%v), repeat (%v,%v n=%v Γ=%v r=%v)",
			first.X, first.H, first.N, first.Gamma, first.ResidualDB,
			again.X, again.H, again.N, again.Gamma, again.ResidualDB)
	}
}

// TestSolverInnerLoopZeroAlloc pins the solver's headline property:
// once the arenas are warm, the search's inner loop — the closed-form
// (n, Γ) fit with its gradient, run per objective evaluation, and a
// whole trust-region search — performs zero heap allocations.
func TestSolverInnerLoopZeroAlloc(t *testing.T) {
	obs := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	cfg := DefaultConfig()
	s := NewSolver()
	if _, err := s.Run(obs, cfg); err != nil { // warm every arena
		t.Fatalf("warm-up run: %v", err)
	}

	var g vec
	if n := testing.AllocsPerRun(100, func() {
		s.segEval(obs, &cfg, 3, 1, true, &g)
	}); n != 0 {
		t.Errorf("segEval allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { localSearch(s, obs, cfg, 3, 1) }); n != 0 {
		t.Errorf("a local search allocates %v per call, want 0", n)
	}
	// A whole run allocates only what it returns: the Estimate and its
	// Candidates (the elliptical initializers solve in fixed-size storage).
	if n := testing.AllocsPerRun(20, func() { s.Run(obs, cfg) }); n != 2 {
		t.Errorf("a warm planar Run allocates %v per call, want 2", n)
	}
	obs3 := synth3D(3, 2, 1.2, -59, 2.0, 1.0, rng.New(8))
	s.Run3D(obs3, cfg)
	if n := testing.AllocsPerRun(5, func() { s.Run3D(obs3, cfg) }); n != 1 {
		t.Errorf("a warm Run3D allocates %v per call, want 1", n)
	}
}

// localSearch runs one planar trust-region search from (x, h) to
// convergence, as a polish does, and returns its endpoint.
func localSearch(s *Solver, obs []Obs, cfg Config, x, h float64) trState {
	setObjective(s, searchPlanar, obs, nil, cfg, [2]float64{1, 0})
	defer s.clearObjective()
	st := trState{x: vec{x, h}}
	var g vec
	s.start(&st, &g)
	s.search(&st, &g, polishIters)
	return st
}

// BenchmarkSolverRun measures a dedicated Solver's full planar fit
// (allocations here are only the returned Estimate and its Candidates —
// the initializers and the search are allocation-free).
func BenchmarkSolverRun(b *testing.B) {
	obs := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	cfg := DefaultConfig()
	s := NewSolver()
	if _, err := s.Run(obs, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(obs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverSearch isolates one local trust-region search on warm
// arenas (must report 0 allocs/op).
func BenchmarkSolverSearch(b *testing.B) {
	obs := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	cfg := DefaultConfig()
	s := NewSolver()
	localSearch(s, obs, cfg, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localSearch(s, obs, cfg, 3, 1)
	}
}
