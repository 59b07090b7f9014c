package estimate

import (
	"errors"
	"testing"

	"locble/internal/rng"
)

// TestCancelMidSearch cancels planar, collinear and 3-D runs at every
// Config.Cancel poll they make — between seeds and inside the
// trust-region iterations — and requires each to stop with ErrCanceled,
// no estimate, and one count in estimate.canceled.
func TestCancelMidSearch(t *testing.T) {
	var line [][2]float64
	for d := 0.0; d <= 6; d += 0.15 {
		line = append(line, [2]float64{d, 0})
	}
	planar := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	collinear := synthObs(4, 2.5, -60, 2.0, line, 2.0, rng.New(2))
	obs3 := synth3D(3, 2, 1.2, -59, 2.0, 1.0, rng.New(8))
	cases := []struct {
		name string
		run  func(cfg Config) (bool, error) // reports whether an estimate came back
	}{
		{"planar", func(cfg Config) (bool, error) { e, err := Run(planar, cfg); return e != nil, err }},
		{"collinear", func(cfg Config) (bool, error) { e, err := Run(collinear, cfg); return e != nil, err }},
		{"3d", func(cfg Config) (bool, error) { e, err := Run3D(obs3, cfg); return e != nil, err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Count the polls of an uncanceled run, and how many of them
			// fall inside searches: every search iteration past the first
			// pollEvery is preceded by one.
			polls := 0
			cfg := DefaultConfig()
			cfg.Cancel = func() bool { polls++; return false }
			iters0 := metSearchIters.Value()
			if ok, err := c.run(cfg); err != nil || !ok {
				t.Fatalf("uncanceled run: estimate %v, err %v", ok, err)
			}
			if metSearchIters.Value()-iters0 <= pollEvery {
				t.Fatalf("run spent too few iterations to poll mid-search")
			}
			for k := 1; k <= polls; k++ {
				n := 0
				cfg.Cancel = func() bool { n++; return n >= k }
				canceled0 := metCanceled.Value()
				ok, err := c.run(cfg)
				if !errors.Is(err, ErrCanceled) || ok {
					t.Fatalf("canceled at poll %d of %d: estimate %v, err %v; want no estimate and ErrCanceled", k, polls, ok, err)
				}
				if d := metCanceled.Value() - canceled0; d != 1 {
					t.Fatalf("canceled at poll %d of %d: estimate.canceled rose by %d, want 1", k, polls, d)
				}
			}
		})
	}
}

// TestSearchPollsCancel pins the in-search poll: a local search asks
// Config.Cancel every pollEvery iterations and stops at the first true
// answer, having spent exactly pollEvery iterations.
func TestSearchPollsCancel(t *testing.T) {
	obs := synthObs(5.5, 2, -60, 2.2, lPath(4, 4, 0.15), 2.0, rng.New(1))
	cfg := DefaultConfig()
	polls := 0
	cfg.Cancel = func() bool { polls++; return true }
	s := NewSolver()
	setObjective(s, searchPlanar, obs, nil, cfg, [2]float64{1, 0})
	st := trState{x: vec{-8, 9}} // far from the target: no early convergence
	var g vec
	s.start(&st, &g)
	iters0 := metSearchIters.Value()
	if s.search(&st, &g, polishIters) {
		t.Fatalf("search ignored cancellation (%d polls)", polls)
	}
	if polls != 1 {
		t.Errorf("search polled %d times before stopping, want 1", polls)
	}
	if d := metSearchIters.Value() - iters0; d != pollEvery {
		t.Errorf("search spent %d iterations before its first poll, want %d", d, pollEvery)
	}
}
