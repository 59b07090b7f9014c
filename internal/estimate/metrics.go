package estimate

import "locble/internal/obs"

// Package-level instrumentation, recorded into obs.Default: the
// estimator is a pure library, so its metrics are process-wide rather
// than engine-scoped. One or two atomic operations per regression — the
// per-sample inner loops (the closed-form fit behind every objective and
// gradient evaluation) are deliberately untouched.
var (
	// metRuns / metFailures count RunSegmented outcomes; metCanceled
	// counts runs cut short by Config.Cancel (caller deadline or
	// disconnect), which are not estimator failures.
	metRuns     = obs.Default.Counter("estimate.runs")
	metFailures = obs.Default.Counter("estimate.failures")
	metCanceled = obs.Default.Counter("estimate.canceled")
	// metAmbiguous counts collinear fits that returned mirror candidates.
	metAmbiguous = obs.Default.Counter("estimate.ambiguous")
	// metSearches / metSearchIters count local position searches (each
	// seed's short pass and each polish) and the trust-region iterations
	// they spent (iterations ÷ searches = mean search depth). The "nm"
	// names come from the Nelder–Mead search they were made for; they
	// stay because perfbench's traced run looks both up by name and
	// exits if either is missing.
	metSearches    = obs.Default.Counter("estimate.nm.calls")
	metSearchIters = obs.Default.Counter("estimate.nm.iterations")
	// metResidualDB is the distribution of fit RMS residuals (dB).
	metResidualDB = obs.Default.Histogram("estimate.residual_db",
		[]float64{0.5, 1, 2, 4, 8, 16})
	// metIRLSRuns counts regressions run under a robust loss;
	// metIRLSDownweighted totals the observations those runs pushed below
	// the down-weight threshold (down-weighted ÷ runs = mean hostile
	// samples per fix).
	metIRLSRuns         = obs.Default.Counter("estimate.irls.runs")
	metIRLSDownweighted = obs.Default.Counter("estimate.irls.downweighted")
	// L-shape disambiguation outcomes: how the resolver concluded.
	metLShapeRuns     = obs.Default.Counter("estimate.lshape.runs")
	metLShapeResolved = obs.Default.Counter("estimate.lshape.resolved")
	metLShapeFallback = obs.Default.Counter("estimate.lshape.fallback")
	metLShapeFailed   = obs.Default.Counter("estimate.lshape.failed")
)
