package pipebench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"locble/internal/netproto"
)

// Tolerances are the allowed fractional regressions per axis.
type Tolerances struct {
	// Wall bounds wall-clock growth (machine-dependent, so loose).
	Wall float64
	// Alloc bounds allocations-per-op growth.
	Alloc float64
	// Err bounds the growth of numbers that repeat exactly for a fixed
	// seed (error, frame size, solver work), so it can be tight; it is
	// nonzero only to absorb legitimate algorithm changes reflected in
	// a refreshed baseline late.
	Err float64
	// Dur bounds durable-store regressions — fsync throughput shortfall
	// and recovery wall growth. fsync cost varies wildly across
	// filesystems and container hosts, so this is the loosest axis.
	Dur float64
}

// DefaultTolerances returns the CI gate settings: 10 % wall, 10 %
// allocs, 5 % accuracy, 35 % durability (fsync-bound, machine-noisy).
func DefaultTolerances() Tolerances {
	return Tolerances{Wall: 0.10, Alloc: 0.10, Err: 0.05, Dur: 0.35}
}

// Which way a relative row's number regresses.
const (
	higher = 1
	lower  = -1
)

// A row is one check on the number at path in a report. A relative
// row (op empty) may be worse than the baseline's number at path, in
// the direction worse says, by the fraction tol of it or by slack,
// whichever is more. A fixed row holds the number to `op bound` on the
// report alone.
type row struct {
	path       []string
	worse      int
	tol, slack float64
	op         string // "==", ">=" or "<"
	bound      float64
	why        string // what a violation means
}

var ops = map[string]func(v, bound float64) bool{
	"==": func(v, b float64) bool { return v == b },
	">=": func(v, b float64) bool { return v >= b },
	"<":  func(v, b float64) bool { return v < b },
}

func keys(k ...string) []string { return k }

// rows is the gate at tolerances t. A path lists JSON keys from the
// report's root: a counter's name is one key, dots and all.
func rows(t Tolerances) []row {
	return []row{
		// LocateAll over the default scene: the paper's pipeline.
		{path: keys("wall_seconds"), worse: higher, tol: t.Wall},
		{path: keys("allocs_per_op"), worse: higher, tol: t.Alloc},
		{path: keys("estimate_error_m", "mean_m"), worse: higher, tol: t.Err},
		{path: keys("estimate_error_m", "p90_m"), worse: higher, tol: t.Err},
		{path: keys("located"), worse: lower, why: "fixes were lost"},
		// The solver's work over every section. Fixes repeat bit for
		// bit, so these counts do too, and a slower search shows in
		// them even when the wall time hides it.
		{path: keys("process_metrics", "counters", "estimate.runs"), worse: higher, tol: t.Err},
		{path: keys("process_metrics", "counters", "estimate.nm.calls"), worse: higher, tol: t.Err},
		{path: keys("process_metrics", "counters", "estimate.nm.iterations"), worse: higher, tol: t.Err},
		// The Huber-loss rerun. Its warmed inner fit allocates nothing.
		{path: keys("irls", "warm_fit_allocs_per_op"), op: "==", bound: 0, why: "the robust path lost its pooled arenas"},
		{path: keys("irls", "wall_seconds"), worse: higher, tol: t.Wall},
		{path: keys("irls", "allocs_per_op"), worse: higher, tol: t.Alloc},
		{path: keys("irls", "estimate_error_m", "mean_m"), worse: higher, tol: t.Err},
		{path: keys("irls", "estimate_error_m", "p90_m"), worse: higher, tol: t.Err},
		// Fleet ingest. Each push spreads its shards over free CPUs, so
		// even the min-of-3 wall is scheduler-noisy.
		{path: keys("fleet", "wall_seconds"), worse: higher, tol: 2 * t.Wall},
		{path: keys("fleet", "allocs_per_obs"), worse: higher, tol: t.Alloc},
		{path: keys("fleet", "fixes"), worse: lower, why: "fleet fixes were lost"},
		// The durable store. A clean shutdown leaves no damage.
		{path: keys("durability", "torn_tails"), op: "==", bound: 0, why: "the store corrupted its own log"},
		{path: keys("durability", "quarantined"), op: "==", bound: 0, why: "the store corrupted its own log"},
		{path: keys("durability", "sync_saves_per_second"), worse: lower, tol: t.Dur},
		{path: keys("durability", "group_saves_per_second"), worse: lower, tol: t.Dur},
		{path: keys("durability", "recovery_wall_seconds"), worse: higher, tol: t.Dur},
		{path: keys("durability", "recovered"), worse: lower, why: "checkpoints were lost"},
		// The 3-node cluster: pure transport over a planned drain, so no
		// fix is lost and none degrades; its walls run three fleets. The
		// drain takes milliseconds, where a percentage measures scheduler
		// noise, so it may also grow by 50 ms.
		{path: keys("router", "fixes_lost"), op: "==", bound: 0, why: "the drain/handoff dropped acknowledged fixes"},
		{path: keys("router", "degraded"), op: "==", bound: 0, why: "results degraded in a cluster where nothing died"},
		{path: keys("router", "drained_sessions"), op: ">=", bound: 1, why: "the drain checkpointed none of the drained node's beacons"},
		{path: keys("router", "routed_wall_seconds"), worse: higher, tol: 2 * t.Wall},
		{path: keys("router", "single_wall_seconds"), worse: higher, tol: 2 * t.Wall},
		{path: keys("router", "drain_wall_seconds"), worse: higher, tol: t.Dur, slack: 0.05},
		{path: keys("router", "fixes"), worse: lower, why: "routed fixes were lost"},
		// The binary codec against a JSON push: a binary codec that
		// merely matches JSON has lost its reason to exist, so the
		// ratios are floors. Frame size is deterministic; throughput is
		// wall time, and its MemStats probes make it noisier than a
		// plain loop.
		{path: keys("wire", "speedup_x"), op: ">=", bound: 2, why: netproto.CodecBinary + " no longer beats JSON 2x on round-trip throughput"},
		{path: keys("wire", "alloc_ratio_x"), op: ">=", bound: 5, why: netproto.CodecBinary + " lost its allocs/frame advantage over JSON"},
		{path: keys("wire", "binary", "encode_allocs_per_frame"), op: "<", bound: 1, why: "the binary encoder stopped reusing its buffer"},
		{path: keys("wire", "binary", "frames_per_second"), worse: lower, tol: 2 * t.Wall},
		{path: keys("wire", "binary", "bytes_per_obs"), worse: higher, tol: t.Err},
	}
}

// limit is the worst number a relative row passes against baseline b.
func (r row) limit(b float64) float64 {
	return b + float64(r.worse)*math.Max(b*r.tol, r.slack)
}

// Doc is a benchmark report as decoded JSON: the gate reads a fresh
// report and a committed baseline alike, by path.
type Doc map[string]any

// Load reads a report written by Report.WriteFile.
func Load(path string) (Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if w, _, _ := d.find(keys("wall_seconds")); w <= 0 {
		return nil, fmt.Errorf("%s: missing wall_seconds", path)
	}
	return d, nil
}

// find returns the number at path in d. When d lacks it, n is the
// length of the shortest prefix of path that d lacks.
func (d Doc) find(path []string) (v float64, n int, ok bool) {
	var node any = map[string]any(d)
	for i, k := range path {
		m, _ := node.(map[string]any)
		if node = m[k]; node == nil {
			return 0, i + 1, false
		}
	}
	v, ok = node.(float64)
	return v, len(path), ok
}

// Gate checks a fresh report against a baseline, row by row, and
// returns the violations (none means the gate passes). A relative row
// is disarmed where the baseline lacks its number or reads ≤ 0, so an
// older baseline never fails a newer report. A number the baseline has
// and the report lacks fails as dropped, once for the outermost key
// the report lacks.
func Gate(got, base Doc, tol Tolerances) (violations []string) {
	dropped := map[string]bool{}
	for _, r := range rows(tol) {
		name, why := strings.Join(r.path, "."), ""
		if r.why != "" {
			why = " — " + r.why
		}
		b, _, inBase := base.find(r.path)
		g, n, inGot := got.find(r.path)
		switch {
		case !inGot:
			if gone := strings.Join(r.path[:n], "."); inBase && !dropped[gone] {
				dropped[gone] = true
				violations = append(violations, gone+" dropped: the baseline has it, the report does not")
			}
		case r.op != "":
			if !ops[r.op](g, r.bound) {
				violations = append(violations, fmt.Sprintf("%s = %.4g, want %s %g%s", name, g, r.op, r.bound, why))
			}
		case inBase && b > 0:
			if lim := r.limit(b); float64(r.worse)*(g-lim) > 0 {
				violations = append(violations, fmt.Sprintf("%s regressed: %.4g vs baseline %.4g, limit %.4g%s", name, g, b, lim, why))
			}
		}
	}
	return violations
}
