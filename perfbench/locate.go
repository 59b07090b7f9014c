package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"locble/internal/core"
	"locble/internal/imu"
	"locble/internal/obs"
	"locble/internal/rng"
	"locble/internal/sim"
)

// genLocate pre-simulates n paper walks from the seed: the three beacons
// seen from a two-leg L-walk, the environment cycling through the nine
// Table 1 presets. A walk in which some beacon's reports have a gap
// longer than the sanitizer tolerates is drawn again, so every input is
// clean and no op is expected to fail. Trace i depends only on the seed
// and on the traces before it.
func genLocate(ls locateSpec, seed int64, n int) ([]*sim.Trace, error) {
	beacons := make([]sim.BeaconSpec, len(ls.Beacons))
	for i, b := range ls.Beacons {
		beacons[i] = sim.BeaconSpec{Name: b.Name, X: b.X, Y: b.Y}
	}
	presets := sim.Presets()
	maxGap := core.DefaultSanitizeConfig().MaxGap
	src := rng.New(seed)
	var out []*sim.Trace
	for draw := 0; len(out) < n; draw++ {
		if draw >= 4*n {
			return nil, fmt.Errorf("locate inputs: only %d of %d walks free of report gaps", len(out), n)
		}
		p := presets[len(out)%len(presets)]
		tr, err := sim.Run(sim.Scenario{
			Beacons:      beacons,
			ObserverPlan: imu.Plan{Segments: imu.LShape(0, ls.LegsM[0], ls.LegsM[1])},
			EnvModel:     p.EnvModelFor(src),
			Seed:         seed*1_000_003 + int64(draw),
		})
		if err != nil {
			return nil, err
		}
		if reportGap(tr, beacons) <= maxGap {
			out = append(out, tr)
		}
	}
	return out, nil
}

// reportGap is the longest time between two reports of any beacon (+Inf
// when a beacon was never seen).
func reportGap(tr *sim.Trace, beacons []sim.BeaconSpec) float64 {
	worst := 0.0
	for _, b := range beacons {
		o := tr.Observations[b.Name]
		if len(o) == 0 {
			return math.Inf(1)
		}
		for i := 1; i < len(o); i++ {
			worst = math.Max(worst, o[i].T-o[i-1].T)
		}
	}
	return worst
}

// locator runs LocateAll over the pre-simulated walks in a cycle and
// checks every answer. The first pass over the walks records each fix;
// every later pass must reproduce it bit for bit. Its records are sized
// for every walk up front, so they are part of the inputs, not of the
// heap the timed phase grows.
type locator struct {
	eng     *core.Engine // set once the engine is built
	ls      locateSpec
	traces  []*sim.Trace
	callers int // concurrent callers; caller g's k-th op takes walk k·callers+g
	o       *outcome

	mu      sync.Mutex   // guards the records below
	fixes   [][2]float64 // [trace·beacons + beacon] fix of the first pass
	seen    []bool       // walks the first pass has located
	errs    []float64    // fix errors of the first pass
	unclean int
}

func newLocator(ls locateSpec, traces []*sim.Trace, callers int, o *outcome) *locator {
	n := len(traces) * len(ls.Beacons)
	return &locator{
		ls: ls, traces: traces, callers: callers, o: o,
		fixes: make([][2]float64, n), seen: make([]bool, len(traces)), errs: make([]float64, 0, n),
	}
}

// op is caller g's k-th LocateAll; together the callers take the walks in
// order. An op fails when a beacon is missing, has an error, is degraded
// or came from a fallback rung.
func (l *locator) op(g, k int) error {
	i := (k*l.callers + g) % len(l.traces)
	return l.check(i, l.eng.LocateAll(l.traces[i]))
}

func (l *locator) check(i int, res []core.BeaconResult) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := !l.seen[i]
	l.seen[i] = true
	var failed error
	if len(res) != len(l.ls.Beacons) {
		failed = fmt.Errorf("trace %d: %d of %d beacons located", i, len(res), len(l.ls.Beacons))
	}
	for bi, b := range l.ls.Beacons {
		if bi >= len(res) || res[bi].Name != b.Name || res[bi].Err != nil || res[bi].M == nil {
			failed = fmt.Errorf("trace %d: beacon %s not located", i, b.Name)
			continue
		}
		m := res[bi].M
		if m.Health.Status != core.HealthOK || m.Mode != core.ModeFull {
			failed = fmt.Errorf("trace %d: beacon %s %v via %v", i, b.Name, m.Health, m.Mode)
		}
		fix := [2]float64{m.Est.X, m.Est.H}
		if math.IsNaN(fix[0]) || math.IsNaN(fix[1]) || math.IsInf(fix[0], 0) || math.IsInf(fix[1], 0) {
			l.o.problem("locate trace %d beacon %s: non-finite fix (%v, %v)", i, b.Name, fix[0], fix[1])
			continue
		}
		k := i*len(l.ls.Beacons) + bi
		if first {
			l.fixes[k] = fix
			l.errs = append(l.errs, math.Hypot(fix[0]-b.X, fix[1]-b.Y))
		} else if l.fixes[k] != fix {
			l.o.problem("locate trace %d beacon %s: fix %v differs from the first pass %v", i, b.Name, fix, l.fixes[k])
		}
	}
	if failed != nil {
		l.unclean++
		l.o.failure(failed)
	}
	return failed
}

// finishFirstPass locates, untimed, the walks the timed phases did not
// reach, so the error metrics always cover every walk.
func (l *locator) finishFirstPass() {
	for i, seen := range l.seen {
		if !seen {
			l.check(i, l.eng.LocateAll(l.traces[i]))
		}
	}
}

// extend adds, after timing, the walks beyond the timed cycle up to
// ls.Traces, so the error metrics cover them all while the timed phases
// keep only the cycle live.
func (l *locator) extend(seed int64) error {
	all, err := genLocate(l.ls, seed, l.ls.Traces)
	if err != nil {
		return err
	}
	more := len(all) - len(l.traces)
	l.traces = all
	l.fixes = append(l.fixes, make([][2]float64, more*len(l.ls.Beacons))...)
	l.seen = append(l.seen, make([]bool, more)...)
	return nil
}

// digest hashes the first-pass fixes of the first n walks.
func (l *locator) digest(n int) string {
	h := fnv.New64a()
	for _, xy := range l.fixes[:n*len(l.ls.Beacons)] {
		fmt.Fprintf(h, "%x,%x;", math.Float64bits(xy[0]), math.Float64bits(xy[1]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// locateProbe is one setup probe: time an engine build in a fresh
// process, then fingerprint the first walks' fixes.
func locateProbe(rc runConfig) (probeResult, error) {
	t0 := time.Now()
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		return probeResult{}, err
	}
	setup := time.Since(t0).Seconds()
	defer eng.Close()
	ls := rc.Spec.Locate
	traces, err := genLocate(ls, rc.Seed, ls.CheckTraces)
	if err != nil {
		return probeResult{}, err
	}
	var o outcome
	l := newLocator(ls, traces, 1, &o)
	l.eng = eng
	l.finishFirstPass()
	return probeResult{SetupS: setup, Digest: l.digest(ls.CheckTraces)}, nil
}

// runLocate is the paper's app path, LocateAll per walk, with one caller
// per GOMAXPROCS. A lone caller leaves a CPU idle for part of every call
// (three beacons fan out to GOMAXPROCS shard workers), so its rate would
// follow how fast the host wakes an idle virtual CPU and how busy each
// CPU's neighbours are; callers that keep every CPU busy, like serve's
// gateways, average that out.
func runLocate(rc runConfig) (*outcome, error) {
	ls := rc.Spec.Locate
	o := &outcome{record: map[string]any{}}
	probes, err := runProbes(rc, rc.Spec.SetupProbes-1)
	if err != nil {
		return nil, err
	}
	traces, err := genLocate(ls, rc.Seed, ls.CycleTraces)
	if err != nil {
		return nil, err
	}
	pp := phasePlan{Gateways: runtime.GOMAXPROCS(0), OpenRate: ls.OpenRate}
	l := newLocator(ls, traces, pp.Gateways, o)
	u := reserveRun(rc, pp.Gateways, ls.ClosedOpsS)
	t0 := time.Now()
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(t0).Seconds()}
	defer eng.Close()
	l.eng = eng
	if rc.Trace {
		lt, err := newLocateTracer(eng)
		if err != nil {
			return nil, err
		}
		if _, err := measureTraced(rc, pp, l.op, lt, nil, o); err != nil {
			return nil, err
		}
		lt.metrics(o)
	} else if err := measureEndToEnd(rc, pp, u, l.op, o); err != nil {
		return nil, err
	}
	if err := l.extend(rc.Seed); err != nil {
		return nil, err
	}
	l.finishFirstPass()
	for _, p := range probes {
		setups = append(setups, p.SetupS)
		if d := l.digest(ls.CheckTraces); p.Digest != d {
			o.problem("locate fixes differ across processes: digest %s here, %s in a fresh process", d, p.Digest)
		}
	}
	if !rc.Trace {
		o.metric("setup_s", "s", medianOf(setups))
		errMetrics(o, l.errs)
	}
	o.record["setup_s"] = setups
	o.record["traces"] = len(l.traces)
	o.record["cycle_traces"] = len(traces)
	o.record["fixes"] = len(l.errs)
	o.record["failed_ops"] = l.unclean
	return o, nil
}

// errMetrics adds the fix-error metrics.
func errMetrics(o *outcome, errs []float64) {
	s := sortedCopy(errs)
	p90, err := quantileOf(s, 0.9)
	if err != nil {
		o.problem("fix errors: %v", err)
	}
	o.metric("err_mean_m", "m", mean(s))
	o.metric("err_p90_m", "m", p90.Value)
}

// locateTracer reads the engine's stage timers and the process-wide
// estimator counters around each LocateAll.
type locateTracer struct {
	stages [5]*obs.Histogram // sanitize, motion, filter, classify, regress
	locate *obs.Histogram
	est    estimateCounters

	prevStages [5]timerReading
	prevLocate timerReading
	prevEst    estimateReading

	sumStages [5]float64
	sumLocate float64
	estSum    estimateReading
	ops       int
}

var stageNames = [5]string{"sanitize", "motion", "filter", "classify", "regress"}

func newLocateTracer(eng *core.Engine) (*locateTracer, error) {
	t := &locateTracer{}
	reg := eng.MetricsRegistry()
	for i, s := range stageNames {
		h, err := histHandle(reg, "core.stage."+s+".seconds")
		if err != nil {
			return nil, err
		}
		t.stages[i] = h
	}
	h, err := histHandle(reg, "core.locate.seconds")
	if err != nil {
		return nil, err
	}
	t.locate = h
	if t.est, err = newEstimateCounters(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *locateTracer) start() {
	for i, h := range t.stages {
		t.prevStages[i] = readTimer(h)
	}
	t.prevLocate = readTimer(t.locate)
	t.prevEst = t.est.read()
}

func (t *locateTracer) afterOp(float64) {
	for i, h := range t.stages {
		r := readTimer(h)
		t.sumStages[i] += r.sub(t.prevStages[i]).Sum
		t.prevStages[i] = r
	}
	r := readTimer(t.locate)
	t.sumLocate += r.sub(t.prevLocate).Sum
	t.prevLocate = r
	e := t.est.read()
	t.estSum = t.estSum.add(e.sub(t.prevEst))
	t.prevEst = e
	t.ops++
}

func (t *locateTracer) stop() {}

func (t *locateTracer) metrics(o *outcome) {
	ops := float64(max(t.ops, 1))
	covered := 0.0
	for i, s := range stageNames {
		o.metric("core."+s+"_us", "us", t.sumStages[i]/ops*1e6)
		covered += t.sumStages[i]
	}
	o.metric("core.regress_share", "ratio", safeDiv(t.sumStages[4], t.sumLocate))
	o.metric("trace.unaccounted_frac", "ratio", 1-safeDiv(covered, t.sumLocate))
	t.estSum.metrics(o, t.ops)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
