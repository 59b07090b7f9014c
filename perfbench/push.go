package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locble/internal/core"
	"locble/internal/durable"
	"locble/internal/estimate"
	"locble/internal/fleet"
	"locble/internal/netproto"
	"locble/internal/router"
)

// pushBeacon is one tracked beacon of the serve or churn population,
// owned by exactly one gateway.
type pushBeacon struct {
	name  string
	phase float64 // fleet.SynthStream's phase: it fixes the position
	x, y  float64 // true position
	// stream holds whole laps of the beacon's serve observations, which
	// serveObs repeats without end, or the burst every churn push repeats
	// at a later time.
	stream []fleet.Obs
	pushes int    // pushes sent so far
	served int    // fixes served so far
	digest uint64 // fixDigest of the fixes served so far, in order
}

// gateway is one load-generator client: it cycles through its beacon
// pairs, one push per pair, and keeps its own observation clock.
type gateway struct {
	pairs [][2]*pushBeacon
	k     int     // pushes issued
	clock float64 // churn: observation time of the next burst
	buf   []fleet.Obs
}

// synthLap is how many observations fleet.SynthStream takes for its
// observer to walk once around its 36-m square at 0.8 m/s, sampled at
// 8 Hz. A stream of whole laps, repeated later in time, continues the
// walk without a jump.
const synthLap = 360

// pushWorkload drives serve or churn through the router.
type pushWorkload struct {
	cs    clusterSpec
	churn bool
	c     *cluster
	gws   []*gateway
	o     *outcome

	notRestored atomic.Int64 // churn reappearances that were not restores
	degraded    atomic.Int64
	quarantined atomic.Int64
	exchangeErr atomic.Int64
	fallback    atomic.Int64 // served fixes from a fallback rung
}

// genPushBeacons builds the population. Names and pairs are fixed, so
// with the cluster's fixed ports every run places beacons on the same
// nodes and shards. The seed draws the offset of the stream phases,
// which sit evenly around fleet.SynthStream's orbit, and deals them to
// beacons; even spacing keeps the mean fix error nearly independent of
// the seed.
func genPushBeacons(cs clusterSpec, seed int64, gateways int) []*gateway {
	n := cs.BeaconsPerGateway * gateways
	src := rand.New(rand.NewSource(seed))
	offset := src.Float64()
	// Each block of ErrBeacons beacons sits on its own even grid, shifted
	// a fraction of a step from the previous block's, so the first block
	// (the one the error metrics replay) spans the whole orbit.
	block := min(cs.ErrBeacons, n)
	blocks := float64((n + block - 1) / block)
	perm := src.Perm(block)
	laps := (cs.ErrPushes*cs.PushObs + synthLap - 1) / synthLap
	all := make([]*pushBeacon, n)
	for i := range all {
		grid := float64(perm[i%block]) + offset + float64(i/block)/blocks
		phase := 2 * math.Pi * grid / float64(block)
		name := fmt.Sprintf("b%06d", i)
		b := &pushBeacon{name: name, phase: phase, x: 4 + 3*math.Sin(phase), y: 3 + 2*math.Cos(phase), digest: fnvOffset}
		if cs.GapS > 0 {
			b.stream = fleet.SynthStream(name, cs.PushObs, phase)
		} else {
			b.stream = fleet.SynthStream(name, laps*synthLap, phase)
		}
		all[i] = b
	}
	gws := make([]*gateway, gateways)
	for g := range gws {
		gw := &gateway{}
		mine := all[g*cs.BeaconsPerGateway : (g+1)*cs.BeaconsPerGateway]
		for i := 0; i+1 < len(mine); i += 2 {
			gw.pairs = append(gw.pairs, [2]*pushBeacon{mine[i], mine[i+1]})
		}
		gws[g] = gw
	}
	return gws
}

// op sends gateway g's next push: one pair's next slice (serve) or its
// next burst (churn).
func (w *pushWorkload) op(g, _ int) error {
	gw := w.gws[g]
	pair := gw.pairs[gw.k%len(gw.pairs)]
	gw.k++
	batch := gw.buf[:0]
	for _, b := range pair {
		if w.churn {
			for i, o := range b.stream {
				o.T = gw.clock + float64(i)/w.cs.RateHz
				batch = append(batch, o)
			}
			continue
		}
		lo := b.pushes * w.cs.PushObs
		batch = w.serveObs(batch, b, lo, lo+w.cs.PushObs)
	}
	gw.clock += w.cs.GapS
	gw.buf = batch
	res, err := w.c.rt.PushBatch(context.Background(), batch)
	if err != nil {
		w.exchangeErr.Add(1)
		return err
	}
	return w.check(pair, res)
}

// check validates one push's results and files the fixes. A push fails
// when a beacon has an error, is degraded, or (serve) did not get
// exactly one fix after warm-up and none before. A fix from a fallback
// rung still counts as a fix; the error metrics judge it.
func (w *pushWorkload) check(pair [2]*pushBeacon, res []router.Result) error {
	if len(res) != len(pair) {
		return fmt.Errorf("push: %d results for %d beacons", len(res), len(pair))
	}
	var failed error
	for i, b := range pair {
		r := res[i]
		j := b.pushes
		b.pushes++
		switch {
		case r.Beacon != b.name:
			failed = fmt.Errorf("push: result for %q, want %q", r.Beacon, b.name)
			continue
		case r.Err != nil:
			failed = r.Err
		case r.Degraded:
			w.degraded.Add(1)
			failed = fmt.Errorf("%s: degraded (%s)", b.name, r.DegradedReason)
		}
		if r.Quarantined {
			w.quarantined.Add(1)
		}
		for _, f := range r.Fixes {
			b.served++
			b.digest = fixDigest(b.digest, f)
		}
		if w.churn {
			if j > 0 && (!r.Restored || r.Created) {
				w.notRestored.Add(1)
			}
			continue
		}
		want := 1
		if j < w.cs.WarmupPushes {
			want = 0
		}
		if len(r.Fixes) != want {
			failed = fmt.Errorf("%s push %d: %d fixes, want %d", b.name, j, len(r.Fixes), want)
		}
		for _, f := range r.Fixes {
			if f.Mode != core.ModeFull.String() {
				w.fallback.Add(1)
			}
		}
	}
	if failed != nil {
		w.o.failure(failed)
	}
	return failed
}

// serveObs appends observations [lo, hi) of b's unending serve stream to
// dst: b.stream repeated, each repeat shifted by the time b.stream spans,
// so the observer keeps walking its loop and time keeps rising however
// many pushes a run makes.
func (w *pushWorkload) serveObs(dst []fleet.Obs, b *pushBeacon, lo, hi int) []fleet.Obs {
	n := len(b.stream)
	span := float64(n) / w.cs.RateHz
	for j := lo; j < hi; j++ {
		o := b.stream[j%n]
		o.T += float64(j/n) * span
		dst = append(dst, o)
	}
	return dst
}

// warmUp pushes every pair WarmupPushes times, gateways in parallel,
// before anything is timed.
func (w *pushWorkload) warmUp() error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.gws))
	for g, gw := range w.gws {
		wg.Add(1)
		go func(g int, gw *gateway) {
			defer wg.Done()
			for i := 0; i < w.cs.WarmupPushes*len(gw.pairs); i++ {
				if err := w.op(g, i); err != nil {
					errs[g] = fmt.Errorf("warm-up: %w", err)
					return
				}
			}
		}(g, gw)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// replay feeds obs through one fresh local TrackSession — the
// sequential reference the served fixes must equal bit for bit.
func replay(eng *core.Engine, cs clusterSpec, name string, obs []fleet.Obs) ([]netproto.PushFix, error) {
	s, err := eng.NewTrackSession(core.TrackSessionConfig{Beacon: name, SampleRateHz: cs.RateHz})
	if err != nil {
		return nil, err
	}
	var out []netproto.PushFix
	for _, o := range obs {
		pt, err := s.Push(estimate.Obs{T: o.T, RSS: o.RSS, P: o.P, Q: o.Q})
		if err != nil {
			return nil, err
		}
		if pt != nil {
			out = append(out, netproto.PushFix{
				T: pt.T, X: pt.Est.X, Y: pt.Est.H, N: pt.Est.N, Gamma: pt.Est.Gamma,
				Confidence: pt.Est.Confidence, Mode: pt.Mode.String(), Samples: pt.Samples,
			})
		}
	}
	return out, nil
}

// oracleBeacons are the beacons the oracle replays: every serve beacon
// (its served fixes are checked), and churn's first ErrBeacons, whose
// continuous tracking gives churn's error metrics.
func (w *pushWorkload) oracleBeacons() []*pushBeacon {
	var out []*pushBeacon
	for _, gw := range w.gws {
		for _, p := range gw.pairs {
			out = append(out, p[0], p[1])
		}
	}
	if w.churn && len(out) > w.cs.ErrBeacons {
		out = out[:w.cs.ErrBeacons]
	}
	return out
}

// errStream is the stream whose first ErrPushes slices give a beacon's
// error metrics.
func (w *pushWorkload) errStream(b *pushBeacon) []fleet.Obs {
	n := w.cs.ErrPushes * w.cs.PushObs
	if !w.churn {
		return w.serveObs(nil, b, 0, n)
	}
	return fleet.SynthStream(b.name, n, b.phase)
}

// oracle replays every beacon on a fresh engine, in parallel: serve's
// served fixes must equal the replay bit for bit; the first ErrPushes
// slices give the fix errors. It returns the errors and the digest of
// the first two beacons' replays.
func (w *pushWorkload) oracle() ([]float64, string, error) {
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		return nil, "", err
	}
	defer eng.Close()
	beacons := w.oracleBeacons()
	errsBy := make([][]float64, len(beacons))
	digests := make([]string, len(beacons))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := range jobs {
				e, d, err := w.oracleOne(eng, beacons[bi])
				if err != nil {
					mu.Lock()
					firstErr = errors.Join(firstErr, err)
					mu.Unlock()
					continue
				}
				errsBy[bi], digests[bi] = e, d
			}
		}()
	}
	for bi := range beacons {
		jobs <- bi
	}
	close(jobs)
	wg.Wait()
	var errs []float64
	for _, e := range errsBy {
		errs = append(errs, e...)
	}
	return errs, digests[0] + digests[min(1, len(digests)-1)], firstErr
}

func (w *pushWorkload) oracleOne(eng *core.Engine, b *pushBeacon) ([]float64, string, error) {
	ref := w.errStream(b)
	if !w.churn && b.pushes*w.cs.PushObs > len(ref) {
		ref = w.serveObs(nil, b, 0, b.pushes*w.cs.PushObs)
	}
	want, err := replay(eng, w.cs, b.name, ref)
	if err != nil {
		return nil, "", fmt.Errorf("replay %s: %w", b.name, err)
	}
	if served := b.pushes * w.cs.PushObs; !w.churn && served > 0 {
		n, d := 0, uint64(fnvOffset)
		for _, f := range want {
			if f.T <= ref[served-1].T {
				n++
				d = fixDigest(d, f)
			}
		}
		if n != b.served || d != b.digest {
			w.o.problem("%s: %d served fixes (digest %016x) differ from the sequential replay's %d (digest %016x)",
				b.name, b.served, b.digest, n, d)
		}
	}
	limit := ref[w.cs.ErrPushes*w.cs.PushObs-1].T
	d := uint64(fnvOffset)
	var errs []float64
	for _, f := range want {
		if f.T > limit {
			break
		}
		d = fixDigest(d, f)
		errs = append(errs, math.Hypot(f.X-b.x, f.Y-b.y))
	}
	return errs, fmt.Sprintf("%016x", d), nil
}

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fixDigest folds every field of f into the FNV-1a hash h. Served fixes
// are checked against the replay through their digest, so the harness
// keeps nothing per fix and its memory does not grow with the pushes a
// run makes.
func fixDigest(h uint64, f netproto.PushFix) uint64 {
	for _, v := range [...]uint64{
		math.Float64bits(f.T), math.Float64bits(f.X), math.Float64bits(f.Y), math.Float64bits(f.N),
		math.Float64bits(f.Gamma), math.Float64bits(f.Confidence), uint64(f.Samples),
	} {
		for i := 0; i < 8; i++ {
			h = (h ^ v&0xff) * fnvPrime
			v >>= 8
		}
	}
	for i := 0; i < len(f.Mode); i++ {
		h = (h ^ uint64(f.Mode[i])) * fnvPrime
	}
	return h
}

// pushProbe is one setup probe: time a cluster set-up in a fresh
// process, tear it down, then fingerprint the first beacons' replays.
func pushProbe(rc runConfig) (probeResult, error) {
	cs := pushSpec(rc)
	t0 := time.Now()
	c, err := startCluster(cs, rc.Dir)
	if err != nil {
		return probeResult{}, err
	}
	setup := time.Since(t0).Seconds()
	if err := c.close(); err != nil {
		return probeResult{}, err
	}
	w := newPushWorkload(rc, cs, &outcome{})
	w.gws = []*gateway{{pairs: w.gws[0].pairs[:1]}} // replay two beacons
	_, digest, err := w.oracle()
	return probeResult{SetupS: setup, Digest: digest}, err
}

func pushSpec(rc runConfig) clusterSpec {
	if rc.Workload == "churn" {
		return rc.Spec.Churn
	}
	return rc.Spec.Serve
}

// newPushWorkload generates the population, one gateway per GOMAXPROCS.
func newPushWorkload(rc runConfig, cs clusterSpec, o *outcome) *pushWorkload {
	w := &pushWorkload{cs: cs, churn: rc.Workload == "churn", o: o}
	w.gws = genPushBeacons(cs, rc.Seed, runtime.GOMAXPROCS(0))
	return w
}

// runPush runs serve or churn.
func runPush(rc runConfig) (*outcome, error) {
	cs := pushSpec(rc)
	o := &outcome{record: map[string]any{}}
	tp := time.Now()
	probes, err := runProbes(rc, rc.Spec.SetupProbes-1)
	if err != nil {
		return nil, err
	}
	o.record["probes_s"] = time.Since(tp).Seconds()
	w := newPushWorkload(rc, cs, o)
	pp := phasePlan{Gateways: len(w.gws), OpenRate: cs.OpenRate}
	u := reserveRun(rc, pp.Gateways, cs.ClosedOpsS)
	t0 := time.Now()
	c, err := startCluster(cs, rc.Dir)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(t0).Seconds()}
	closed := false
	defer func() {
		if !closed {
			c.close()
		}
	}()
	w.c = c
	if err := w.warmUp(); err != nil {
		return nil, err
	}
	if rc.Trace {
		pt, err := newPushTracer(c)
		if err != nil {
			return nil, err
		}
		if _, err := measureTraced(rc, pp, w.op, pt, pt.openHook, o); err != nil {
			return nil, err
		}
		pt.metrics(o)
	} else if err := measureEndToEnd(rc, pp, u, w.op, o); err != nil {
		return nil, err
	}

	met := c.rt.Metrics()
	reconnects := met.Counters["router.backend.reconnects"]
	if rc.Trace {
		o.metric("router.reconnects", "count", float64(reconnects))
		o.metric("router.failover_groups", "count", float64(met.Counters["router.failover.groups"]))
	}
	closed = true
	if err := c.close(); err != nil {
		return nil, fmt.Errorf("cluster close: %w", err)
	}
	if n := w.exchangeErr.Load(); n > 0 {
		o.problem("%d router exchanges failed", n)
	}
	if reconnects > 0 {
		o.problem("router reconnected %d times", reconnects)
	}
	if n := w.degraded.Load(); n > 0 {
		o.problem("%d degraded results on a healthy cluster", n)
	}
	if n := w.quarantined.Load(); n > 0 {
		o.problem("%d checkpoints quarantined", n)
	}
	if n := w.notRestored.Load(); n > 0 {
		o.problem("%d churn reappearances were not restored from a checkpoint", n)
	}
	if cs.Durable {
		checkReopen(rc.Dir, o)
	}
	to := time.Now()
	errs, digest, err := w.oracle()
	if err != nil {
		return nil, err
	}
	o.record["oracle_s"] = time.Since(to).Seconds()
	o.record["fallback_fixes"] = w.fallback.Load()
	for _, p := range probes {
		setups = append(setups, p.SetupS)
		if p.Digest != digest {
			o.problem("fixes differ across processes: digest %s here, %s in a fresh process", digest, p.Digest)
		}
	}
	if !rc.Trace {
		o.metric("setup_s", "s", medianOf(setups))
		errMetrics(o, errs)
	}
	pushes := 0
	for _, gw := range w.gws {
		pushes += gw.k
	}
	o.record["setup_s"] = setups
	o.record["beacons"] = len(w.gws) * cs.BeaconsPerGateway
	o.record["pushes"] = pushes
	o.record["err_fixes"] = len(errs)
	o.record["ephemeral_ports"] = c.ephemeral
	return o, nil
}

// checkReopen reopens the churn store after the clean close: recovery
// must find no torn tail and quarantine nothing.
func checkReopen(dir string, o *outcome) {
	st, err := durable.Open(dir, nil)
	if err != nil {
		o.problem("reopen store: %v", err)
		return
	}
	rec := st.RecoveryStats()
	o.record["store_reopen"] = map[string]any{"sessions": st.Len(), "replayed": rec.Replayed}
	if rec.TornTails != 0 || rec.Quarantined != 0 {
		o.problem("store reopen after a clean close: %d torn tails, %d quarantined regions", rec.TornTails, rec.Quarantined)
	}
	if err := st.Close(); err != nil {
		o.problem("close reopened store: %v", err)
	}
}
