package main

import (
	"fmt"

	"locble/internal/obs"
)

// pushTracer reads, around each routed push, the router's whole-push
// and per-node exchange timers, every fleet's push timer and lifecycle
// counters, every engine's regress timer and session-fix counter, the
// process-wide estimator and wire counters, and the store wrappers'
// spans. Self time follows the op's critical path: the router's is the
// push minus the slowest node exchange, the wire's is that exchange
// minus the same node's fleet push. The regress share is the regress
// time on that node, at most its fleet push, over the op's time.
type pushTracer struct {
	c *cluster

	rPush             *obs.Histogram
	rBatches, rObs    *obs.Counter
	nPush             []*obs.Histogram // router.node.<i>.push.seconds
	nBatches          []*obs.Counter
	fPush             []*obs.Histogram
	created, restored []*obs.Counter
	evicted           []*obs.Counter
	regress           []*obs.Histogram
	sessFixes         []*obs.Counter
	est               estimateCounters
	// Client and server share one process and one set of wire counters;
	// counting only what is written sees each byte and frame once.
	bytesOut, framesOut *obs.Counter

	prev, sum                    pushReading
	ops                          int
	opSec                        float64 // Σ op wall time
	routerSelf, netSelf, outside float64
	critRegress                  float64 // regress on the slowest node, at most its fleet push
	queue0                       []obs.HistogramValue
	queueP99                     float64
}

// pushReading is one reading of everything the tracer follows; summed
// over ops it is the traced phase's total.
type pushReading struct {
	rPush                    timerReading
	rBatches, rObs           int64
	nPush, fPush             []timerReading
	nBatches                 int64
	created, restored, evict int64
	regress                  []float64 // per node
	sessFixes                int64
	est                      estimateReading
	bytes, frames            int64
	store                    storeStats
}

func newPushTracer(c *cluster) (*pushTracer, error) {
	t := &pushTracer{c: c}
	rreg := c.rt.MetricsRegistry()
	var errs []error
	h := func(reg *obs.Registry, name string) *obs.Histogram {
		x, err := histHandle(reg, name)
		errs = append(errs, err)
		return x
	}
	ctr := func(reg *obs.Registry, name string) *obs.Counter {
		x, err := counterHandle(reg, name)
		errs = append(errs, err)
		return x
	}
	t.rPush = h(rreg, "router.push.seconds")
	t.rBatches = ctr(rreg, "router.batches")
	t.rObs = ctr(rreg, "router.obs.routed")
	for i, n := range c.nodes {
		t.nPush = append(t.nPush, h(rreg, fmt.Sprintf("router.node.%d.push.seconds", i)))
		t.nBatches = append(t.nBatches, ctr(rreg, fmt.Sprintf("router.node.%d.batches", i)))
		freg := n.fl.MetricsRegistry()
		t.fPush = append(t.fPush, h(freg, "fleet.push.seconds"))
		t.created = append(t.created, ctr(freg, "fleet.sessions.created"))
		t.restored = append(t.restored, ctr(freg, "fleet.sessions.restored"))
		t.evicted = append(t.evicted, ctr(freg, "fleet.sessions.evicted"))
		ereg := n.eng.MetricsRegistry()
		t.regress = append(t.regress, h(ereg, "core.stage.regress.seconds"))
		t.sessFixes = append(t.sessFixes, ctr(ereg, "core.session.fixes"))
	}
	t.bytesOut = ctr(obs.Default, "netproto.bytes.out")
	t.framesOut = ctr(obs.Default, "netproto.frames.out")
	est, err := newEstimateCounters()
	errs = append(errs, err)
	t.est = est
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *pushTracer) read() pushReading {
	r := pushReading{
		rPush: readTimer(t.rPush), rBatches: t.rBatches.Value(), rObs: t.rObs.Value(),
		est:    t.est.read(),
		bytes:  t.bytesOut.Value(),
		frames: t.framesOut.Value(),
	}
	for i, n := range t.c.nodes {
		r.nPush = append(r.nPush, readTimer(t.nPush[i]))
		r.fPush = append(r.fPush, readTimer(t.fPush[i]))
		r.nBatches += t.nBatches[i].Value()
		r.created += t.created[i].Value()
		r.restored += t.restored[i].Value()
		r.evict += t.evicted[i].Value()
		r.regress = append(r.regress, t.regress[i].Sum())
		r.sessFixes += t.sessFixes[i].Value()
		r.store = r.store.add(n.store.stats())
	}
	return r
}

// delta is a − b for every field.
func (a pushReading) delta(b pushReading) pushReading {
	d := pushReading{
		rPush: a.rPush.sub(b.rPush), rBatches: a.rBatches - b.rBatches, rObs: a.rObs - b.rObs,
		nBatches: a.nBatches - b.nBatches, created: a.created - b.created,
		restored: a.restored - b.restored, evict: a.evict - b.evict,
		sessFixes: a.sessFixes - b.sessFixes,
		est:       a.est.sub(b.est), bytes: a.bytes - b.bytes, frames: a.frames - b.frames,
		store: a.store.sub(b.store),
	}
	for i := range a.nPush {
		d.nPush = append(d.nPush, a.nPush[i].sub(b.nPush[i]))
		d.fPush = append(d.fPush, a.fPush[i].sub(b.fPush[i]))
		d.regress = append(d.regress, a.regress[i]-b.regress[i])
	}
	return d
}

// accumulate adds d into a (a's slices grow on first use).
func (a *pushReading) accumulate(d pushReading) {
	if a.nPush == nil {
		a.nPush = make([]timerReading, len(d.nPush))
		a.fPush = make([]timerReading, len(d.fPush))
		a.regress = make([]float64, len(d.regress))
	}
	a.rPush.Sum += d.rPush.Sum
	a.rPush.Count += d.rPush.Count
	a.rBatches += d.rBatches
	a.rObs += d.rObs
	for i := range d.nPush {
		a.nPush[i].Sum += d.nPush[i].Sum
		a.nPush[i].Count += d.nPush[i].Count
		a.fPush[i].Sum += d.fPush[i].Sum
		a.fPush[i].Count += d.fPush[i].Count
		a.regress[i] += d.regress[i]
	}
	a.nBatches += d.nBatches
	a.created += d.created
	a.restored += d.restored
	a.evict += d.evict
	a.sessFixes += d.sessFixes
	a.est = a.est.add(d.est)
	a.bytes += d.bytes
	a.frames += d.frames
	a.store = a.store.add(d.store)
}

func (t *pushTracer) start() {
	t.c.recordStores(true)
	t.prev = t.read()
}

func (t *pushTracer) afterOp(op float64) {
	cur := t.read()
	d := cur.delta(t.prev)
	t.prev = cur
	t.sum.accumulate(d)
	t.ops++
	t.opSec += op
	slow := 0
	for i := range d.nPush {
		if d.nPush[i].Sum > d.nPush[slow].Sum {
			slow = i
		}
	}
	t.routerSelf += d.rPush.Sum - d.nPush[slow].Sum
	t.netSelf += d.nPush[slow].Sum - d.fPush[slow].Sum
	t.outside += op - d.rPush.Sum
	t.critRegress += min(d.regress[slow], d.fPush[slow].Sum)
}

func (t *pushTracer) stop() { t.c.recordStores(false) }

// openHook brackets the traced run's open loop to read the fleets'
// shard-queue depth under load.
func (t *pushTracer) openHook(start bool) {
	var snaps []obs.HistogramValue
	for _, n := range t.c.nodes {
		snaps = append(snaps, n.fl.Metrics().Histograms["fleet.shard.queue"])
	}
	if start {
		t.queue0 = snaps
		return
	}
	var merged obs.HistogramValue
	for i, s := range snaps {
		d := histDelta(s, t.queue0[i])
		if merged.Buckets == nil {
			merged = d
			continue
		}
		merged.Count += d.Count
		for j := range merged.Buckets {
			merged.Buckets[j].Count += d.Buckets[j].Count
		}
	}
	t.queueP99 = bucketQuantile(merged, 0.99)
}

func (t *pushTracer) metrics(o *outcome) {
	s := t.sum
	ops := float64(max(t.ops, 1))
	var nSum, fSum, regress float64
	var nCount, fCount uint64
	for i := range s.nPush {
		nSum += s.nPush[i].Sum
		nCount += s.nPush[i].Count
		fSum += s.fPush[i].Sum
		fCount += s.fPush[i].Count
		regress += s.regress[i]
	}
	o.metric("core.regress_us", "us", regress/ops*1e6)
	o.metric("core.regress_share", "ratio", safeDiv(t.critRegress, t.opSec))
	o.metric("core.session_fixes_per_op", "count", float64(s.sessFixes)/ops)
	s.est.metrics(o, t.ops)
	o.metric("fleet.push_ms", "ms", safeDiv(fSum, float64(fCount))*1e3)
	o.metric("fleet.shard_queue_p99", "count", t.queueP99)
	o.metric("fleet.created_per_op", "count", float64(s.created)/ops)
	o.metric("fleet.restored_per_op", "count", float64(s.restored)/ops)
	o.metric("fleet.evicted_per_op", "count", float64(s.evict)/ops)
	o.metric("durable.save_us", "us", safeDiv(float64(s.store.SaveNs), float64(s.store.Saves))/1e3)
	o.metric("durable.load_us", "us", safeDiv(float64(s.store.LoadNs), float64(s.store.Loads))/1e3)
	o.metric("durable.saves_per_op", "count", float64(s.store.Saves)/ops)
	o.metric("durable.loads_per_op", "count", float64(s.store.Loads)/ops)
	o.metric("netproto.exchange_ms", "ms", safeDiv(nSum, float64(nCount))*1e3)
	o.metric("netproto.self_ms", "ms", t.netSelf/ops*1e3)
	o.metric("netproto.bytes_per_obs", "B", safeDiv(float64(s.bytes), float64(s.rObs)))
	o.metric("netproto.frames_per_op", "count", float64(s.frames)/ops)
	o.metric("router.push_ms", "ms", s.rPush.Sum/ops*1e3)
	o.metric("router.self_ms", "ms", t.routerSelf/ops*1e3)
	o.metric("router.fanout", "count", safeDiv(float64(s.nBatches), float64(s.rBatches)))
	o.metric("trace.unaccounted_frac", "ratio", safeDiv(t.outside, t.opSec))
}
