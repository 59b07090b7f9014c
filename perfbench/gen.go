package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opFunc performs gateway g's k-th operation. A non-nil error marks the
// op failed; failed ops are counted, not timed.
type opFunc func(g, k int) error

// opRecord is one open-loop op, in seconds since the phase started: when
// it was due, when the gateway actually sent it, and when it completed.
type opRecord struct {
	Due, Sent, Done float64
	Failed          bool
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	Lat       []float64 // seconds, one per completed op
	Done      []float64 // closed loop: completion times since the start
	Attempted int
	Failed    int
	Wall      float64 // seconds from the phase start to the last completion
	// Open loop only.
	Ops     []opRecord
	Late    []float64 // seconds each sent op left after its due time
	Backlog int       // ops due before the schedule ended but not yet sent then
	Pending int       // ops never sent before the grace period ran out
}

// runClosed drives one gateway per element of perGw, each keeping
// exactly one op outstanding: the next op starts when the previous
// completes. Gateways stop starting ops once dur has passed and at least
// minOps have completed, or at 2·dur regardless; ops already started
// always finish. Each gateway appends its records to its own element,
// whose Wall ends up as its last completion; joinPhases merges them.
func runClosed(perGw []phaseResult, dur time.Duration, minOps int, op opFunc) []phaseResult {
	var (
		done  atomic.Int64
		wg    sync.WaitGroup
		start = time.Now()
		soft  = start.Add(dur)
		hard  = start.Add(2 * dur)
	)
	for g := range perGw {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := &perGw[g]
			for k := 0; ; k++ {
				now := time.Now()
				if now.After(hard) || now.After(soft) && done.Load() >= int64(minOps) {
					return
				}
				t0 := time.Now()
				err := op(g, k)
				t1 := time.Now()
				r.Attempted++
				if err != nil {
					r.Failed++
				} else {
					r.Lat = append(r.Lat, t1.Sub(t0).Seconds())
					r.Done = append(r.Done, t1.Sub(start).Seconds())
					done.Add(1)
				}
				r.Wall = t1.Sub(start).Seconds()
			}
		}(g)
	}
	wg.Wait()
	return perGw
}

// reserveClosed makes per-gateway records with room for ops completions
// in all, so a closed loop that stays within them allocates nothing of
// its own while it runs.
func reserveClosed(gateways, ops int) []phaseResult {
	per := (ops + gateways - 1) / gateways
	out := make([]phaseResult, gateways)
	for g := range out {
		out[g].Lat = make([]float64, 0, per)
		out[g].Done = make([]float64, 0, per)
	}
	return out
}

// joinPhases merges per-gateway closed-loop records into one.
func joinPhases(perGw []phaseResult) phaseResult {
	var out phaseResult
	for _, r := range perGw {
		out.Lat = append(out.Lat, r.Lat...)
		out.Done = append(out.Done, r.Done...)
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Wall = max(out.Wall, r.Wall)
	}
	return out
}

// runOpen offers ops at a fixed total rate for dur, spread evenly over
// the gateways: gateway g's k-th op is due at (k·gateways + g)/rate after
// the start. A gateway sends an op only after its previous op completed,
// which keeps each gateway's ops in order; an op that could not be sent
// on time goes out as soon as possible, and its latency still runs from
// its due time, so a stall is charged to every op scheduled behind it.
// Ops still unsent grace after the schedule ended count as failed.
func runOpen(gateways int, rate float64, dur, grace time.Duration, op opFunc) phaseResult {
	interval := float64(gateways) / rate // seconds between one gateway's ops
	span := dur.Seconds()
	perGw := make([][]opRecord, gateways)
	var wg sync.WaitGroup
	start := time.Now()
	hard := start.Add(dur + grace)
	for g := 0; g < gateways; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			offset := float64(g) / rate
			for k := 0; ; k++ {
				due := offset + float64(k)*interval
				if due >= span {
					return
				}
				dueAt := start.Add(time.Duration(due * float64(time.Second)))
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
				}
				rec := opRecord{Due: due}
				if time.Now().After(hard) {
					rec.Sent, rec.Done, rec.Failed = -1, -1, true
					perGw[g] = append(perGw[g], rec)
					continue
				}
				rec.Sent = time.Since(start).Seconds()
				err := op(g, k)
				rec.Done = time.Since(start).Seconds()
				rec.Failed = err != nil
				perGw[g] = append(perGw[g], rec)
			}
		}(g)
	}
	wg.Wait()
	var out phaseResult
	for _, recs := range perGw {
		for _, rec := range recs {
			out.Ops = append(out.Ops, rec)
			out.Attempted++
			if rec.Sent < 0 || rec.Sent >= span {
				out.Backlog++
			}
			if rec.Sent < 0 {
				out.Pending++
			}
			if rec.Failed {
				out.Failed++
				continue
			}
			out.Lat = append(out.Lat, rec.Done-rec.Due)
			out.Late = append(out.Late, rec.Sent-rec.Due)
			if rec.Done > out.Wall {
				out.Wall = rec.Done
			}
		}
	}
	return out
}

// windowedRate is the median, over the whole one-second windows of a
// closed-loop phase, of the ops completed in each window. A median of
// windows shrugs off a few seconds of host contention that a plain
// ops-per-wall-second figure would absorb. With fewer than three whole
// windows it falls back to ops per wall second.
func windowedRate(r phaseResult) float64 {
	n := int(r.Wall)
	if n < 3 {
		return float64(len(r.Done)) / r.Wall
	}
	counts := make([]float64, n)
	for _, d := range r.Done {
		if i := int(d); i < n {
			counts[i]++
		}
	}
	return medianOf(counts)
}
