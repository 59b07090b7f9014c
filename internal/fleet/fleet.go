// Package fleet is the serving-scale front end over core.TrackSession:
// one process tracking thousands of beacons at once behind a batched
// ingest API. Sessions live in a sharded registry — beacon names hash
// (FNV-1a) onto GOMAXPROCS-sized shards, and each shard is guarded by
// one lock, so every session keeps core's single-writer contract.
// PushBatch groups a mixed observation batch by beacon, buckets the
// groups by shard, and runs the busy shards through fanout.Run on the
// pushing goroutine plus helpers for free CPUs; each job holds one
// shard's lock at a time. A busy shard makes the pusher wait rather
// than shedding, so no observation is silently dropped. The fleet owns
// no goroutine.
//
// Lifecycle is managed, not manual: a session is created lazily on a
// beacon's first observation, evicted after it has been silent for the
// ladder's staleness horizon (checkpointed to a pluggable
// CheckpointStore on the way out), and restored from its checkpoint
// when the beacon reappears — resuming its Γ drift history, filter
// state and mirror-ambiguity anchor bit-exactly, so a beacon that walks
// out of range and back produces the same fixes an uninterrupted
// session would.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"locble/internal/core"
	"locble/internal/estimate"
	"locble/internal/fanout"
)

// Errors.
var (
	// ErrClosed is returned by PushBatch after Close.
	ErrClosed = errors.New("fleet: closed")
	// ErrShardFull rejects a new session when a shard is at its
	// configured session cap (admission control for beacon floods; the
	// observations for already-resident beacons still land).
	ErrShardFull = errors.New("fleet: shard session cap reached")
)

// Obs is one fused observation tagged with the beacon it belongs to —
// the unit of fleet ingest, locally and on the wire. T/RSS/P/Q mirror
// estimate.Obs: timestamp, raw RSS, and the observer's relative
// displacement.
type Obs struct {
	Beacon string  `json:"beacon"`
	T      float64 `json:"t"`
	RSS    float64 `json:"rss"`
	P      float64 `json:"p"`
	Q      float64 `json:"q"`
}

// Result is one beacon's outcome of a PushBatch call.
type Result struct {
	Beacon string
	// Points are the fixes this batch's observations completed (usually
	// zero or one; more when a batch spans several fix steps).
	Points []core.TrackPoint
	// Created is set when the batch lazily created the session;
	// Restored when it resumed one from a checkpoint instead.
	Created  bool
	Restored bool
	// Quarantined is set when the beacon had a stored checkpoint that
	// could not be used — corrupt bytes or an unrestorable format — and
	// the fleet sidelined (deleted) it and started the session cold.
	// The observations still landed; the caller learns the beacon's
	// history was lost.
	Quarantined bool
	// Err is this beacon's failure (the rest of the batch still ran):
	// ErrShardFull, a checkpoint-store failure, a session error, or the
	// batch context's error for groups whose shard the push never locked.
	Err error
}

// Config configures a Fleet.
type Config struct {
	// Shards is the number of registry shards, each one lock domain.
	// Zero selects GOMAXPROCS — one shard per core, matching the
	// CPU-bound regression work the shards perform.
	Shards int
	// Session is the per-beacon session template; Beacon is overridden
	// with each tracked beacon's name.
	Session core.TrackSessionConfig
	// Store receives checkpoint-on-evict state and serves
	// restore-on-reappearance. Nil selects an in-process MemStore.
	Store CheckpointStore
	// IdleMaxAge is how long (seconds of observation time) a session may
	// go without an observation before it is checkpointed and evicted.
	// Zero reuses the degradation ladder's staleness horizon
	// (core.DefaultStaleMaxAge): a beacon too stale to show is too idle
	// to keep resident.
	IdleMaxAge float64
	// MaxSessionsPerShard caps resident sessions per shard; new beacons
	// beyond it are rejected with ErrShardFull. Zero means unlimited.
	MaxSessionsPerShard int
}

// Fleet is a concurrent multi-session tracking service. All methods
// are safe for concurrent use; observations for one beacon should
// arrive in timestamp order (across however many PushBatch calls), as
// a session drops out-of-order samples.
type Fleet struct {
	eng    *core.Engine
	cfg    Config
	store  CheckpointStore
	acked  bool // store acknowledges saves as fsynced (DurableStore in durable mode)
	idle   float64
	met    *metrics
	shards []*shard
	lanes  atomic.Int64 // goroutines in this fleet's fan-outs (fanout.Run)

	mu     sync.Mutex
	closed bool
	flight sync.WaitGroup // in-flight PushBatch and Drain calls
}

// groupWork is one beacon's slice of a batch and its result slot, which
// the job holding the beacon's shard writes.
type groupWork struct {
	name string
	obs  []estimate.Obs
	res  *Result
}

// shard is one registry shard: a session table and the lock that
// guards it. The lock is a one-slot semaphore rather than a mutex so a
// pusher waiting for a busy shard can give up when its context ends;
// waiting counts the pushers blocked on it.
type shard struct {
	f       *Fleet
	lock    chan struct{}
	waiting atomic.Int64

	// Guarded by lock.
	sessions  map[string]*session
	maxT      float64 // newest observation time seen on this shard
	nextSweep float64 // next maxT at which to run an eviction sweep
}

// session is one resident beacon: its tracking session and the
// timestamp of its newest observation (the idle clock runs on
// observation time, so replayed traces age deterministically).
type session struct {
	ts    *core.TrackSession
	lastT float64
}

// New builds a fleet over an engine's pipeline configuration. It starts
// no goroutine: pushes and drains run on their callers (plus helpers
// joined before each call returns). Close checkpoints what is resident.
func New(eng *core.Engine, cfg Config) (*Fleet, error) {
	if eng == nil {
		return nil, fmt.Errorf("%w: nil engine", core.ErrSessionConfig)
	}
	// Validate the session template once, up front, instead of failing
	// every beacon's first observation later.
	probe := cfg.Session
	probe.Beacon = "fleet-template-probe"
	if _, err := eng.NewTrackSession(probe); err != nil {
		return nil, fmt.Errorf("fleet: session template: %w", err)
	}
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	f := &Fleet{
		eng:   eng,
		cfg:   cfg,
		store: cfg.Store,
		idle:  cfg.IdleMaxAge,
		met:   newMetrics(),
	}
	if f.store == nil {
		f.store = NewMemStore()
	}
	// A durability-aware store tells the fleet two things: whether a
	// nil Save means fsynced (acked) or merely buffered, and what its
	// crash recovery replayed and repaired — surfaced as gauges so a
	// restarted fleet's operator sees the damage report without
	// touching store internals.
	if ds, ok := f.store.(DurableStore); ok {
		f.acked = ds.Durable()
		replayed, truncated, quarantined := ds.RecoveryCounts()
		f.met.recReplayed.Set(replayed)
		f.met.recTruncated.Set(truncated)
		f.met.recQuarantined.Set(quarantined)
	}
	if f.idle <= 0 {
		f.idle = core.DefaultStaleMaxAge
	}
	f.shards = make([]*shard, n)
	for i := range f.shards {
		f.shards[i] = &shard{
			f:        f,
			lock:     make(chan struct{}, 1),
			sessions: make(map[string]*session),
		}
	}
	return f, nil
}

// PushBatch feeds a mixed batch of observations in and returns one
// Result per distinct beacon (in first-appearance order). Observations
// are grouped by beacon and each group lands on its session in input
// order, so the results are bit-identical to pushing the same
// observations into per-beacon sessions sequentially. By the time it
// returns, the idle sweeps the batch triggered have finished, so the
// lifecycle metrics balance.
func (f *Fleet) PushBatch(obs []Obs) ([]Result, error) {
	return f.PushBatchContext(context.Background(), obs)
}

// PushBatchContext is PushBatch under a context: a push waiting for a
// busy shard gives up on cancellation, and the groups of every shard it
// never locked complete with the context's error. Groups already landed
// finish normally.
func (f *Fleet) PushBatchContext(ctx context.Context, obs []Obs) ([]Result, error) {
	if len(obs) == 0 {
		return nil, nil
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	f.flight.Add(1)
	f.mu.Unlock()
	defer f.flight.Done()

	sp := f.met.pushSpan.Start()
	defer sp.End()
	f.met.batches.Inc()
	f.met.batchSize.Observe(float64(len(obs)))
	f.met.obsPushed.Add(int64(len(obs)))

	// Group by beacon, preserving first-appearance order between groups
	// and input order within each.
	idx := make(map[string]int, 16)
	results := make([]Result, 0, 16)
	groupObs := make([][]estimate.Obs, 0, 16)
	for _, o := range obs {
		g, ok := idx[o.Beacon]
		if !ok {
			g = len(results)
			idx[o.Beacon] = g
			results = append(results, Result{Beacon: o.Beacon})
			groupObs = append(groupObs, nil)
		}
		groupObs[g] = append(groupObs[g], estimate.Obs{T: o.T, RSS: o.RSS, P: o.P, Q: o.Q})
	}

	// Bucket the groups by shard, each bucket in first-appearance order,
	// and run every busy shard as one fan-out job.
	nsh := len(f.shards)
	buckets := make([][]groupWork, nsh)
	busy := make([]int, 0, min(nsh, len(results)))
	for g := range results {
		si := shardIndex(results[g].Beacon, nsh)
		if len(buckets[si]) == 0 {
			busy = append(busy, si)
		}
		buckets[si] = append(buckets[si], groupWork{
			name: results[g].Beacon,
			obs:  groupObs[g],
			res:  &results[g],
		})
	}
	fanout.Run(&f.lanes, len(busy), func(j int) {
		sh, groups := f.shards[busy[j]], buckets[busy[j]]
		f.met.shardQueue.Observe(float64(sh.waiting.Add(1) - 1))
		select {
		case sh.lock <- struct{}{}:
			sh.waiting.Add(-1)
		case <-ctx.Done():
			sh.waiting.Add(-1)
			for i := range groups {
				groups[i].res.Err = ctx.Err()
			}
			return
		}
		defer func() { <-sh.lock }()
		for i := range groups {
			sh.process(&groups[i])
		}
		// Sweep before releasing the shard: when a push returns, the
		// evictions its observations triggered are done and the
		// lifecycle counters balance.
		sh.sweep()
	})
	return results, nil
}

// Drain checkpoints every resident session to the store and evicts it,
// leaving the fleet empty but running — the scale-out handoff
// primitive: a router drains a node, then routes its beacons to the
// surviving nodes, which restore each session from the shared store
// bit-exactly. Returns how many sessions were drained. Sessions whose
// checkpoint save fails stay resident (and are counted in the error);
// a later Drain or Close retries them.
func (f *Fleet) Drain() (int, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrClosed
	}
	f.flight.Add(1)
	f.mu.Unlock()
	defer f.flight.Done()

	f.met.drains.Inc()
	drained := make([]int, len(f.shards))
	errs := make([]error, len(f.shards))
	fanout.Run(&f.lanes, len(f.shards), func(si int) {
		sh := f.shards[si]
		sh.lock <- struct{}{}
		defer func() { <-sh.lock }()
		drained[si], errs[si] = sh.drainAll()
		sh.sweep()
	})
	total := 0
	for _, n := range drained {
		total += n
	}
	f.met.drainedSessions.Add(int64(total))
	return total, errors.Join(errs...)
}

// Sessions returns the number of currently resident sessions.
func (f *Fleet) Sessions() int64 { return f.met.live.Value() }

// Store returns the fleet's checkpoint store.
func (f *Fleet) Store() CheckpointStore { return f.store }

// Close waits for in-flight pushes and drains, then checkpoints and
// evicts every resident session through the same path as Drain (a clean
// shutdown loses no tracking state, and the lifecycle counters balance
// afterwards). A session whose save fails is dropped all the same and
// its error returned. Idempotent; PushBatch returns ErrClosed
// afterwards.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	// With no call in flight and none admitted, no goroutine holds a
	// shard lock, so each job below has its shard's table to itself.
	// Shards checkpoint in parallel, as they do in Drain: a durable
	// store fsyncs every Save, and concurrent Saves can share an fsync.
	f.flight.Wait()
	errs := make([]error, len(f.shards))
	fanout.Run(&f.lanes, len(f.shards), func(si int) {
		sh := f.shards[si]
		_, errs[si] = sh.drainAll()
		// What is left failed its save; the fleet is closing, so it goes.
		f.met.live.Add(-int64(len(sh.sessions)))
		sh.sessions = nil
	})
	return errors.Join(errs...)
}

// saveCheckpoint writes one session's checkpoint with durability-aware
// accounting: the write counts as acked when the store acknowledged it
// fsynced, buffered otherwise. Failures count as store errors and the
// caller keeps the session resident.
func (f *Fleet) saveCheckpoint(name string, ts *core.TrackSession) error {
	if err := f.store.Save(name, ts.Checkpoint()); err != nil {
		f.met.storeErrors.Inc()
		return err
	}
	f.met.checkpoints.Inc()
	if f.acked {
		f.met.cpAcked.Inc()
	} else {
		f.met.cpBuffered.Inc()
	}
	return nil
}

// process lands one beacon's group on its session, creating or
// restoring the session on first sight.
func (sh *shard) process(g *groupWork) {
	f := sh.f
	se, ok := sh.sessions[g.name]
	if !ok {
		if f.cfg.MaxSessionsPerShard > 0 && len(sh.sessions) >= f.cfg.MaxSessionsPerShard {
			g.res.Err = ErrShardFull
			return
		}
		cp, found, err := f.store.Load(g.name)
		if err != nil {
			if !errors.Is(err, core.ErrCorruptCheckpoint) {
				// A transient storage failure: fail this group and let
				// the caller retry — the checkpoint may still be fine.
				f.met.storeErrors.Inc()
				g.res.Err = fmt.Errorf("fleet: load checkpoint %s: %w", g.name, err)
				return
			}
			// The stored bytes are damaged beyond decoding. That is a
			// restore casualty, not a store fault: count it as exactly
			// one restore error (never as restored work), quarantine the
			// checkpoint so it cannot wedge the beacon on every
			// reappearance, and start cold — the observations still
			// land.
			f.met.restoreErrors.Inc()
			_ = f.store.Delete(g.name)
			g.res.Quarantined = true
			found = false
		}
		var ts *core.TrackSession
		if found {
			ts, err = f.eng.RestoreTrackSession(cp)
			if err != nil {
				// A checkpoint this engine cannot resume (version or
				// ablation mismatch) would fail forever — drop it and
				// start cold rather than wedging the beacon.
				f.met.restoreErrors.Inc()
				_ = f.store.Delete(g.name)
				g.res.Quarantined = true
				ts = nil
			} else {
				f.met.restored.Inc()
				g.res.Restored = true
			}
		}
		if ts == nil {
			cfg := f.cfg.Session
			cfg.Beacon = g.name
			ts, err = f.eng.NewTrackSession(cfg)
			if err != nil {
				g.res.Err = err
				return
			}
			f.met.created.Inc()
			g.res.Created = true
		}
		se = &session{ts: ts}
		sh.sessions[g.name] = se
		f.met.live.Add(1)
	}
	for _, o := range g.obs {
		pt, err := se.ts.Push(o)
		if err != nil {
			g.res.Err = err
			break
		}
		if pt != nil {
			g.res.Points = append(g.res.Points, *pt)
		}
		if o.T > se.lastT {
			se.lastT = o.T
		}
	}
	if se.lastT > sh.maxT {
		sh.maxT = se.lastT
	}
}

// evict checkpoints one session to the store and removes it from the
// shard — the one eviction path of sweep, Drain and Close. A session
// whose save fails stays resident so no state is lost, and the error is
// returned.
func (sh *shard) evict(name string, se *session) error {
	if err := sh.f.saveCheckpoint(name, se.ts); err != nil {
		return fmt.Errorf("fleet: checkpoint %s: %w", name, err)
	}
	delete(sh.sessions, name)
	sh.f.met.evicted.Inc()
	sh.f.met.live.Add(-1)
	return nil
}

// drainAll evicts every session resident on this shard (the Drain
// handoff) and reports how many it evicted. A session whose save fails
// is reported in the error and retried by a later Drain, sweep, or
// Close.
func (sh *shard) drainAll() (int, error) {
	drained := 0
	var errs []error
	for name, se := range sh.sessions {
		if err := sh.evict(name, se); err != nil {
			errs = append(errs, err)
			continue
		}
		drained++
	}
	return drained, errors.Join(errs...)
}

// sweep evicts sessions idle past the fleet's horizon, so a reappearing
// beacon resumes from its checkpoint instead of restarting. The sweep
// is amortized: it reruns only after observation time advances a
// quarter horizon, so steady traffic pays O(sessions) once per
// interval, not per batch. A session whose save fails stays resident
// and the next sweep retries.
func (sh *shard) sweep() {
	if sh.maxT < sh.nextSweep {
		return
	}
	sh.nextSweep = sh.maxT + sh.f.idle/4
	for name, se := range sh.sessions {
		if sh.maxT-se.lastT > sh.f.idle {
			_ = sh.evict(name, se)
		}
	}
}

// shardIndex maps a beacon name onto one of n shards with FNV-1a, so
// every push for one beacon lands on the same shard.
func shardIndex(name string, n int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}
