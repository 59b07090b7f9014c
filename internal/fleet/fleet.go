// Package fleet is the serving-scale front end over core.TrackSession:
// one process tracking thousands of beacons at once behind a batched
// ingest API. Sessions live in a sharded registry — beacon names hash
// (FNV-1a) onto GOMAXPROCS-sized shards, and each shard is owned by
// exactly one goroutine, so every session keeps core's single-writer
// contract without any per-push locking. PushBatch groups a mixed
// observation batch by beacon and routes each group to its shard in one
// channel hop; full shards apply backpressure to the submitter rather
// than shedding, so no observation is silently dropped.
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

	"locble/internal/core"
	"locble/internal/estimate"
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
// the unit of fleet ingest. T/RSS/P/Q mirror estimate.Obs: timestamp,
// raw RSS, and the observer's relative displacement.
type Obs struct {
	Beacon string
	T      float64
	RSS    float64
	P      float64
	Q      float64
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
	// batch context's error for groups never submitted.
	Err error
}

// Config configures a Fleet.
type Config struct {
	// Shards is the number of registry shards (= owner goroutines).
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

	mu     sync.Mutex
	closed bool
	flight sync.WaitGroup // in-flight PushBatch calls
	done   sync.WaitGroup // running shard goroutines
}

// groupWork is one beacon's slice of a batch, routed to its shard with
// a result slot the shard owns until wg.Done.
type groupWork struct {
	name string
	obs  []estimate.Obs
	res  *Result
}

// shardBatch is everything one PushBatch call sends one shard: all of
// its groups in one hop. A non-nil drain turns the batch into a drain
// request: after the groups land, the shard checkpoints and evicts
// every resident session into drain's tallies.
type shardBatch struct {
	groups []groupWork
	wg     *sync.WaitGroup
	drain  *drainWork
}

// drainWork collects one shard's drain outcome; it is owned by the
// shard goroutine until the batch's wg.Done.
type drainWork struct {
	drained int
	err     error
}

// shardBatchDepth is each shard's batch queue buffer. A full queue
// applies backpressure to PushBatch callers (bounded memory, nothing
// shed); it is deliberately shallow — each entry can carry many
// observations.
const shardBatchDepth = 8

// shard is one registry shard: a batch queue plus the session table its
// owner goroutine alone may touch.
type shard struct {
	f  *Fleet
	ch chan shardBatch

	// Owned by the shard goroutine — never locked, never shared.
	sessions  map[string]*session
	maxT      float64 // newest observation time seen on this shard
	nextSweep float64 // next maxT at which to run an eviction sweep
	drainErr  error   // close-time checkpoint failures
}

// session is one resident beacon: its tracking session and the
// timestamp of its newest observation (the idle clock runs on
// observation time, so replayed traces age deterministically).
type session struct {
	ts    *core.TrackSession
	lastT float64
}

// New starts a fleet over an engine's pipeline configuration. The
// returned Fleet owns its shard goroutines; Close releases them.
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
		sh := &shard{
			f:        f,
			ch:       make(chan shardBatch, shardBatchDepth),
			sessions: make(map[string]*session),
		}
		f.shards[i] = sh
		f.done.Add(1)
		go sh.run()
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

// PushBatchContext is PushBatch under a context: a submitter held in
// shard backpressure unblocks on cancellation, and groups that were
// never submitted complete with the context's error.
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

	// Route every group to its shard in one hop: one shardBatch send per
	// shard regardless of how many beacons it carries.
	nsh := len(f.shards)
	batches := make([]shardBatch, nsh)
	for g := range results {
		si := shardIndex(results[g].Beacon, nsh)
		batches[si].groups = append(batches[si].groups, groupWork{
			name: results[g].Beacon,
			obs:  groupObs[g],
			res:  &results[g],
		})
	}
	var wg sync.WaitGroup
	canceled := false
	for si := range batches {
		b := &batches[si]
		if len(b.groups) == 0 {
			continue
		}
		if canceled {
			for i := range b.groups {
				b.groups[i].res.Err = ctx.Err()
			}
			continue
		}
		b.wg = &wg
		wg.Add(1)
		f.met.shardQueue.Observe(float64(len(f.shards[si].ch)))
		select {
		case f.shards[si].ch <- *b:
		case <-ctx.Done():
			// A canceled batch must not wait out shard backpressure.
			// Unsubmitted groups report the context error; submitted
			// ones finish normally.
			wg.Done()
			canceled = true
			for i := range b.groups {
				b.groups[i].res.Err = ctx.Err()
			}
		}
	}
	wg.Wait()
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
	works := make([]drainWork, len(f.shards))
	var wg sync.WaitGroup
	for si := range f.shards {
		wg.Add(1)
		f.shards[si].ch <- shardBatch{wg: &wg, drain: &works[si]}
	}
	wg.Wait()
	drained := 0
	errs := make([]error, 0, len(works))
	for i := range works {
		drained += works[i].drained
		if works[i].err != nil {
			errs = append(errs, works[i].err)
		}
	}
	f.met.drainedSessions.Add(int64(drained))
	return drained, errors.Join(errs...)
}

// Sessions returns the number of currently resident sessions.
func (f *Fleet) Sessions() int64 { return f.met.live.Value() }

// Store returns the fleet's checkpoint store.
func (f *Fleet) Store() CheckpointStore { return f.store }

// Close drains in-flight batches, checkpoints every resident session to
// the store (a clean shutdown loses no tracking state), and joins the
// shard goroutines. Idempotent; PushBatch returns ErrClosed afterwards.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.flight.Wait()
	for _, sh := range f.shards {
		close(sh.ch)
	}
	f.done.Wait()
	errs := make([]error, 0, len(f.shards))
	for _, sh := range f.shards {
		if sh.drainErr != nil {
			errs = append(errs, sh.drainErr)
		}
	}
	return errors.Join(errs...)
}

// run is the shard owner goroutine: it alone touches this shard's
// session table, so sessions are single-writer by construction — no
// per-push lock, no lock ordering, no contention between shards.
func (sh *shard) run() {
	defer sh.f.done.Done()
	for b := range sh.ch {
		for i := range b.groups {
			sh.process(&b.groups[i])
		}
		if b.drain != nil {
			sh.drainAll(b.drain)
		}
		// Sweep before releasing the submitter: when a push returns, the
		// evictions its observations triggered are done and the
		// lifecycle counters balance.
		sh.sweep()
		b.wg.Done()
	}
	// Fleet closing: checkpoint everything still resident.
	for name, se := range sh.sessions {
		if err := sh.f.saveCheckpoint(name, se.ts); err != nil {
			sh.drainErr = fmt.Errorf("fleet: close checkpoint %s: %w", name, err)
		}
	}
	sh.f.met.live.Add(-int64(len(sh.sessions)))
	sh.sessions = nil
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

// drainAll checkpoints and evicts every session resident on this shard
// (the Drain handoff). A session whose save fails stays resident so no
// state is lost — it is reported in dw.err and retried by a later
// Drain, sweep, or Close.
func (sh *shard) drainAll(dw *drainWork) {
	errs := []error(nil)
	for name, se := range sh.sessions {
		if err := sh.f.saveCheckpoint(name, se.ts); err != nil {
			errs = append(errs, fmt.Errorf("fleet: drain checkpoint %s: %w", name, err))
			continue
		}
		delete(sh.sessions, name)
		sh.f.met.evicted.Inc()
		sh.f.met.live.Add(-1)
		dw.drained++
	}
	dw.err = errors.Join(errs...)
}

// sweep evicts sessions idle past the fleet's horizon, checkpointing
// each to the store first so a reappearing beacon resumes instead of
// restarting. The sweep is amortized: it reruns only after observation
// time advances a quarter horizon, so steady traffic pays O(sessions)
// once per interval, not per batch.
func (sh *shard) sweep() {
	if sh.maxT < sh.nextSweep {
		return
	}
	sh.nextSweep = sh.maxT + sh.f.idle/4
	for name, se := range sh.sessions {
		if sh.maxT-se.lastT <= sh.f.idle {
			continue
		}
		if err := sh.f.saveCheckpoint(name, se.ts); err != nil {
			// Keep the session resident rather than losing its state;
			// the next sweep retries.
			continue
		}
		delete(sh.sessions, name)
		sh.f.met.evicted.Inc()
		sh.f.met.live.Add(-1)
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
