package fleet

import "locble/internal/obs"

// metrics resolves every fleet metric handle once at construction (the
// same pattern as core's engineMetrics), on a per-fleet registry so one
// fleet's snapshot is unpolluted by others in the process.
type metrics struct {
	reg *obs.Registry

	// Session lifecycle. live's Max is the resident-session high-water
	// mark; created/evicted/restored tell cold starts, idle evictions
	// and checkpoint resumptions apart. checkpoints counts every
	// checkpoint written to the store (evictions and close-drain).
	live        *obs.Gauge
	created     *obs.Counter
	evicted     *obs.Counter
	restored    *obs.Counter
	checkpoints *obs.Counter

	// Drain handoffs: Drain calls served and sessions checkpointed-and-
	// evicted by them (each also counts in evicted/checkpoints — these
	// tell a deliberate handoff apart from idle churn).
	drains          *obs.Counter
	drainedSessions *obs.Counter

	// Durability split of checkpoints: acked counts writes the store
	// acknowledged as fsynced-to-disk (a DurableStore in durable mode),
	// buffered counts writes that are only as safe as the process — an
	// operator alarms on buffered > 0 in a deployment that promised
	// durability.
	cpAcked    *obs.Counter
	cpBuffered *obs.Counter

	// Store health: save/load failures (the session stays resident on a
	// failed eviction save) and checkpoints dropped as unrestorable.
	storeErrors   *obs.Counter
	restoreErrors *obs.Counter

	// Crash-recovery outcome of the store backing this fleet, set once
	// at New from DurableStore.RecoveryCounts: records replayed, torn
	// tails truncated, damaged regions quarantined. Zero for stores
	// without a recovery notion (MemStore).
	recReplayed    *obs.Gauge
	recTruncated   *obs.Gauge
	recQuarantined *obs.Gauge

	// Ingest shape: batches and observations pushed, batch-size
	// distribution, the pushers already waiting for a shard when another
	// arrives (how contended the shard locks are), and whole-batch
	// latency.
	batches    *obs.Counter
	obsPushed  *obs.Counter
	batchSize  *obs.Histogram
	shardQueue *obs.Histogram
	pushSpan   *obs.Timer
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	return &metrics{
		reg:             r,
		live:            r.Gauge("fleet.sessions.live"),
		created:         r.Counter("fleet.sessions.created"),
		evicted:         r.Counter("fleet.sessions.evicted"),
		restored:        r.Counter("fleet.sessions.restored"),
		checkpoints:     r.Counter("fleet.checkpoints.written"),
		drains:          r.Counter("fleet.drains"),
		drainedSessions: r.Counter("fleet.drained.sessions"),
		cpAcked:         r.Counter("fleet.checkpoints.acked"),
		cpBuffered:      r.Counter("fleet.checkpoints.buffered"),
		storeErrors:     r.Counter("fleet.store.errors"),
		restoreErrors:   r.Counter("fleet.restore.errors"),
		recReplayed:     r.Gauge("fleet.recovery.replayed"),
		recTruncated:    r.Gauge("fleet.recovery.truncated"),
		recQuarantined:  r.Gauge("fleet.recovery.quarantined"),
		batches:         r.Counter("fleet.batches"),
		obsPushed:       r.Counter("fleet.obs.pushed"),
		batchSize:       r.Histogram("fleet.batch.size", []float64{1, 8, 32, 128, 512, 2048}),
		shardQueue:      r.Histogram("fleet.shard.queue", []float64{0, 1, 2, 4, 8}),
		pushSpan:        r.Timer("fleet.push.seconds"),
	}
}

// Metrics returns a consistent snapshot of the fleet's metrics. Safe to
// call concurrently with ingest.
func (f *Fleet) Metrics() obs.Snapshot { return f.met.reg.Snapshot() }

// MetricsRegistry exposes the fleet's registry — to mount its Handler
// on a debug listener or merge it into a process-wide snapshot.
func (f *Fleet) MetricsRegistry() *obs.Registry { return f.met.reg }
