package netproto

import "locble/internal/obs"

// Wire-level instrumentation, recorded into obs.Default: the transport
// is shared process infrastructure, so its metrics are process-wide.
// One atomic operation per frame / retry / reconnect — nothing in the
// byte-copy paths.
var (
	// metFramesIn / metFramesOut count decoded and encoded frames;
	// the byte counters track payload volume (length prefix excluded).
	metFramesIn  = obs.Default.Counter("netproto.frames.in")
	metFramesOut = obs.Default.Counter("netproto.frames.out")
	metBytesIn   = obs.Default.Counter("netproto.bytes.in")
	metBytesOut  = obs.Default.Counter("netproto.bytes.out")
	// metRetries counts backoff sleeps inside Retry.Do — i.e. failed
	// attempts that were retried, not first attempts.
	metRetries = obs.Default.Counter("netproto.retries")
	// metReconnects counts successful mid-session stream re-dials.
	metReconnects = obs.Default.Counter("netproto.stream.reconnects")
	// metResumeDepth is the distribution of batches replayed when a
	// subscriber resumes an interrupted session (from > 0).
	metResumeDepth = obs.Default.Histogram("netproto.stream.resume_depth",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})

	// Lifecycle and overload instrumentation.
	//
	// metConnsActive gauges connections currently being served (its Max
	// is the concurrency high-water mark); metConnsShed counts
	// connections rejected by the connection cap, metConnsEvicted
	// connections cut by the server because a slow reader let a write
	// pass its deadline.
	metConnsActive  = obs.Default.Gauge("netproto.conns.active")
	metConnsShed    = obs.Default.Counter("netproto.conns.shed")
	metConnsEvicted = obs.Default.Counter("netproto.conns.evicted")
	// metPanicsRecovered counts per-connection handler panics that were
	// isolated to their connection instead of crashing the server.
	metPanicsRecovered = obs.Default.Counter("netproto.panics.recovered")
	// metDrainSeconds is the distribution of graceful-shutdown drain
	// times (listener close → all handlers done).
	metDrainSeconds = obs.Default.Histogram("netproto.drain.seconds",
		[]float64{0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10})
	// metSubsActive gauges live stream subscribers (cursors reading
	// the session history).
	metSubsActive = obs.Default.Gauge("netproto.stream.subs.active")

	// Hello outcomes (server side): connections opened onto locb2 (one
	// per accepted hello), and refusals — an unknown codec, a mid-stream
	// hello, or a push/subscribe on a connection that never said hello.
	// Plain JSON connections (fetch, metrics) count nowhere.
	metCodecBinary   = obs.Default.Counter("netproto.codec.binary")
	metCodecRejected = obs.Default.Counter("netproto.codec.rejected")
	// metPipelineInflight gauges push/drain exchanges written but not
	// yet answered across all pipelined fleet clients; its Max is the
	// realized pipelining depth.
	metPipelineInflight = obs.Default.Gauge("netproto.pipeline.inflight")
)
