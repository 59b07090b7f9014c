// Package locble is a Go implementation of LocBLE — "Locating and
// Tracking BLE Beacons with Smartphones" (Chen, Shin, Jiang, Kim;
// CoNEXT 2017) — together with the full simulation substrate needed to
// reproduce the paper's evaluation: a byte-level BLE advertising stack,
// a 2.4 GHz propagation simulator, an IMU/gait synthesizer, and the
// LocBLE pipeline itself (EnvAware environment recognition, adaptive
// noise filtering, sensor-fusion elliptical regression, L-shape
// disambiguation, and multi-beacon DTW clustering calibration).
//
// # Quick start
//
//	sys, err := locble.New()
//	trace, err := locble.Simulate(locble.Scenario{
//	    Beacons:      []locble.BeaconSpec{{Name: "keys", X: 6, Y: 3}},
//	    ObserverPlan: locble.LShapeWalk(0, 4, 4),
//	    Seed:         1,
//	})
//	pos, err := sys.Locate(trace, "keys")
//	fmt.Printf("keys at (%.1f, %.1f) ± conf %.2f\n", pos.X, pos.Y, pos.Confidence)
//
// Coordinates are relative to the observer's starting position in metres
// (paper Sec. 5: the origin is where the measurement walk begins).
package locble

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"

	"locble/internal/cluster"
	"locble/internal/core"
	"locble/internal/durable"
	"locble/internal/estimate"
	"locble/internal/fleet"
	"locble/internal/imu"
	"locble/internal/obs"
	"locble/internal/rf"
	"locble/internal/router"
	"locble/internal/sim"
)

// Re-exported substrate types, so applications never import internal
// packages directly.
type (
	// Scenario describes a simulated measurement run (beacons, walking
	// plan, environment, phone hardware, seed).
	Scenario = sim.Scenario
	// BeaconSpec places one beacon in the world.
	BeaconSpec = sim.BeaconSpec
	// Trace is the output of a simulated measurement: scan reports plus
	// IMU samples plus ground truth.
	Trace = sim.Trace
	// WalkPlan is an observer (or moving-target) walking plan.
	WalkPlan = imu.Plan
	// WalkSegment is one leg of a walking plan.
	WalkSegment = imu.Segment
	// DeviceProfile models a phone's receiver hardware.
	DeviceProfile = rf.DeviceProfile
	// BeaconHardware models transmitter hardware (Estimote, RadBeacon,
	// a phone in beacon mode, …).
	BeaconHardware = rf.TxProfile
	// Environment is the propagation class (LOS / p-LOS / NLOS).
	Environment = rf.Environment
	// EnvModel decides the propagation class per link and moment.
	EnvModel = sim.EnvModel
	// Estimate is a raw estimator output.
	Estimate = estimate.Estimate
	// ClusterResult reports the multi-beacon calibration outcome.
	ClusterResult = cluster.Result
	// Preset is one of the paper's Table 1 environments.
	Preset = sim.Preset
)

// Propagation classes.
const (
	LOS  = rf.LOS
	PLOS = rf.PLOS
	NLOS = rf.NLOS
)

// Health reporting: every position carries a graded trust signal instead
// of the usual estimate-or-error binary. HealthOK means clean input;
// HealthDegraded means the input was impaired but recoverable (the
// Reasons list says how); inputs too damaged to use never produce a
// Position — Locate returns a *RejectedError carrying the diagnosis.
type (
	// Health grades how much a result should be trusted.
	Health = core.Health
	// HealthStatus is the overall grade (OK / degraded / rejected).
	HealthStatus = core.HealthStatus
	// HealthReason is a machine-readable degradation cause.
	HealthReason = core.HealthReason
	// RejectedError is returned when the input was unusable; it carries
	// the Health diagnosis (errors.As to recover it).
	RejectedError = core.RejectedError
)

// Health statuses.
const (
	HealthOK       = core.HealthOK
	HealthDegraded = core.HealthDegraded
	HealthRejected = core.HealthRejected
)

// Degradation-ladder and beacon-anomaly reasons, re-exported for
// callers that branch on them (the full taxonomy is documented in
// DESIGN.md § "Health taxonomy").
const (
	// ReasonRSSOnlyFallback: the fix came from the RSS-only proximity
	// rung (range known, bearing not).
	ReasonRSSOnlyFallback = core.ReasonRSSOnlyFallback
	// ReasonStaleFix: a last-known fix re-emitted within the staleness
	// bound.
	ReasonStaleFix = core.ReasonStaleFix
	// ReasonBeaconAnomaly: cloned/spoofed beacon identity detected.
	ReasonBeaconAnomaly = core.ReasonBeaconAnomaly
	// ReasonTxPowerDrift: the beacon's TX power drifted off calibration
	// and Γ was re-anchored.
	ReasonTxPowerDrift = core.ReasonTxPowerDrift
	// ReasonBeaconEvicted: tracking state aged past the staleness bound
	// and was dropped.
	ReasonBeaconEvicted = core.ReasonBeaconEvicted
)

// HealthFromError recovers the Health diagnosis from a Locate/Track
// error (a rejected Health if the error is a *RejectedError).
func HealthFromError(err error) Health { return core.HealthFromError(err) }

// FixMode identifies which rung of the degradation ladder produced a
// position: full RSS+IMU fusion, RSS-only path-loss proximity (IMU
// dropout), or a re-emitted last-known fix within the staleness bound.
type FixMode = core.FixMode

// Degradation-ladder rungs.
const (
	ModeFull      = core.ModeFull
	ModeRSSOnly   = core.ModeRSSOnly
	ModeLastKnown = core.ModeLastKnown
)

// Loss selects the regression loss: classic least squares, or an IRLS
// M-estimator (Huber / Tukey bisquare) that down-weights RSS outliers —
// interference impulses, passing bodies — instead of letting them drag
// the fit (see DESIGN.md, "Robust estimation").
type Loss = estimate.Loss

// Regression losses.
const (
	LossSquared = estimate.LossSquared
	LossHuber   = estimate.LossHuber
	LossTukey   = estimate.LossTukey
)

// ParseLoss parses a loss name ("squared", "huber", "tukey") as the
// CLI's -loss flag does.
func ParseLoss(s string) (Loss, error) { return estimate.ParseLoss(s) }

// Stock hardware profiles.
var (
	IPhone5s       = rf.IPhone5s
	IPhone6s       = rf.IPhone6s
	Nexus5x        = rf.Nexus5x
	Nexus6P        = rf.Nexus6P
	MotoNexus6     = rf.MotoNex6
	EstimoteBeacon = rf.EstimoteBeacon
	RadBeaconUSB   = rf.RadBeaconUSB
	IOSDeviceTx    = rf.IOSDeviceTx
)

// LShapeWalk returns the canonical measurement movement (paper Sec. 5.1):
// walk legA metres along heading (radians), turn 90° left, walk legB
// metres.
func LShapeWalk(heading, legA, legB float64) WalkPlan {
	return WalkPlan{Segments: imu.LShape(heading, legA, legB)}
}

// StraightWalk returns a single-leg walk (leaves the mirror ambiguity
// unresolved; see Position.Ambiguous).
func StraightWalk(heading, distance float64) WalkPlan {
	return WalkPlan{Segments: []WalkSegment{{Heading: heading, Distance: distance}}}
}

// StaticEnv is a constant propagation class for Scenario.EnvModel.
func StaticEnv(e Environment) EnvModel { return sim.StaticEnv(e) }

// Wall is a blocking segment for WallsEnv: links crossing it take the
// wall's propagation class (NLOS for concrete, PLOS for glass/wood).
type Wall = sim.Wall

// WallsEnv is an environment with blocking segments; links are LOS unless
// a wall crosses them (the most blocking wall wins).
func WallsEnv(walls ...Wall) EnvModel { return &sim.WallEnv{Walls: walls} }

// Presets returns the paper's nine Table 1 environments.
func Presets() []Preset { return sim.Presets() }

// Simulate runs a scenario through the BLE + RF + IMU substrate and
// returns the trace a phone app would have recorded.
func Simulate(sc Scenario) (*Trace, error) { return sim.Run(sc) }

// Position is a located beacon.
type Position struct {
	// X, Y in metres, relative to the observer's start; x points along
	// the observer's initial magnetometer heading frame.
	X, Y float64
	// Range is the distance from the observer's starting point.
	Range float64
	// Confidence is the estimation confidence in [0, 1] (paper Sec. 5).
	Confidence float64
	// Environment is EnvAware's final classification of the link.
	Environment Environment
	// PathLossExponent is the estimated n(e).
	PathLossExponent float64
	// Ambiguous marks a straight-walk measurement whose mirror solution
	// could not be ruled out; Mirror then holds the other candidate.
	Ambiguous bool
	Mirror    *Position
	// Health grades how trustworthy this position is given the input
	// quality (see the Health type).
	Health Health
	// Mode identifies the degradation-ladder rung that produced this
	// position (ModeFull for a healthy fusion fix; see FixMode).
	Mode FixMode
}

// Option configures a System.
type Option func(*core.Config)

// WithoutANF disables adaptive noise filtering (ablation).
func WithoutANF() Option { return func(c *core.Config) { c.DisableANF = true } }

// WithoutEnvAware disables environment-change detection (ablation).
func WithoutEnvAware() Option { return func(c *core.Config) { c.DisableEnvAware = true } }

// WithStreamingANF selects the paper's online BF+AKF filter instead of
// the default zero-phase batch filter.
func WithStreamingANF() Option { return func(c *core.Config) { c.StreamingANF = true } }

// WithButterworthOrder overrides the ANF low-pass order (paper: 6).
func WithButterworthOrder(order int) Option {
	return func(c *core.Config) { c.ButterworthOrder = order }
}

// WithLoss selects the regression loss (LossHuber or LossTukey for
// outlier-resistant IRLS estimation; the default is LossSquared).
func WithLoss(l Loss) Option { return func(c *core.Config) { c.Estimator.Loss = l } }

// WithoutDegradationLadder disables both fallback rungs (RSS-only and
// last-known), restoring the strict reject-on-impairment contract.
func WithoutDegradationLadder() Option {
	return func(c *core.Config) {
		c.Ladder.DisableRSSOnly = true
		c.Ladder.DisableLastKnown = true
	}
}

// System is a ready-to-use LocBLE pipeline. Safe for concurrent use.
type System struct {
	engine *core.Engine
}

// New builds a System, training the EnvAware classifier on first use
// (the trained model is cached per process).
func New(opts ...Option) (*System, error) {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("locble: %w", err)
	}
	return &System{engine: eng}, nil
}

// Locate runs the full pipeline for one beacon of a trace.
func (s *System) Locate(tr *Trace, beacon string) (*Position, error) {
	return s.LocateCtx(context.Background(), tr, beacon)
}

// LocateCtx is Locate under a context: a deadline or cancellation (a
// disconnected client, a draining server) stops the pipeline between
// stages and interrupts the regression mid-search. The returned error
// matches the context error under errors.Is.
func (s *System) LocateCtx(ctx context.Context, tr *Trace, beacon string) (*Position, error) {
	m, err := s.engine.LocateContext(ctx, tr, beacon)
	if err != nil {
		return nil, err
	}
	return positionFrom(m), nil
}

// LocateAll locates every beacon visible in the trace concurrently,
// returning positions keyed by beacon name (beacons whose estimation
// failed are omitted).
func (s *System) LocateAll(tr *Trace) map[string]*Position {
	return s.LocateAllCtx(context.Background(), tr)
}

// LocateAllCtx is LocateAll under a context. The fan-out runs at most
// one goroutine per CPU for this call only and joins them before
// returning; cancellation drains it fast (beacons not yet started are
// skipped, in-flight ones stop mid-regression and are omitted like any
// failed beacon).
func (s *System) LocateAllCtx(ctx context.Context, tr *Trace) map[string]*Position {
	out := make(map[string]*Position)
	for _, res := range s.engine.LocateAllContext(ctx, tr) {
		if res.Err == nil {
			out[res.Name] = positionFrom(res.M)
		}
	}
	return out
}

// LocateCalibrated locates the beacon and refines the estimate with the
// multi-beacon clustering calibration (paper Sec. 6) using every other
// beacon visible in the trace.
func (s *System) LocateCalibrated(tr *Trace, beacon string) (*Position, *ClusterResult, error) {
	m, cres, err := s.engine.LocateWithCluster(tr, beacon)
	if err != nil {
		return nil, nil, err
	}
	return positionFrom(m), cres, nil
}

// Navigator starts a navigation session toward a located position
// (paper Sec. 7.3: measure, then dead-reckon toward the target). The
// position's Health is carried into the session, so advice derived from
// a degraded measurement is flagged (Advice.Degraded).
func (s *System) Navigator(p *Position) *core.Navigator {
	n := core.NewNavigator(&estimate.Estimate{X: p.X, H: p.Y})
	n.SourceHealth = p.Health
	return n
}

// Fix is one sliding-window tracking fix.
type Fix struct {
	// T is the fix time in seconds into the trace.
	T float64
	// Position at that fix.
	Position Position
}

// Track produces a stream of location fixes over the trace — a fix every
// step seconds, each fitted on the last window seconds (the "tracking"
// of the paper's title). Zero values select window = 6 s, step = 2 s;
// negative ones are rejected.
func (s *System) Track(tr *Trace, beacon string, window, step float64) ([]Fix, error) {
	return s.TrackCtx(context.Background(), tr, beacon, window, step)
}

// TrackCtx is Track under a context: a deadline or cancellation stops
// the run between windows (no partial fixes are returned).
func (s *System) TrackCtx(ctx context.Context, tr *Trace, beacon string, window, step float64) ([]Fix, error) {
	pts, err := s.engine.TrackBeaconContext(ctx, tr, beacon, window, step)
	if err != nil {
		return nil, err
	}
	fixes := make([]Fix, len(pts))
	for i, p := range pts {
		fixes[i] = Fix{T: p.T, Position: Position{
			X:                p.Est.X,
			Y:                p.Est.H,
			Range:            p.Est.Range(),
			Confidence:       p.Est.Confidence,
			PathLossExponent: p.Est.N,
			Ambiguous:        p.Est.Ambiguous,
			Health:           p.Health,
			Mode:             p.Mode,
		}}
	}
	return fixes, nil
}

// TrackSmoothed is Track followed by a 2-D constant-velocity Kalman
// smoother over the fixes — the stable track a live UI would draw.
// processAccel is the assumed target acceleration in m/s² (0 for a
// stationary beacon, ~0.3 for a walking person).
func (s *System) TrackSmoothed(tr *Trace, beacon string, window, step, processAccel float64) ([]Fix, error) {
	pts, err := s.engine.TrackBeacon(tr, beacon, window, step)
	if err != nil {
		return nil, err
	}
	smoothed := core.SmoothFixes(pts, processAccel, 1.5)
	health := pts[0].Health
	fixes := make([]Fix, len(smoothed))
	for i, p := range smoothed {
		fixes[i] = Fix{T: p.T, Position: Position{
			X:     p.X,
			Y:     p.Y,
			Range: math.Hypot(p.X, p.Y),
			// Map the filter's 1-σ uncertainty onto a [0,1] confidence.
			Confidence: 1 / (1 + p.PosStdDev),
			Health:     health,
		}}
	}
	return fixes, nil
}

// LocateNear locates a beacon and applies the last-metre proximity
// refinement (paper Sec. 9.2): when the walk passed within ~2 m of the
// beacon, the proximity-implied range corrects the fix.
func (s *System) LocateNear(tr *Trace, beacon string) (*Position, error) {
	m, err := s.engine.Locate(tr, beacon)
	if err != nil {
		return nil, err
	}
	refined := s.engine.RefineWithProximity(m, core.DefaultProximityFusionConfig())
	m2 := *m
	m2.Est = refined
	return positionFrom(&m2), nil
}

// Position3D is a located beacon with height (paper Sec. 9.3).
type Position3D struct {
	X, Y, Z    float64
	Range      float64
	Confidence float64
}

// Locate3D runs the 3-D extension: the observer plan must include a
// vertical phone gesture (WalkSegment.Lift) so the movement spans three
// dimensions; the estimate then includes the beacon's height relative to
// the phone's carry plane.
func (s *System) Locate3D(tr *Trace, beacon string) (*Position3D, error) {
	est, err := s.engine.Locate3D(tr, beacon)
	if err != nil {
		return nil, err
	}
	return &Position3D{
		X: est.X, Y: est.H, Z: est.Z,
		Range:      est.Range(),
		Confidence: est.Confidence,
	}, nil
}

// Streaming sessions: the facade's window on the long-running serving
// path. A TrackSession consumes fused observations one at a time,
// emits a fix per completed window, and can be checkpointed to a
// versioned JSON snapshot and restored in a fresh process,
// resuming sample-for-sample (see DESIGN.md, "Checkpoint / restore").
type (
	// TrackSession is a streaming per-beacon tracking session.
	TrackSession = core.TrackSession
	// TrackSessionConfig configures a TrackSession.
	TrackSessionConfig = core.TrackSessionConfig
	// SessionCheckpoint is a session's versioned serialized state.
	SessionCheckpoint = core.SessionCheckpoint
	// Obs is one fused observation (time, RSS, relative displacement)
	// — the input unit of a TrackSession.
	Obs = estimate.Obs
)

// NewTrackSession starts a streaming tracking session on this System's
// pipeline configuration.
func (s *System) NewTrackSession(cfg TrackSessionConfig) (*TrackSession, error) {
	return s.engine.NewTrackSession(cfg)
}

// RestoreTrackSession reads a JSON checkpoint written by
// TrackSession.WriteCheckpoint and resumes the session. The System must
// be configured identically to the one that wrote the checkpoint.
func (s *System) RestoreTrackSession(r io.Reader) (*TrackSession, error) {
	return s.engine.RestoreTrackSessionFrom(r)
}

// Fleet serving: the multi-session front end over streaming sessions.
// A Fleet owns thousands of per-beacon TrackSessions behind a sharded
// registry, ingests mixed observation batches, evicts idle sessions to
// a checkpoint store and restores them bit-exactly when their beacon
// reappears (see DESIGN.md, "Fleet serving").
type (
	// Fleet is a concurrent multi-session tracking service.
	Fleet = fleet.Fleet
	// FleetConfig configures a Fleet (shard count, session template,
	// checkpoint store, idle horizon, per-shard session cap).
	FleetConfig = fleet.Config
	// FleetObs is one beacon-tagged fused observation, the unit of
	// fleet ingest.
	FleetObs = fleet.Obs
	// FleetResult is one beacon's outcome of a PushBatch call.
	FleetResult = fleet.Result
	// CheckpointStore persists evicted sessions' checkpoints; the
	// in-process implementation is NewMemStore.
	CheckpointStore = fleet.CheckpointStore
)

// NewMemStore returns the in-process CheckpointStore.
func NewMemStore() *fleet.MemStore { return fleet.NewMemStore() }

// Durable checkpoint storage: a crash-safe file-backed CheckpointStore.
// Each shard keeps a CRC-framed write-ahead log compacted into periodic
// atomic snapshots; recovery replays snapshot+WAL, truncates torn tails
// and quarantines bit-rotted records instead of silently accepting them
// (see DESIGN.md, "Durability").
type (
	// FileStore is the file-backed durable CheckpointStore.
	FileStore = durable.FileStore
	// FileStoreOptions tunes a FileStore (shard count, snapshot
	// cadence, buffered vs synchronous acknowledgement).
	FileStoreOptions = durable.Options
	// StoreRecoveryStats reports what recovery found and repaired when
	// a FileStore was opened.
	StoreRecoveryStats = durable.RecoveryStats
)

// NewFileStore opens (creating if needed) a durable CheckpointStore
// rooted at dir with default options: 4 shards, snapshot every 512
// records, every Save acknowledged only after fsync. Inspect
// (*FileStore).RecoveryStats for what recovery replayed and repaired.
func NewFileStore(dir string) (*FileStore, error) { return durable.Open(dir, nil) }

// OpenFileStore is NewFileStore with explicit options.
func OpenFileStore(dir string, opt *FileStoreOptions) (*FileStore, error) {
	return durable.Open(dir, opt)
}

// NewFleet starts a fleet-scale session manager on this System's
// pipeline configuration.
func (s *System) NewFleet(cfg FleetConfig) (*Fleet, error) {
	return fleet.New(s.engine, cfg)
}

// Multi-node routing: scale fleet serving across machines. A Router
// fans mixed observation batches over N netproto fleet servers through
// a consistent-hash ring, merges per-beacon results in input
// order bit-identically to a single fleet's sequential replay, drains
// nodes for planned membership changes (their sessions hand off through
// the shared checkpoint store), and fails a dead node's key range over
// to the survivors with typed degraded results (see DESIGN.md,
// "Multi-node routing").
type (
	// Router is the consistent-hash fan-out over fleet servers.
	Router = router.Router
	// RouterConfig configures a Router. Its only field is the wire
	// codec; the ring (64 virtual nodes per node) and the per-node
	// circuit breaker are the same on every router, so gateways agree
	// on each beacon's owner.
	RouterConfig = router.Config
	// RouterResult is one beacon's merged outcome of a routed
	// PushBatch.
	RouterResult = router.Result
	// RouterNodeStatus is one node's membership view (up / probing /
	// down / drained).
	RouterNodeStatus = router.NodeStatus
)

// NewRouter builds a router over the netproto fleet servers at addrs.
// Connections are dialed lazily, so nodes may come up after the router.
func NewRouter(addrs []string, cfg RouterConfig) (*Router, error) {
	return router.New(addrs, cfg)
}

// SaveTrace writes a trace as gzip-compressed JSON for offline analysis.
func SaveTrace(w io.Writer, tr *Trace) error { return sim.SaveTrace(w, tr) }

// LoadTrace reads a trace written by SaveTrace.
func LoadTrace(r io.Reader) (*Trace, error) { return sim.LoadTrace(r) }

// Engine exposes the underlying pipeline for advanced use (benchmarks,
// custom experiments).
func (s *System) Engine() *core.Engine { return s.engine }

// Metrics is a point-in-time copy of a metric registry: monotone
// counters, gauges with high-water marks, and fixed-bucket latency /
// value histograms. It marshals to JSON (expvar-style).
type Metrics = obs.Snapshot

// Metrics returns this System's pipeline metrics — per-stage latency
// histograms (sanitize / motion / filter / classify / regress), health
// and drop-reason counts, AKF adaptation stats, and LocateAll
// concurrency — scoped to this System only.
func (s *System) Metrics() Metrics { return s.engine.Metrics() }

// ProcessMetrics returns the process-wide metric snapshot shared by all
// Systems: sigproc, estimate, and netproto library instrumentation
// (position-search iterations, L-shape outcomes, wire frame counts, …).
func ProcessMetrics() Metrics { return obs.Default.Snapshot() }

// MetricsHandler returns an http.Handler serving the process-wide
// metric snapshot as JSON — mount it next to net/http/pprof for a
// self-describing diagnostics endpoint.
func MetricsHandler() http.Handler { return obs.Default.Handler() }

func positionFrom(m *core.Measurement) *Position {
	p := &Position{
		X:                m.Est.X,
		Y:                m.Est.H,
		Range:            m.Est.Range(),
		Confidence:       m.Est.Confidence,
		Environment:      m.FinalEnv,
		PathLossExponent: m.Est.N,
		Ambiguous:        m.Est.Ambiguous,
		Health:           m.Health,
		Mode:             m.Mode,
	}
	if m.Est.Ambiguous && len(m.Est.Candidates) == 2 {
		alt := m.Est.Candidates[1]
		if math.Abs(alt.X-p.X) < 1e-9 && math.Abs(alt.H-p.Y) < 1e-9 {
			alt = m.Est.Candidates[0]
		}
		p.Mirror = &Position{X: alt.X, Y: alt.H, Range: math.Hypot(alt.X, alt.H), Confidence: p.Confidence}
	}
	return p
}
