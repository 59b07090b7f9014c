package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"locble/internal/env"
	"locble/internal/estimate"
	"locble/internal/rf"
	"locble/internal/robust"
	"locble/internal/sigproc"
)

// SessionCheckpointVersion is the current checkpoint format version.
// The version is bumped whenever the serialized state changes shape or
// meaning; Restore rejects any other version rather than guessing (a
// checkpoint is filter state — a misinterpreted field silently corrupts
// every subsequent fix, which is worse than a cold start).
//
// Version history:
//
//	1 — initial format (filters, window, fix schedule, last fix).
//	2 — degradation-ladder state: the last fix carries its FixMode, and
//	    the checkpoint adds the Γ-drift history, recalibration and
//	    eviction counters. A v1 restore would silently land on the
//	    wrong ladder rung, so v1 checkpoints are rejected.
//	3 — explicit TX-power-drift recalibration state: the estimator
//	    field now holds the session's creation-time base config, and
//	    the cumulative Γ-band shift is a separate gamma_shift field
//	    that Restore re-applies. v2 stored the live (possibly
//	    re-anchored) band inside the estimator config with nothing
//	    marking it as shifted, so a restore path that rebuilt the
//	    session from nominal configuration silently reverted the Γ
//	    prior while keeping the recalibration counter — the two facts
//	    disagreed and nothing could tell. v2 checkpoints are rejected.
const SessionCheckpointVersion = 3

// Errors.
var (
	// ErrCheckpointVersion is returned when a checkpoint was written by
	// an incompatible format version.
	ErrCheckpointVersion = errors.New("core: unsupported session checkpoint version")
	// ErrSessionConfig is returned for an invalid session configuration.
	ErrSessionConfig = errors.New("core: invalid track-session config")
	// ErrCorruptCheckpoint marks a stored checkpoint that cannot be
	// decoded — the bytes are damaged or not a checkpoint at all.
	// Stores wrap it so restore paths can distinguish "this beacon's
	// state is unrecoverable, quarantine it and cold-start" from a
	// transient storage error worth failing the request over.
	ErrCorruptCheckpoint = errors.New("core: corrupt session checkpoint")
)

// TrackSessionConfig configures a streaming tracking session.
type TrackSessionConfig struct {
	// Beacon names the tracked beacon (for bookkeeping; the session
	// consumes already-demultiplexed observations).
	Beacon string
	// Window and Step set the fix schedule: a fix every Step seconds,
	// fitted on the last Window seconds. Zero selects 6 s / 2 s; a
	// negative value is ErrSessionConfig. TrackBeacon's arguments land
	// here too.
	Window, Step float64
	// SampleRateHz is the RSS report rate the streaming ANF is designed
	// for (zero selects the pipeline default of 9 Hz).
	SampleRateHz float64
	// Estimator overrides the engine's estimator configuration (nil
	// keeps it). Callers anchoring Γ to a beacon's advertised power set
	// GammaSoftMin/Max here, as Engine.prepare does for batch runs.
	Estimator *estimate.Config
}

// TrackSession is the tracker: a long-running server feeds fused
// observations in one at a time and receives a location fix whenever a
// window completes, and TrackBeacon replays a whole trace through one.
// All filter state is held incrementally — the streaming BF+AKF
// cascade, the EnvAware change monitor, and the sliding observation
// window — so the session can be checkpointed at any observation
// boundary and restored in a fresh process, resuming sample-for-sample:
// every fix after the restore is bit-identical to the uninterrupted
// run's.
//
// A session is owned by one goroutine (one per tracked beacon); it is
// not safe for concurrent Push calls.
type TrackSession struct {
	eng    *Engine
	beacon string
	window float64
	step   float64
	fs     float64
	// estCfg is the live estimator config: the creation-time base plus
	// any TX-power-drift re-anchoring of the Γ band. baseEstCfg keeps
	// the base so a checkpoint can record "configuration" and "drift
	// state" separately instead of conflating them.
	estCfg     estimate.Config
	baseEstCfg estimate.Config

	akf *sigproc.AKF // nil when the engine disables ANF
	mon *env.Monitor // nil when the engine disables EnvAware

	buf      []estimate.Obs // fused observations inside the window
	hasFirst bool
	firstT   float64
	nextFix  float64
	last     *TrackPoint

	pushed       int64
	droppedBad   int64 // non-finite fields
	droppedOrder int64 // out-of-order timestamps
	fixes        int64

	// Degradation-ladder state: gammaHist is a fixed ring holding the
	// running window of fitted Γ values the TX-power-drift detector
	// takes its median over (gammaN filled entries, gammaPos next write
	// slot; the median is order-independent, so ring layout never
	// matters). gammaScratch is the median's sort buffer — both live
	// inside the session so a warm Push allocates nothing. gammaShift
	// is the cumulative band re-anchoring applied on top of baseEstCfg;
	// recals counts re-anchorings; evicted counts last-known fixes
	// dropped for exceeding the staleness bound.
	gammaHist    [driftHistLen]float64
	gammaScratch [driftHistLen]float64
	gammaN       int
	gammaPos     int
	gammaShift   float64
	recals       int64
	evicted      int64

	curEnv rf.Environment
	hasEnv bool
}

// NewTrackSession starts a streaming tracking session on this engine's
// pipeline configuration (ANF design, EnvAware window/hysteresis,
// estimator settings).
func (e *Engine) NewTrackSession(cfg TrackSessionConfig) (*TrackSession, error) {
	if cfg.Beacon == "" {
		return nil, fmt.Errorf("%w: empty beacon name", ErrSessionConfig)
	}
	if cfg.Window == 0 {
		cfg.Window = 6
	}
	if cfg.Step == 0 {
		cfg.Step = 2
	}
	if cfg.SampleRateHz == 0 {
		cfg.SampleRateHz = 9
	}
	if cfg.Window < 0 || cfg.Step < 0 || cfg.SampleRateHz < 0 {
		return nil, fmt.Errorf("%w: negative window/step/rate", ErrSessionConfig)
	}
	estCfg := e.cfg.Estimator
	if cfg.Estimator != nil {
		estCfg = *cfg.Estimator
	}
	estCfg.Cancel = nil // live sessions are push-driven; a replay sets its own

	s := &TrackSession{
		eng:        e,
		beacon:     cfg.Beacon,
		window:     cfg.Window,
		step:       cfg.Step,
		fs:         cfg.SampleRateHz,
		estCfg:     estCfg,
		baseEstCfg: estCfg,
	}
	if !e.cfg.DisableANF {
		bf, err := sigproc.NewButterworth(e.cfg.ButterworthOrder,
			math.Min(e.cfg.CutoffHz, cfg.SampleRateHz/2*0.8), cfg.SampleRateHz)
		if err != nil {
			return nil, fmt.Errorf("core: session ANF design: %w", err)
		}
		akf := sigproc.NewAKF(bf)
		if e.cfg.AKFMaxAlpha > 0 {
			akf.MaxAlpha = e.cfg.AKFMaxAlpha
		}
		s.akf = akf
	}
	if !e.cfg.DisableEnvAware {
		s.mon = env.NewMonitor(e.clf, e.cfg.EnvWindow, e.cfg.EnvHysteresis)
	}
	return s, nil
}

// Push feeds one fused observation (time, raw RSS, relative
// displacement) into the session. It returns a fix when this
// observation completed a window, nil otherwise. Non-finite or
// out-of-order observations are dropped (counted, and reflected in the
// next fix's Health) — a live wire feed duplicates and mangles. So is a
// timestamp too large for the fix schedule to step past in float64.
func (s *TrackSession) Push(o estimate.Obs) (*TrackPoint, error) {
	s.pushed++
	if !finiteObs(o) {
		s.droppedBad++
		return nil, nil
	}
	if len(s.buf) > 0 && o.T <= s.buf[len(s.buf)-1].T || o.T+s.step/2 == o.T {
		s.droppedOrder++
		return nil, nil
	}

	raw := o.RSS
	if s.akf != nil {
		o.RSS = s.akf.Process(raw)
	}
	if s.mon != nil {
		_, _, changed, err := s.mon.Push(raw)
		if err != nil {
			return nil, fmt.Errorf("core: session EnvAware: %w", err)
		}
		if cur, ok := s.mon.Current(); ok {
			s.curEnv, s.hasEnv = cur, true
		}
		if changed {
			// Streaming analog of Algorithm 1's regression restart: the
			// change was detected at the end of a hysteresis run of
			// windows but happened inside it, so keep only those recent
			// samples — they belong to the new environment — and let the
			// old ones age out instead of mixing channel models.
			keep := s.eng.cfg.EnvWindow * s.eng.cfg.EnvHysteresis
			if keep < 1 {
				keep = 1
			}
			if len(s.buf) > keep {
				s.buf = append(s.buf[:0], s.buf[len(s.buf)-keep:]...)
			}
		}
	}

	if !s.hasFirst {
		s.hasFirst = true
		s.firstT = o.T
		s.nextFix = o.T + s.window
	}
	s.buf = append(s.buf, o)
	lo := 0
	for lo < len(s.buf) && s.buf[lo].T < o.T-s.window {
		lo++
	}
	if lo > 0 {
		s.buf = append(s.buf[:0], s.buf[lo:]...)
	}

	if o.T < s.nextFix {
		return nil, nil
	}
	tEnd := s.nextFix
	// A gap of several steps skips its missed due times in one jump; a
	// crossing within one step takes the single addition below, as it
	// always has, so continuous streams keep their exact fix times.
	if k := math.Floor((o.T - s.nextFix) / s.step); k >= 1 {
		s.nextFix += k * s.step
	}
	for s.nextFix <= o.T {
		s.nextFix += s.step
	}
	return s.fix(tEnd)
}

// finish closes a replayed trace: its end reaches the next due time, so
// the fix due then is emitted when observations arrived after the last
// due time, or when no fix has been due yet (a trace shorter than one
// window). A trace whose newest observation sits on the last due time —
// Push stepped the schedule on from it — was closed by that window.
func (s *TrackSession) finish() (*TrackPoint, error) {
	if len(s.buf) == 0 {
		return nil, nil
	}
	dueYet := s.nextFix != s.firstT+s.window
	if dueYet && s.buf[len(s.buf)-1].T+s.step == s.nextFix {
		return nil, nil
	}
	return s.fix(s.nextFix)
}

// fix fits the current window as the fix due at tEnd: the paper's
// regression, mirror ambiguity resolved against the previous fix, the
// Γ-drift detector fed — or, when the window is too thin or fits badly,
// the ladder's last-known rung. A canceled fit returns
// estimate.ErrCanceled rather than counting as a bad window.
func (s *TrackSession) fix(tEnd float64) (*TrackPoint, error) {
	if len(s.buf) < s.estCfg.MinSamples {
		return s.staleFix(tEnd), nil
	}

	spReg := s.eng.met.stRegress.Start()
	est, err := estimate.Run(s.buf, s.estCfg)
	spReg.End()
	if errors.Is(err, estimate.ErrCanceled) {
		return nil, err
	}
	if err != nil || !finiteEstimate(est) {
		// A window that fits badly yields no full fix; the ladder's
		// bottom rung re-emits the last real fix while it is fresh.
		return s.staleFix(tEnd), nil
	}
	if est.Ambiguous && s.last != nil {
		est = est.Nearest(estimate.Candidate{X: s.last.Est.X, H: s.last.Est.H})
	}
	s.noteGamma(est.Gamma)
	pt := TrackPoint{
		T:           tEnd,
		Est:         est,
		WindowStart: s.buf[0].T,
		Samples:     len(s.buf),
		Health:      s.health(),
		Mode:        ModeFull,
	}
	s.last = &pt
	s.fixes++
	s.eng.met.sessFixes.Inc()
	return &pt, nil
}

// staleFix is the last-known rung: when a due window produced no full
// fix, re-emit the previous real fix (its estimate, no window samples,
// health degraded with stale-fix) while it is within the staleness
// bound. Beyond the bound the tracking state is evicted — an ancient fix
// must neither be shown nor steer later mirror-ambiguity resolution.
func (s *TrackSession) staleFix(tEnd float64) *TrackPoint {
	if s.eng.cfg.Ladder.DisableLastKnown || s.last == nil {
		return nil
	}
	if tEnd-s.last.T > DefaultStaleMaxAge {
		s.last = nil
		s.evicted++
		s.eng.met.sessEvicted.Inc()
		return nil
	}
	h := s.health()
	h.degrade(ReasonStaleFix)
	s.fixes++
	s.eng.met.sessFixes.Inc()
	s.eng.met.modeLastKnown.Inc()
	return &TrackPoint{
		T:           tEnd,
		Est:         s.last.Est,
		WindowStart: s.last.WindowStart,
		Mode:        ModeLastKnown,
		Health:      h,
	}
}

// TX-power-drift detection: a dying battery shifts the beacon's real
// transmit power — and with it every fitted Γ — downward over minutes.
// The detector keeps a short running window of fitted Γ values; when
// their median leaves the plausibility band's center by more than the
// threshold, the band is re-anchored around the drifted value so the
// estimator's prior stops fighting the data. The threshold was meant to
// exceed a healthy beacon's normal fitted-Γ-to-band-center offset, but
// clean streams cross it too: every fleet.SynthStream session
// recalibrates, and so do some clean simulated patrols, NLOS ones most
// often. These false alarms are measured in DESIGN.md § TX-power-drift
// recalibration; fixing the detector changes served fixes.
const (
	driftHistLen     = 8
	driftMinFixes    = 5
	driftThresholdDB = 8.0
)

// noteGamma folds one full fix's fitted Γ into the drift detector,
// re-anchoring the estimator's Γ plausibility band when the running
// median has drifted beyond the threshold.
func (s *TrackSession) noteGamma(gamma float64) {
	if s.estCfg.GammaSoftMin == 0 && s.estCfg.GammaSoftMax == 0 {
		return // no band to anchor
	}
	s.gammaHist[s.gammaPos] = gamma
	s.gammaPos++
	if s.gammaPos == driftHistLen {
		s.gammaPos = 0
	}
	if s.gammaN < driftHistLen {
		s.gammaN++
	}
	if s.gammaN < driftMinFixes {
		return
	}
	n := copy(s.gammaScratch[:], s.gammaHist[:s.gammaN])
	med := robust.MedianInPlace(s.gammaScratch[:n])
	center := (s.estCfg.GammaSoftMin + s.estCfg.GammaSoftMax) / 2
	if math.Abs(med-center) > driftThresholdDB {
		s.gammaShift += med - center
		s.applyGammaShift()
		s.gammaN, s.gammaPos = 0, 0 // re-measure against the new anchor
		s.recals++
		s.eng.met.sessRecals.Inc()
	}
}

// applyGammaShift sets the live Γ band to the base band plus the
// cumulative shift. Live recalibration and RestoreTrackSession both go
// through it, so a restored band is bit-identical to the live one:
// shifting the band one recalibration at a time would round differently
// (floating-point addition is not associative) after two or more
// recalibrations.
func (s *TrackSession) applyGammaShift() {
	s.estCfg.GammaSoftMin = s.baseEstCfg.GammaSoftMin + s.gammaShift
	s.estCfg.GammaSoftMax = s.baseEstCfg.GammaSoftMax + s.gammaShift
}

// gammaHistOldestFirst appends the drift window to dst oldest-first:
// while the ring is filling, entries 0..gammaN-1 are already in push
// order; once it wraps, the oldest entry sits at the next write slot.
// The linear form is what checkpoints carry — a restored ring rebuilt
// from it evicts entries in the same order the live one would.
func (s *TrackSession) gammaHistOldestFirst(dst []float64) []float64 {
	if s.gammaN < driftHistLen {
		return append(dst, s.gammaHist[:s.gammaN]...)
	}
	dst = append(dst, s.gammaHist[s.gammaPos:]...)
	return append(dst, s.gammaHist[:s.gammaPos]...)
}

// health summarizes the stream quality seen so far.
func (s *TrackSession) health() Health {
	h := Health{}
	if s.droppedBad > 0 {
		h.add(ReasonNonFiniteRSS)
	}
	if s.droppedOrder > 0 {
		h.add(ReasonTimestampAnomaly)
	}
	if s.recals > 0 {
		h.add(ReasonTxPowerDrift)
	}
	if s.evicted > 0 {
		h.add(ReasonBeaconEvicted)
	}
	h.Dropped = int(s.droppedBad + s.droppedOrder)
	if len(h.Reasons) > 0 {
		h.Status = HealthDegraded
	}
	return h
}

func finiteObs(o estimate.Obs) bool {
	for _, v := range []float64{o.T, o.RSS, o.P, o.Q} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Beacon returns the tracked beacon's name.
func (s *TrackSession) Beacon() string { return s.beacon }

// Fixes returns how many fixes the session has emitted.
func (s *TrackSession) Fixes() int64 { return s.fixes }

// Pushed returns how many observations were fed in (including dropped).
func (s *TrackSession) Pushed() int64 { return s.pushed }

// LastFix returns the most recent fix, or nil before the first.
func (s *TrackSession) LastFix() *TrackPoint { return s.last }

// Environment returns EnvAware's current classification of the link.
func (s *TrackSession) Environment() (rf.Environment, bool) { return s.curEnv, s.hasEnv }

// SessionCheckpoint is the versioned serialized state of a TrackSession.
// It captures everything the next Push depends on: the ANF cascade's
// delay lines and adaptation, the EnvAware window and hysteresis, the
// sliding observation window, the fix schedule, and the last fix (for
// mirror-ambiguity resolution). It deliberately does NOT capture the
// engine configuration or the trained classifier — those are
// configuration, and a checkpoint must be restored into an engine
// configured identically to the one that wrote it.
type SessionCheckpoint struct {
	Version int    `json:"version"`
	Beacon  string `json:"beacon"`

	Window       float64 `json:"window"`
	Step         float64 `json:"step"`
	SampleRateHz float64 `json:"sample_rate_hz"`
	// Estimator is the session's creation-time base configuration. Any
	// TX-power-drift re-anchoring of its Γ band lives in GammaShift —
	// Restore applies base + shift, so drift state survives a restart
	// explicitly instead of hiding inside a mutated config.
	Estimator estimate.Config `json:"estimator"`

	AKF *sigproc.AKFState `json:"akf,omitempty"`
	Env *env.MonitorState `json:"env,omitempty"`

	WindowObs []estimate.Obs `json:"window_obs"`
	HasFirst  bool           `json:"has_first"`
	FirstT    float64        `json:"first_t"`
	NextFix   float64        `json:"next_fix"`
	LastFix   *TrackPoint    `json:"last_fix,omitempty"`

	Pushed       int64 `json:"pushed"`
	DroppedBad   int64 `json:"dropped_bad"`
	DroppedOrder int64 `json:"dropped_order"`
	Fixes        int64 `json:"fixes"`

	// Degradation-ladder state: the Γ-drift median window (oldest
	// first), the cumulative Γ-band shift accrued by recalibrations,
	// and the recalibration/eviction counters. LastFix carries its
	// FixMode.
	GammaHist      []float64 `json:"gamma_hist,omitempty"`
	GammaShift     float64   `json:"gamma_shift"`
	Recalibrations int64     `json:"recalibrations"`
	Evicted        int64     `json:"evicted"`
}

// EncodeCheckpoint is the one byte encoding of a checkpoint that
// checkpoint stores keep: exactly json.Marshal's output, so stored WAL
// records, snapshots and crash images written before it read back
// unchanged.
func EncodeCheckpoint(cp *SessionCheckpoint) ([]byte, error) {
	return json.Marshal(cp)
}

// DecodeCheckpoint decodes bytes written by EncodeCheckpoint. Bytes that
// do not decode are corruption, not a transient store fault, so the
// error wraps ErrCorruptCheckpoint: a fleet then quarantines the
// checkpoint instead of failing the beacon's batches forever.
func DecodeCheckpoint(raw []byte) (*SessionCheckpoint, error) {
	var cp SessionCheckpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return nil, fmt.Errorf("%w (%w)", ErrCorruptCheckpoint, err)
	}
	return &cp, nil
}

// Checkpoint captures the session's complete streaming state. Take it
// between Push calls (the session is single-goroutine, so any moment
// the owner is not inside Push is a consistent boundary).
func (s *TrackSession) Checkpoint() *SessionCheckpoint {
	cp := &SessionCheckpoint{
		Version:      SessionCheckpointVersion,
		Beacon:       s.beacon,
		Window:       s.window,
		Step:         s.step,
		SampleRateHz: s.fs,
		Estimator:    s.baseEstCfg,
		WindowObs:    append([]estimate.Obs(nil), s.buf...),
		HasFirst:     s.hasFirst,
		FirstT:       s.firstT,
		NextFix:      s.nextFix,
		Pushed:       s.pushed,
		DroppedBad:   s.droppedBad,
		DroppedOrder: s.droppedOrder,
		Fixes:        s.fixes,

		GammaHist:      s.gammaHistOldestFirst(nil),
		GammaShift:     s.gammaShift,
		Recalibrations: s.recals,
		Evicted:        s.evicted,
	}
	if s.akf != nil {
		st := s.akf.Snapshot()
		cp.AKF = &st
	}
	if s.mon != nil {
		st := s.mon.Snapshot()
		cp.Env = &st
	}
	if s.last != nil {
		last := *s.last
		cp.LastFix = &last
	}
	s.eng.met.sessCheckpoints.Inc()
	return cp
}

// WriteCheckpoint writes the session's checkpoint in EncodeCheckpoint's
// bytes, the same a checkpoint store keeps.
func (s *TrackSession) WriteCheckpoint(w io.Writer) error {
	raw, err := EncodeCheckpoint(s.Checkpoint())
	if err == nil {
		_, err = w.Write(raw)
	}
	if err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// RestoreTrackSession rebuilds a session from a checkpoint taken in a
// previous process. The engine must be configured identically to the
// one that wrote the checkpoint (same ANF design, EnvAware settings and
// classifier training); a detectable mismatch — wrong version, filter
// design, or ablation switches — is an error rather than a divergent
// resume. The restore depth (window samples resumed without
// re-filtering) is recorded in "core.session.restore.depth".
func (e *Engine) RestoreTrackSession(cp *SessionCheckpoint) (*TrackSession, error) {
	if cp.Version != SessionCheckpointVersion {
		return nil, fmt.Errorf("%w: %d (supported: %d)",
			ErrCheckpointVersion, cp.Version, SessionCheckpointVersion)
	}
	estCfg := cp.Estimator
	s, err := e.NewTrackSession(TrackSessionConfig{
		Beacon:       cp.Beacon,
		Window:       cp.Window,
		Step:         cp.Step,
		SampleRateHz: cp.SampleRateHz,
		Estimator:    &estCfg,
	})
	if err != nil {
		return nil, err
	}
	switch {
	case cp.AKF != nil && s.akf == nil:
		return nil, fmt.Errorf("%w: checkpoint carries ANF state but the engine disables ANF",
			sigproc.ErrStateMismatch)
	case cp.AKF == nil && s.akf != nil:
		return nil, fmt.Errorf("%w: checkpoint has no ANF state but the engine enables ANF",
			sigproc.ErrStateMismatch)
	case cp.AKF != nil:
		if err := s.akf.Restore(*cp.AKF); err != nil {
			return nil, fmt.Errorf("core: restore ANF: %w", err)
		}
	}
	switch {
	case cp.Env != nil && s.mon == nil:
		return nil, fmt.Errorf("%w: checkpoint carries EnvAware state but the engine disables EnvAware",
			sigproc.ErrStateMismatch)
	case cp.Env == nil && s.mon != nil:
		return nil, fmt.Errorf("%w: checkpoint has no EnvAware state but the engine enables EnvAware",
			sigproc.ErrStateMismatch)
	case cp.Env != nil:
		s.mon.Restore(*cp.Env)
		if cur, ok := s.mon.Current(); ok {
			s.curEnv, s.hasEnv = cur, true
		}
	}
	s.buf = append(s.buf[:0], cp.WindowObs...)
	s.hasFirst = cp.HasFirst
	s.firstT = cp.FirstT
	s.nextFix = cp.NextFix
	if cp.LastFix != nil {
		last := *cp.LastFix
		s.last = &last
	}
	s.pushed = cp.Pushed
	s.droppedBad = cp.DroppedBad
	s.droppedOrder = cp.DroppedOrder
	s.fixes = cp.Fixes
	// Re-apply the drift state on top of the base config: the shifted Γ
	// band is what the estimator was actually running with when the
	// checkpoint was taken.
	s.gammaShift = cp.GammaShift
	if s.estCfg.GammaSoftMin != 0 || s.estCfg.GammaSoftMax != 0 {
		s.applyGammaShift()
	}
	hist := cp.GammaHist
	if len(hist) > driftHistLen {
		hist = hist[len(hist)-driftHistLen:]
	}
	s.gammaN = copy(s.gammaHist[:], hist)
	s.gammaPos = s.gammaN % driftHistLen
	s.recals = cp.Recalibrations
	s.evicted = cp.Evicted
	e.met.sessRestores.Inc()
	e.met.sessRestoreDepth.Observe(float64(len(cp.WindowObs)))
	return s, nil
}

// RestoreTrackSessionFrom reads a checkpoint written by WriteCheckpoint
// and restores the session. Bytes that do not decode match
// ErrCorruptCheckpoint, as DecodeCheckpoint reports them.
func (e *Engine) RestoreTrackSessionFrom(r io.Reader) (*TrackSession, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	cp, err := DecodeCheckpoint(raw)
	if err != nil {
		return nil, err
	}
	return e.RestoreTrackSession(cp)
}
