package main

import (
	"math"
	"testing"

	"locble/internal/core"
	"locble/internal/estimate"
	"locble/internal/fleet"
	"locble/internal/netproto"
)

// TestFixDigestCoversEveryField: the serve oracle compares served fixes
// with the replay only through fixDigest, so a change to any one field of
// any fix, or to the fixes' order, must change the digest.
func TestFixDigestCoversEveryField(t *testing.T) {
	base := netproto.PushFix{T: 12.5, X: 3.25, Y: 4.5, N: 2.2, Gamma: -58, Confidence: 0.75, Mode: "full", Samples: 48}
	digest := func(fs ...netproto.PushFix) uint64 {
		h := uint64(fnvOffset)
		for _, f := range fs {
			h = fixDigest(h, f)
		}
		return h
	}
	want := digest(base)
	for name, edit := range map[string]func(*netproto.PushFix){
		"T":          func(f *netproto.PushFix) { f.T = math.Nextafter(f.T, 13) },
		"X":          func(f *netproto.PushFix) { f.X = math.Nextafter(f.X, 4) },
		"Y":          func(f *netproto.PushFix) { f.Y = math.Nextafter(f.Y, 5) },
		"N":          func(f *netproto.PushFix) { f.N = math.Nextafter(f.N, 3) },
		"Gamma":      func(f *netproto.PushFix) { f.Gamma = math.Nextafter(f.Gamma, 0) },
		"Confidence": func(f *netproto.PushFix) { f.Confidence = math.Nextafter(f.Confidence, 1) },
		"Mode":       func(f *netproto.PushFix) { f.Mode = "fallback" },
		"Samples":    func(f *netproto.PushFix) { f.Samples++ },
	} {
		f := base
		edit(&f)
		if digest(f) == want {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
	other := base
	other.T++
	if digest(base, other) == digest(other, base) {
		t.Error("swapping two fixes left the digest unchanged")
	}
}

// TestServeStreamNeverRunsOut: a serve beacon's stream continues past its
// stored laps — time rising one sample at a time, the observer walking on
// where fleet.SynthStream's own walk would be — and a TrackSession fed
// the continuation still makes exactly one fix per push after warm-up. A
// program fast enough to push many more slices than a run does today
// therefore keeps the workload's shape instead of running dry.
func TestServeStreamNeverRunsOut(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	cs := sp.Serve
	w := &pushWorkload{cs: cs}
	b := genPushBeacons(cs, 7, 1)[0].pairs[0][0]
	n := len(b.stream)
	if n%synthLap != 0 || n < cs.ErrPushes*cs.PushObs {
		t.Fatalf("stored stream of %d observations: want whole laps of %d covering the %d error slices", n, synthLap, cs.ErrPushes)
	}
	const laps = 3
	got := w.serveObs(nil, b, 0, laps*n)
	walk := fleet.SynthStream(b.name, laps*n, b.phase)
	for j, o := range got {
		if o.T != float64(j)/cs.RateHz {
			t.Fatalf("observation %d at t=%v, want %v", j, o.T, float64(j)/cs.RateHz)
		}
		if math.Abs(o.P-walk[j].P) > 1e-9 || math.Abs(o.Q-walk[j].Q) > 1e-9 {
			t.Fatalf("observation %d: observer at (%v, %v), the walk is at (%v, %v)", j, o.P, o.Q, walk[j].P, walk[j].Q)
		}
	}

	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s, err := eng.NewTrackSession(core.TrackSessionConfig{Beacon: b.name, SampleRateHz: cs.RateHz})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(got)/cs.PushObs; k++ {
		fixes := 0
		for _, o := range got[k*cs.PushObs : (k+1)*cs.PushObs] {
			pt, err := s.Push(estimate.Obs{T: o.T, RSS: o.RSS, P: o.P, Q: o.Q})
			if err != nil {
				t.Fatalf("push %d: %v", k, err)
			}
			if pt != nil {
				fixes++
			}
		}
		want := 1
		if k < cs.WarmupPushes {
			want = 0
		}
		if fixes != want {
			t.Fatalf("push %d of a stream %d laps long: %d fixes, want %d", k, laps*n/synthLap, fixes, want)
		}
	}
}
