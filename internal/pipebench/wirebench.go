package pipebench

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"locble/internal/fleet"
	"locble/internal/netproto"
)

// WireCodecStats is one codec's measurement over the fixed wire
// workload: round-trip (encode + decode) throughput, frame size, and
// MemStats-derived allocation counts split by direction. BytesPerObs is
// deterministic for a given build; the rates and allocation counts are
// the hardware- and runtime-dependent part.
type WireCodecStats struct {
	Codec           string  `json:"codec"`
	Frames          int     `json:"frames"`
	FramesPerSecond float64 `json:"frames_per_second"`
	BytesPerObs     float64 `json:"bytes_per_obs"`
	// EncodeAllocsPerFrame / DecodeAllocsPerFrame are heap allocations
	// per frame in each direction, measured on a single P with MemStats
	// deltas. AllocsPerFrame is their sum — the number the pooled frame
	// buffers and the interned binary decode scratch keep low.
	EncodeAllocsPerFrame float64 `json:"encode_allocs_per_frame"`
	DecodeAllocsPerFrame float64 `json:"decode_allocs_per_frame"`
	AllocsPerFrame       float64 `json:"allocs_per_frame"`
}

// WireStats is the wire-codec benchmark section: the same push-request
// workload — wireBeacons beacons interleaved at wireObsPerBeacon
// observations each, the shape a router sub-batch has on the wire —
// encoded and decoded through the JSON path and the binary
// (netproto.CodecBinary) path.
// SpeedupX and AllocRatioX are the headline binary-vs-JSON ratios the
// gate holds absolute floors on.
type WireStats struct {
	ObsPerFrame int            `json:"obs_per_frame"`
	Beacons     int            `json:"beacons"`
	JSON        WireCodecStats `json:"json"`
	Binary      WireCodecStats `json:"binary"`
	// SpeedupX is binary round-trip frames/s over JSON's.
	SpeedupX float64 `json:"speedup_x"`
	// AllocRatioX is JSON allocs/frame over binary's.
	AllocRatioX float64 `json:"alloc_ratio_x"`
}

const (
	wireBeacons      = 24
	wireObsPerBeacon = 16
	wireFrames       = 256
	wireReps         = 3
)

// wireWorkload builds the fixed benchmark batch: beacons interleaved
// observation by observation (the unfavorable order for the binary
// encoder's intern scan — every entry switches beacons), deterministic
// values throughout.
func wireWorkload() []fleet.Obs {
	obs := make([]fleet.Obs, 0, wireBeacons*wireObsPerBeacon)
	for i := 0; i < wireObsPerBeacon; i++ {
		for b := 0; b < wireBeacons; b++ {
			obs = append(obs, fleet.Obs{
				Beacon: fmt.Sprintf("wire-%02d", b),
				T:      float64(i) * 0.125,
				RSS:    -58.5 - 0.75*float64((b+i)%13),
				P:      0.15 * float64(i),
				Q:      0.05 * float64(b),
			})
		}
	}
	return obs
}

// runWireBench measures both codecs over the fixed workload, min-of-N
// on the round-trip wall (the usual noise-floor convention); the
// allocation counts come from the same best rep.
func runWireBench() (*WireStats, error) {
	obs := wireWorkload()
	var best *WireStats
	for r := 0; r < wireReps; r++ {
		js, err := measureJSONWire(obs)
		if err != nil {
			return nil, err
		}
		bin, err := measureBinaryWire(obs)
		if err != nil {
			return nil, err
		}
		st := &WireStats{
			ObsPerFrame: len(obs),
			Beacons:     wireBeacons,
			JSON:        js,
			Binary:      bin,
		}
		if js.FramesPerSecond > 0 {
			st.SpeedupX = bin.FramesPerSecond / js.FramesPerSecond
		}
		if bin.AllocsPerFrame > 0 {
			st.AllocRatioX = js.AllocsPerFrame / bin.AllocsPerFrame
		}
		if best == nil || st.Binary.FramesPerSecond+st.JSON.FramesPerSecond >
			best.Binary.FramesPerSecond+best.JSON.FramesPerSecond {
			best = st
		}
	}
	return best, nil
}

// measureJSONWire drives the production JSON framing path: pooled
// single-write WriteFrame encodes, pooled-read ReadFrame decodes.
func measureJSONWire(obs []fleet.Obs) (WireCodecStats, error) {
	req := struct {
		Op  string      `json:"op"`
		Obs []fleet.Obs `json:"obs"`
	}{Op: "push", Obs: obs}
	var buf bytes.Buffer
	if err := netproto.WriteFrame(&buf, &req); err != nil {
		return WireCodecStats{}, err
	}
	frame := append([]byte(nil), buf.Bytes()...)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var ms0, ms1 runtime.MemStats

	runtime.ReadMemStats(&ms0)
	encStart := time.Now()
	for i := 0; i < wireFrames; i++ {
		buf.Reset()
		if err := netproto.WriteFrame(&buf, &req); err != nil {
			return WireCodecStats{}, err
		}
	}
	encWall := time.Since(encStart)
	runtime.ReadMemStats(&ms1)
	encAllocs := ms1.Mallocs - ms0.Mallocs

	var dec struct {
		Op  string      `json:"op"`
		Obs []fleet.Obs `json:"obs"`
	}
	rd := bytes.NewReader(frame)
	runtime.ReadMemStats(&ms0)
	decStart := time.Now()
	for i := 0; i < wireFrames; i++ {
		rd.Reset(frame)
		dec.Obs = dec.Obs[:0]
		if err := netproto.ReadFrame(rd, &dec); err != nil {
			return WireCodecStats{}, err
		}
	}
	decWall := time.Since(decStart)
	runtime.ReadMemStats(&ms1)
	if len(dec.Obs) != len(obs) {
		return WireCodecStats{}, fmt.Errorf("wire bench: JSON decoded %d obs, want %d", len(dec.Obs), len(obs))
	}
	return wireStatsFrom("json", len(frame), len(obs), encWall, decWall, encAllocs, ms1.Mallocs-ms0.Mallocs), nil
}

// measureBinaryWire drives the binary path through the exported reusable
// encoder/decoder — the same appendPushReq/decodePushReq core the
// negotiated connection uses.
func measureBinaryWire(obs []fleet.Obs) (WireCodecStats, error) {
	var enc netproto.BinaryPushEncoder
	var dec netproto.BinaryPushDecoder
	frame := append([]byte(nil), enc.Encode(obs)...)
	// Warm the decode scratch so steady-state allocations are measured,
	// not first-frame growth.
	if _, err := dec.Decode(frame); err != nil {
		return WireCodecStats{}, err
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var ms0, ms1 runtime.MemStats

	runtime.ReadMemStats(&ms0)
	encStart := time.Now()
	for i := 0; i < wireFrames; i++ {
		enc.Encode(obs)
	}
	encWall := time.Since(encStart)
	runtime.ReadMemStats(&ms1)
	encAllocs := ms1.Mallocs - ms0.Mallocs

	var got []fleet.Obs
	runtime.ReadMemStats(&ms0)
	decStart := time.Now()
	for i := 0; i < wireFrames; i++ {
		var err error
		got, err = dec.Decode(frame)
		if err != nil {
			return WireCodecStats{}, err
		}
	}
	decWall := time.Since(decStart)
	runtime.ReadMemStats(&ms1)
	if len(got) != len(obs) {
		return WireCodecStats{}, fmt.Errorf("wire bench: binary decoded %d obs, want %d", len(got), len(obs))
	}
	return wireStatsFrom(netproto.CodecBinary, len(frame), len(obs), encWall, decWall, encAllocs, ms1.Mallocs-ms0.Mallocs), nil
}

func wireStatsFrom(codec string, frameBytes, obsPerFrame int, encWall, decWall time.Duration, encAllocs, decAllocs uint64) WireCodecStats {
	st := WireCodecStats{
		Codec:                codec,
		Frames:               wireFrames,
		BytesPerObs:          float64(frameBytes) / float64(obsPerFrame),
		EncodeAllocsPerFrame: float64(encAllocs) / wireFrames,
		DecodeAllocsPerFrame: float64(decAllocs) / wireFrames,
	}
	st.AllocsPerFrame = st.EncodeAllocsPerFrame + st.DecodeAllocsPerFrame
	if rt := (encWall + decWall).Seconds(); rt > 0 {
		st.FramesPerSecond = wireFrames / rt
	}
	return st
}
