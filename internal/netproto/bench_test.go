package netproto

import (
	"bytes"
	"fmt"
	"testing"

	"locble/internal/fleet"
)

// benchObs is the microbenchmark workload: 24 beacons interleaved at 16
// observations each — the shape a router sub-batch has on the wire, and
// the unfavorable order for the binary encoder's intern scan (every
// entry switches beacons).
func benchObs() []fleet.Obs {
	const beacons, per = 24, 16
	obs := make([]fleet.Obs, 0, beacons*per)
	for i := 0; i < per; i++ {
		for b := 0; b < beacons; b++ {
			obs = append(obs, fleet.Obs{
				Beacon: fmt.Sprintf("bench-%02d", b),
				T:      float64(i) * 0.125,
				RSS:    -58.5 - 0.75*float64((b+i)%13),
				P:      0.15 * float64(i),
				Q:      0.05 * float64(b),
			})
		}
	}
	return obs
}

// jsonPushReq is a push request as a JSON document — the encoding the
// JSON benchmarks price against locb2.
type jsonPushReq struct {
	Op  string      `json:"op"`
	Obs []fleet.Obs `json:"obs"`
}

func BenchmarkWireEncodeJSON(b *testing.B) {
	req := jsonPushReq{Op: "push", Obs: benchObs()}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &req); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeBinary(b *testing.B) {
	obs := benchObs()
	var enc BinaryPushEncoder
	b.SetBytes(int64(len(enc.Encode(obs))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Encode(obs)
	}
}

func BenchmarkWireDecodeJSON(b *testing.B) {
	req := jsonPushReq{Op: "push", Obs: benchObs()}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &req); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	rd := bytes.NewReader(frame)
	var dec jsonPushReq
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		dec.Obs = dec.Obs[:0]
		if err := ReadFrame(rd, &dec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeBinary(b *testing.B) {
	obs := benchObs()
	var enc BinaryPushEncoder
	frame := append([]byte(nil), enc.Encode(obs)...)
	var dec BinaryPushDecoder
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
