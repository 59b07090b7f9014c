package netproto

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"locble/internal/fleet"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder: truncated
// headers, oversized length prefixes, short bodies, malformed JSON. The
// decoder must never panic, and anything it accepts must re-encode.
func FuzzReadFrame(f *testing.F) {
	frame := func(body []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
		return append(hdr[:], body...)
	}

	// A valid bundle frame.
	var valid bytes.Buffer
	if err := WriteFrame(&valid, testBundle()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})                             // empty input
	f.Add([]byte{0x00, 0x00})                   // truncated header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})       // oversized length prefix
	f.Add(frame(nil))                           // zero-length body
	f.Add(frame([]byte(`{"device":`)))          // malformed JSON
	f.Add(frame([]byte(`{"rss":[{"t":"x"}]}`))) // wrong field type
	f.Add(frame([]byte(`[1,2,3]`)))             // wrong top-level type
	f.Add(valid.Bytes()[:len(valid.Bytes())-3]) // truncated body

	f.Fuzz(func(t *testing.T, data []byte) {
		var b TraceBundle
		if err := ReadFrame(bytes.NewReader(data), &b); err != nil {
			return
		}
		// Accepted frames must survive a round trip: JSON cannot have
		// smuggled in anything WriteFrame refuses to encode.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &b); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		var again TraceBundle
		if err := ReadFrame(&buf, &again); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
	})
}

// FuzzBinaryFrame feeds arbitrary bytes to every locb2 frame decoder as
// one tagged body (the shape that arrives off the wire after the length
// prefix). The decoders must never panic and never read outside the
// body — forged counts, truncated floats, out-of-range intern
// references, and trailing garbage are all rejected with errors.
// Anything accepted must survive a semantic round trip through the
// canonical encoder (the re-encoded bytes may differ — the encoder
// interns canonically — but the decoded values must not).
func FuzzBinaryFrame(f *testing.F) {
	obs := []fleet.Obs{
		{Beacon: "kitchen-tag", T: 1.25, RSS: -61.5, P: 0.1, Q: -0.2},
		{Beacon: "door-tag", T: 2.25, RSS: -72.5, P: 0.3, Q: 0.4},
		{Beacon: "kitchen-tag", T: 3.25, RSS: -62, P: 0.5, Q: 0.6},
	}
	var enc BinaryPushEncoder
	f.Add(append([]byte{}, enc.Encode(obs)[4:]...)) // tagged push-req body
	reply := appendPushReply(nil, []PushResult{
		{Beacon: "kitchen-tag", Created: true, Fixes: []PushFix{
			{T: 1, X: 2.5, Y: -0.5, N: 2.1, Gamma: 0.9, Confidence: 0.8, Mode: "near", Samples: 12},
		}},
		{Beacon: "door-tag", Err: "fleet: shard session cap reached"},
	})
	f.Add(reply)
	f.Add(appendStreamBatch(nil, &StreamBatch{
		Seq: 7, Final: true,
		RSS:    []TimedRSS{{T: 0.5, RSS: -70, Chan: 38}},
		Motion: []MotionPoint{{T: 0.5, X: 1.5, Y: -2.5}},
	}))
	f.Add(appendError(nil, "overloaded"))
	f.Add(appendPushReply(nil, nil))      // empty reply
	f.Add(reply[:len(reply)-3])           // truncated reply
	f.Add([]byte{0x03, 0x03})             // the retired push trailer tag
	f.Add([]byte{})                       // empty body
	f.Add([]byte{bfPushReq})              // missing count
	f.Add([]byte{bfPushReq, 0x01, 0x05})  // count promises more than present
	f.Add([]byte{bfPushReply, 1, 0xFF})   // string length past the end
	f.Add([]byte{bfStreamBatch, 1, 0, 2}) // forged RSS count
	f.Add([]byte{0x7F, 1, 2, 3})          // unknown tag

	f64eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	fixEq := func(a, b PushFix) bool {
		return f64eq(a.T, b.T) && f64eq(a.X, b.X) && f64eq(a.Y, b.Y) &&
			f64eq(a.N, b.N) && f64eq(a.Gamma, b.Gamma) && f64eq(a.Confidence, b.Confidence) &&
			a.Mode == b.Mode && a.Samples == b.Samples
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return
		}
		switch body[0] {
		case bfPushReq:
			obs, _, err := decodePushReq(body[1:], nil, nil)
			if err != nil {
				return
			}
			var e BinaryPushEncoder
			var d BinaryPushDecoder
			again, err := d.Decode(e.Encode(obs))
			if err != nil {
				t.Fatalf("accepted push-req failed to round-trip: %v", err)
			}
			if len(again) != len(obs) {
				t.Fatalf("round trip changed batch size: %d -> %d", len(obs), len(again))
			}
			for i := range obs {
				if obs[i].Beacon != again[i].Beacon || !f64eq(obs[i].T, again[i].T) ||
					!f64eq(obs[i].RSS, again[i].RSS) || !f64eq(obs[i].P, again[i].P) ||
					!f64eq(obs[i].Q, again[i].Q) {
					t.Fatalf("obs %d changed in round trip: %+v -> %+v", i, obs[i], again[i])
				}
			}
		case bfPushReply:
			res, err := decodePushReply(body[1:])
			if err != nil {
				return
			}
			again, err := decodePushReply(appendPushReply(nil, res)[1:])
			if err != nil {
				t.Fatalf("accepted push reply failed to round-trip: %v", err)
			}
			if len(again) != len(res) {
				t.Fatalf("round trip changed result count: %d -> %d", len(res), len(again))
			}
			for i := range res {
				r, r2 := res[i], again[i]
				if r.Beacon != r2.Beacon || r.Created != r2.Created || r.Restored != r2.Restored ||
					r.Quarantined != r2.Quarantined || r.Err != r2.Err || len(r.Fixes) != len(r2.Fixes) {
					t.Fatalf("result %d changed in round trip: %+v -> %+v", i, r, r2)
				}
				for j := range r.Fixes {
					if !fixEq(r.Fixes[j], r2.Fixes[j]) {
						t.Fatalf("result %d fix %d changed in round trip: %+v -> %+v", i, j, r.Fixes[j], r2.Fixes[j])
					}
				}
			}
		case bfStreamBatch:
			var b StreamBatch
			if decodeStreamBatch(body[1:], &b) != nil {
				return
			}
			re := appendStreamBatch(nil, &b)
			var b2 StreamBatch
			if err := decodeStreamBatch(re[1:], &b2); err != nil {
				t.Fatalf("accepted stream batch failed to round-trip: %v", err)
			}
			if b.Seq != b2.Seq || b.Final != b2.Final || b.Draining != b2.Draining ||
				len(b.RSS) != len(b2.RSS) || len(b.Motion) != len(b2.Motion) {
				t.Fatalf("batch changed in round trip: %+v -> %+v", b, b2)
			}
			for i := range b.RSS {
				if !f64eq(b.RSS[i].T, b2.RSS[i].T) || !f64eq(b.RSS[i].RSS, b2.RSS[i].RSS) || b.RSS[i].Chan != b2.RSS[i].Chan {
					t.Fatalf("RSS %d changed in round trip: %+v -> %+v", i, b.RSS[i], b2.RSS[i])
				}
			}
			for i := range b.Motion {
				if !f64eq(b.Motion[i].T, b2.Motion[i].T) || !f64eq(b.Motion[i].X, b2.Motion[i].X) || !f64eq(b.Motion[i].Y, b2.Motion[i].Y) {
					t.Fatalf("motion %d changed in round trip: %+v -> %+v", i, b.Motion[i], b2.Motion[i])
				}
			}
		case bfError:
			r := binReader{b: body[1:]}
			msg := r.str()
			if r.done() == nil && msg == "" && len(body) > 1 {
				// An empty accepted message can only come from a one-byte
				// zero-length encoding.
				if body[1] != 0 {
					t.Fatalf("empty message decoded from %x", body)
				}
			}
		}
	})
}
